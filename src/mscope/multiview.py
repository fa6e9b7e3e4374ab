"""Four-column multi-view classifier.

Each view runs through a 22-weighted-layer residual column (7x7 stride-2
stem, five stages of two residual blocks each, channel plan
16-16-32-64-128-256, every stage halving the spatial dims, global average
pool to a 256-vector). L-CC/R-CC share one column, L-MLO/R-MLO another;
left images are horizontally flipped before entry so all breasts are
oriented the same way.

Four fusion variants combine the view vectors, all constrained to 1,024
hidden activations across their fully connected layers, and all emitting
four probabilities ordered (L-benign, L-malignant, R-benign, R-malignant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import (BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear, Module,
                     StateDictError, conv_bn)
from .seeding import substream

COLUMN_CHANNELS = (16, 16, 32, 64, 128, 256)
FUSION_VARIANTS = ("view_wise", "image_wise", "breast_wise", "joint")
VIEW_ORDER = ("lcc", "rcc", "lmlo", "rmlo")
OUTPUT_ORDER = ("l_benign", "l_malignant", "r_benign", "r_malignant")


@dataclass
class ColumnConfig:
    input_channels: int = 1
    stem_kernel: int = 7
    stem_stride: int = 2
    stem_padding: int = 3
    channels: tuple = COLUMN_CHANNELS
    blocks_per_stage: int = 2


def column_shape_audit(config: ColumnConfig, in_dims):
    """Symbolic per-stage output shapes (no allocation).

    Returns [(name, (h, w, channels))] for the stem and each stage of a
    column fed an (H, W) image.
    """
    h, w = in_dims
    k, s, p = config.stem_kernel, config.stem_stride, config.stem_padding
    h = (h + 2 * p - k) // s + 1
    w = (w + 2 * p - k) // s + 1
    rows = [("conv7x7", (h, w, config.channels[0]))]
    for i, cout in enumerate(config.channels[1:]):
        h = (h + 2 * 1 - 3) // 2 + 1
        w = (w + 2 * 1 - 3) // 2 + 1
        rows.append((f"resblock{i}", (h, w, cout)))
    return rows


class ResidualBlock(Module):
    """Two 3x3 convolutions with batch normalization; the first block of a
    stage downsamples with stride 2 and carries a 1x1 convolution on the
    shortcut."""

    def __init__(self, cin, cout, stride, rng, dtype=np.float32):
        super().__init__()
        self.conv1 = Conv2d(cin, cout, 3, stride=stride, padding=1, rng=rng,
                            dtype=dtype)
        self.bn1 = BatchNorm2d(cout, dtype=dtype)
        self.conv2 = Conv2d(cout, cout, 3, stride=1, padding=1, rng=rng,
                            dtype=dtype)
        self.bn2 = BatchNorm2d(cout, dtype=dtype)
        if stride != 1 or cin != cout:
            self.shortcut_conv = Conv2d(cin, cout, 1, stride=stride, rng=rng,
                                        dtype=dtype)
            self.shortcut_bn = BatchNorm2d(cout, dtype=dtype)
        else:
            self.shortcut_conv = None
            self.shortcut_bn = None

    def forward(self, x):
        h = T.relu(conv_bn(self.conv1, self.bn1, x))
        h = conv_bn(self.conv2, self.bn2, h)
        if self.shortcut_conv is not None:
            x = conv_bn(self.shortcut_conv, self.shortcut_bn, x)
        return T.relu(h + x)


class ResNetColumn(Module):
    def __init__(self, config: ColumnConfig, rng, dtype=np.float32):
        super().__init__()
        self.config = config
        ch = config.channels
        self.stem = Conv2d(config.input_channels, ch[0], config.stem_kernel,
                           stride=config.stem_stride,
                           padding=config.stem_padding, rng=rng, dtype=dtype)
        self.stem_bn = BatchNorm2d(ch[0], dtype=dtype)
        blocks = []
        cin = ch[0]
        for cout in ch[1:]:
            blocks.append(ResidualBlock(cin, cout, 2, rng, dtype))
            for _ in range(config.blocks_per_stage - 1):
                blocks.append(ResidualBlock(cout, cout, 1, rng, dtype))
            cin = cout
        self.blocks = blocks
        self.pool = GlobalAvgPool2d()

    def forward(self, x):
        h = T.relu(conv_bn(self.stem, self.stem_bn, x))
        for block in self.blocks:
            h = block(h)
        return self.pool(h)


class FusionHead(Module):
    """Two fully connected layers; ``hidden`` activations after the first."""

    def __init__(self, in_features, hidden, out_features, rng,
                 dtype=np.float32):
        super().__init__()
        self.fc1 = Linear(in_features, hidden, rng=rng, dtype=dtype)
        self.fc2 = Linear(hidden, out_features, rng=rng, dtype=dtype)

    def forward(self, x):
        return self.fc2(T.relu(self.fc1(x)))


_HEAD_PLANS = {
    # name -> list of (head key, input views, hidden, outputs)
    "view_wise": [("cc", ("lcc", "rcc"), 512, 4),
                  ("mlo", ("lmlo", "rmlo"), 512, 4)],
    "image_wise": [("lcc", ("lcc",), 256, 2), ("rcc", ("rcc",), 256, 2),
                   ("lmlo", ("lmlo",), 256, 2), ("rmlo", ("rmlo",), 256, 2)],
    "breast_wise": [("left", ("lcc", "lmlo"), 512, 2),
                    ("right", ("rcc", "rmlo"), 512, 2)],
    "joint": [("all", ("lcc", "rcc", "lmlo", "rmlo"), 1024, 4)],
}


def hidden_budget(variant):
    return sum(h for _, _, h, _ in _HEAD_PLANS[variant])


class MultiViewNet(Module):
    """Shared-weight columns plus a fusion-variant head stack.

    ``task`` is "cancer" (four sigmoid outputs) or "birads" (view_wise-
    shaped three-way softmax, branch probabilities averaged).
    """

    def __init__(self, variant="view_wise", input_channels=1, task="cancer",
                 seed=0, dtype=np.float32):
        super().__init__()
        if variant not in FUSION_VARIANTS:
            raise ValueError(f"unknown fusion variant {variant!r}")
        if task == "birads" and variant != "view_wise":
            raise ValueError("the 3-way assessment model is view_wise-shaped")
        self.variant = variant
        self.task = task
        self.input_channels = input_channels
        col_rng = substream(seed, "columns")
        self.cc_column = ResNetColumn(ColumnConfig(input_channels), col_rng,
                                      dtype)
        self.mlo_column = ResNetColumn(ColumnConfig(input_channels), col_rng,
                                       dtype)
        head_rng = substream(seed, "heads")
        self.heads = {}
        for key, views, hidden, nout in _HEAD_PLANS[variant]:
            if task == "birads":
                nout = 3
            self.heads[key] = FusionHead(256 * len(views), hidden, nout,
                                         head_rng, dtype)

    def column_for(self, view):
        return self.cc_column if view.endswith("cc") else self.mlo_column

    def forward(self, views):
        """``views`` maps view name to an (N, C, H, W) Tensor with left
        images already flipped; returns (N, 4) probabilities (or (N, 3)
        class probabilities for the 3-way task)."""
        vecs = {v: self.column_for(v)(views[v]) for v in VIEW_ORDER}
        return self.fuse(vecs)

    def fuse(self, vecs):
        """Fusion over per-view 256-vectors (Tensors shaped (N, 256))."""
        head_out = {}
        for key, views, _, _ in _HEAD_PLANS[self.variant]:
            x = vecs[views[0]] if len(views) == 1 else \
                T.concat([vecs[v] for v in views], axis=1)
            head_out[key] = self.heads[key](x)

        if self.task == "birads":
            cc = T.softmax(head_out["cc"], axis=1)
            mlo = T.softmax(head_out["mlo"], axis=1)
            return T.mul(T.add(cc, mlo), 0.5)

        if self.variant == "view_wise":
            cc = T.sigmoid(head_out["cc"])
            mlo = T.sigmoid(head_out["mlo"])
            return T.mul(T.add(cc, mlo), 0.5)
        if self.variant == "image_wise":
            left = T.mul(T.add(T.sigmoid(head_out["lcc"]),
                               T.sigmoid(head_out["lmlo"])), 0.5)
            right = T.mul(T.add(T.sigmoid(head_out["rcc"]),
                                T.sigmoid(head_out["rmlo"])), 0.5)
            return T.concat([left, right], axis=1)
        if self.variant == "breast_wise":
            return T.concat([T.sigmoid(head_out["left"]),
                             T.sigmoid(head_out["right"])], axis=1)
        return T.sigmoid(head_out["all"])  # joint


def count_parameters(net: Module):
    return sum(p.data.size for _, p in net.named_parameters())


def transfer_from_pretrained(source_state, variant="view_wise",
                             input_channels=1, task="cancer", seed=0,
                             dtype=np.float32):
    """New model with columns copied from a 1-channel source checkpoint.

    Every column weight and buffer of the new model is copied from the
    source, the stem kernel replicated across the target's input channels;
    head weights stay at their fresh seeded initialization, and source
    entries outside the columns are ignored. A source that does not fit
    (a column entry missing or without a target, a shape mismatch, a stem
    that is not single-channel) raises ``StateDictError`` naming the first
    key at fault.
    """
    net = MultiViewNet(variant=variant, input_channels=input_channels,
                       task=task, seed=seed, dtype=dtype)
    columns = ("cc_column.", "mlo_column.")
    params = dict(net.named_parameters())
    entries = [(n, p.data) for n, p in params.items()]
    entries += list(net.named_buffers())
    targets = {n: arr for n, arr in entries if n.startswith(columns)}
    for name in targets:
        if name not in source_state:
            raise StateDictError(f"missing column entry {name!r} in source")
    extra = sorted(n for n in source_state
                   if n.startswith(columns) and n not in targets)
    if extra:
        raise StateDictError(f"source entry {extra[0]!r} has no target")
    for name, dst in targets.items():
        src = source_state[name]
        if name.endswith(".stem.weight"):
            if src.ndim != 4 or src.shape[1] != 1:
                raise StateDictError(f"source stem {name!r} must be "
                                     f"single-channel, got {src.shape}")
            src = np.repeat(src, input_channels, axis=1)
        if src.shape != dst.shape:
            raise StateDictError(f"shape mismatch for {name!r}: "
                                 f"{src.shape} vs {dst.shape}")
        if name in params:
            params[name].data = src.astype(dst.dtype, copy=True)
        else:
            dst[...] = src
    return net
