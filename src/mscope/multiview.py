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
They differ only in their rows of ``_HEAD_PLANS``: the views each head
reads (concatenated) and the breasts it scores, "LR", "L" or "R". A head
has 2 outputs per breast it scores, through a sigmoid (3 through a
softmax for the assessment task); the heads of the same breasts are
averaged, and the groups concatenated, L before R.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import (BatchNorm2d, Conv2d, Linear, Module, StateDictError,
                     conv_bn)
from .seeding import _map_blas, substream

COLUMN_CHANNELS = (16, 16, 32, 64, 128, 256)
STEM_KERNEL, STEM_STRIDE, STEM_PADDING = 7, 2, 3
BLOCKS_PER_STAGE = 2
FUSION_VARIANTS = ("view_wise", "image_wise", "breast_wise", "joint")
VIEW_ORDER = ("lcc", "rcc", "lmlo", "rmlo")
OUTPUT_ORDER = ("l_benign", "l_malignant", "r_benign", "r_malignant")


def column_shape_audit(in_dims):
    """Symbolic per-stage output shapes (no allocation).

    Returns [(name, (h, w, channels))] for the stem and each stage of a
    column fed an (H, W) image.
    """
    h, w = (T.conv2d_shape(n, STEM_KERNEL, STEM_STRIDE, STEM_PADDING)
            for n in in_dims)
    rows = [("conv7x7", (h, w, COLUMN_CHANNELS[0]))]
    for i, cout in enumerate(COLUMN_CHANNELS[1:]):
        h, w = (T.conv2d_shape(n, 3, 2, 1) for n in (h, w))
        rows.append((f"resblock{i}", (h, w, cout)))
    return rows


class ResidualBlock(Module):
    """Two 3x3 convolutions with batch normalization; the first block of a
    stage downsamples with stride 2 and carries a 1x1 convolution on the
    shortcut."""

    def __init__(self, cin, cout, stride, rng):
        super().__init__()
        self.conv1 = Conv2d(cin, cout, 3, stride=stride, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(cout)
        self.conv2 = Conv2d(cout, cout, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(cout)
        if stride != 1 or cin != cout:
            self.shortcut_conv = Conv2d(cin, cout, 1, stride=stride, rng=rng)
            self.shortcut_bn = BatchNorm2d(cout)
        else:
            self.shortcut_conv = None
            self.shortcut_bn = None

    def forward(self, x):
        h = conv_bn(self.conv1, self.bn1, x, relu=True)
        if self.shortcut_conv is not None:
            x = conv_bn(self.shortcut_conv, self.shortcut_bn, x)
        return conv_bn(self.conv2, self.bn2, h, relu=True, residual=x)


class ResNetColumn(Module):
    """The stem and ``BLOCKS_PER_STAGE`` residual blocks per stage of the
    ``COLUMN_CHANNELS`` plan, over ``input_channels``-channel images."""

    def __init__(self, input_channels, rng):
        super().__init__()
        ch = COLUMN_CHANNELS
        self.stem = Conv2d(input_channels, ch[0], STEM_KERNEL,
                           stride=STEM_STRIDE, padding=STEM_PADDING, rng=rng)
        self.stem_bn = BatchNorm2d(ch[0])
        blocks = []
        cin = ch[0]
        for cout in ch[1:]:
            blocks.append(ResidualBlock(cin, cout, 2, rng))
            for _ in range(BLOCKS_PER_STAGE - 1):
                blocks.append(ResidualBlock(cout, cout, 1, rng))
            cin = cout
        self.blocks = blocks

    def forward(self, x):
        h = conv_bn(self.stem, self.stem_bn, x, relu=True)
        for block in self.blocks:
            h = block(h)
        return T.global_avgpool2d(h)


class FusionHead(Module):
    """Two fully connected layers; ``hidden`` activations after the first."""

    def __init__(self, in_features, hidden, out_features, rng):
        super().__init__()
        self.fc1 = Linear(in_features, hidden, rng=rng)
        self.fc2 = Linear(hidden, out_features, rng=rng)

    def forward(self, x):
        return self.fc2(T.relu(self.fc1(x)))


_HEAD_PLANS = {
    # name -> list of (head key, input views, breasts scored, hidden)
    "view_wise": [("cc", ("lcc", "rcc"), "LR", 512),
                  ("mlo", ("lmlo", "rmlo"), "LR", 512)],
    "image_wise": [(v, (v,), v[0].upper(), 256)
                   for v in ("lcc", "rcc", "lmlo", "rmlo")],
    "breast_wise": [("left", ("lcc", "lmlo"), "L", 512),
                    ("right", ("rcc", "rmlo"), "R", 512)],
    "joint": [("all", ("lcc", "rcc", "lmlo", "rmlo"), "LR", 1024)],
}


def _fusion_heads(variant, task, rng):
    return {key: FusionHead(256 * len(views), hidden,
                            3 if task == "birads" else 2 * len(breasts), rng)
            for key, views, breasts, hidden in _HEAD_PLANS[variant]}


class MultiViewNet(Module):
    """Shared-weight columns plus a fusion-variant head stack.

    ``task`` is "cancer" (four sigmoid outputs) or "birads" (view_wise-
    shaped three-way softmax, branch probabilities averaged). A ``seed``
    of None leaves it unfilled (``layers.he_normal``).
    """

    def __init__(self, variant, input_channels, task, seed):
        super().__init__()
        if variant not in FUSION_VARIANTS:
            raise ValueError(f"unknown fusion variant {variant!r}")
        if task == "birads" and variant != "view_wise":
            raise ValueError("the 3-way assessment model is view_wise-shaped")
        self.variant = variant
        self.task = task
        col_rng, head_rng = (None, None) if seed is None else (
            substream(seed, "columns"), substream(seed, "heads"))
        self.cc_column = ResNetColumn(input_channels, col_rng)
        self.mlo_column = ResNetColumn(input_channels, col_rng)
        self.heads = _fusion_heads(variant, task, head_rng)

    def column_for(self, view):
        return self.cc_column if view.endswith("cc") else self.mlo_column

    def forward(self, views):
        """``views`` maps view name to an (N, H, W, C) Tensor with left
        images already flipped; returns (N, 4) probabilities (or (N, 3)
        class probabilities for the 3-way task). In eval mode the four
        column calls run on ``seeding._map_blas``, with the loop's bytes;
        train mode and ``fuse`` run on the calling thread."""
        def column(v):
            return self.column_for(v)(views[v])
        vecs = [column(v) for v in VIEW_ORDER] if self.training else \
            _map_blas(column, VIEW_ORDER)
        return self.fuse(dict(zip(VIEW_ORDER, vecs)))

    def fuse(self, vecs):
        """Fusion over per-view 256-vectors (Tensors shaped (N, 256)), by
        the variant's rows of ``_HEAD_PLANS`` (see the module docstring)."""
        act = T.softmax if self.task == "birads" else T.sigmoid
        groups = {}
        for key, views, breasts, _ in _HEAD_PLANS[self.variant]:
            x = vecs[views[0]] if len(views) == 1 else \
                T.concat([vecs[v] for v in views])
            groups.setdefault(breasts, []).append(act(self.heads[key](x)))
        out = [probs[0] if len(probs) == 1 else
               T.mul(T.add(*probs), 1 / len(probs))
               for _, probs in sorted(groups.items())]
        return out[0] if len(out) == 1 else T.concat(out)


def transfer_from_pretrained(source_state, variant, input_channels, seed):
    """A new cancer model with columns copied from a 1-channel checkpoint.

    Every column weight and buffer of the new model is copied from the
    source, the stem kernel replicated across the target's input channels;
    head weights stay at their fresh seeded initialization, and source
    entries outside the columns are ignored. A source that does not fit
    (a column entry missing or without a target, a shape mismatch, a stem
    that is not single-channel) raises ``StateDictError`` naming the first
    key at fault. Only the heads are drawn, as the columns are copied.
    """
    net = MultiViewNet(variant=variant, input_channels=input_channels,
                       task="cancer", seed=None)
    net.heads = _fusion_heads(variant, "cancer", substream(seed, "heads"))
    state = {name: arr for name, arr in net.state_dict().items()
             if name.startswith("heads.")}
    for name, src in source_state.items():
        if not name.startswith(("cc_column.", "mlo_column.")):
            continue
        if name.endswith(".stem.weight"):
            if src.ndim != 4 or src.shape[2] != 1:
                raise StateDictError(f"source stem {name!r} must be "
                                     f"single-channel, got {src.shape}")
            src = np.repeat(src, input_channels, axis=2)
        state[name] = src
    net.load_state_dict(state)
    return net
