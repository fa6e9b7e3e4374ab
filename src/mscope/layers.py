"""Module tree shared by the patch-level and breast-level networks.

``Module`` walks its attributes to find parameters (``Parameter``), buffers
(arrays named ``running_*``) and child modules, and gives every network
``parameters``, ``state_dict``/``load_state_dict`` and ``train``/``eval``.
``Conv2d``, ``BatchNorm2d``, ``Linear`` and ``conv_bn`` check every output
for non-finite values; during training (a step or a validation pass), the
``NumericsError`` they raise counts as divergence (see ``optim._fit``).
Pooling and ReLU cannot create non-finite values from finite input.

Every convolution followed by BatchNorm runs through ``conv_bn``. In eval
mode it folds the BatchNorm into the convolution (weights scaled per
output channel, plus a constant bias), so its outputs differ from
``bn(conv(x))`` by float32 rounding only: about 1e-7 relative per layer,
which the tests bound at 1e-5 abs on PatchNet probabilities and 1e-4
relative on the multi-view pre-sigmoid outputs. Train-mode forwards are
exactly ``bn(conv(x))``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class StateDictError(ValueError):
    """A state that does not fit a module: a missing, unexpected or
    mis-shaped entry. The message names the first key at fault."""


class Parameter(Tensor):
    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    def __init__(self):
        self.training = True

    @staticmethod
    def _children(val, key):
        if isinstance(val, Module):
            yield key, val
        elif isinstance(val, (list, tuple)):
            for i, item in enumerate(val):
                yield from Module._children(item, f"{key}.{i}")
        elif isinstance(val, dict):
            for k, item in val.items():
                yield from Module._children(item, f"{key}.{k}")

    def named_parameters(self, prefix=""):
        for name, val in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(val, Parameter):
                yield key, val
            else:
                for ckey, child in Module._children(val, key):
                    yield from child.named_parameters(f"{ckey}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix=""):
        for name, val in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(val, np.ndarray) and name.startswith("running_"):
                yield key, val
            elif not isinstance(val, Parameter):
                for ckey, child in Module._children(val, key):
                    yield from child.named_buffers(f"{ckey}.")

    def modules(self):
        yield self
        for name, val in vars(self).items():
            for _, child in Module._children(val, name):
                yield from child.modules()

    def train(self, flag=True):
        """Train mode (``flag`` True) or eval mode for every submodule.

        Parameters require gradients exactly in train mode, so an
        eval-mode forward records no graph (see ``tensor``) and
        ``train()`` restores gradient recording.
        """
        for m in self.modules():
            m.training = flag
        for p in self.parameters():
            p.requires_grad = flag
        return self

    def eval(self):
        """Eval mode: BatchNorm uses its running statistics and the
        parameters stop requiring gradients; see ``train``."""
        return self.train(False)

    def state_dict(self):
        state = {name: p.data for name, p in self.named_parameters()}
        state.update({name: buf for name, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state):
        found = set()
        for name, p in self.named_parameters():
            if name not in state:
                raise StateDictError(f"missing parameter {name!r} in state")
            if state[name].shape != p.data.shape:
                raise StateDictError(f"shape mismatch for {name!r}: "
                                     f"{state[name].shape} vs {p.data.shape}")
            p.data = state[name].astype(p.data.dtype, copy=True)
            found.add(name)
        for name, buf in self.named_buffers():
            if name not in state:
                raise StateDictError(f"missing buffer {name!r} in state")
            if state[name].shape != buf.shape:
                raise StateDictError(f"shape mismatch for {name!r}: "
                                     f"{state[name].shape} vs {buf.shape}")
            buf[...] = state[name]
            found.add(name)
        extra = sorted(set(state) - found)
        if extra:
            raise StateDictError(f"unexpected entry {extra[0]!r} in state "
                                 f"({len(extra)} in all)")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def he_normal(rng, shape, fan_in):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(
        np.float32)


class Conv2d(Module):
    """Convolution of (N, H, W, Cin) activations; the weight is stored
    (kh, kw, Cin, Cout) (see ``tensor.conv2d``). It is drawn in
    (Cout, Cin, kh, kw) order and transposed once, so a seed gives the
    same initial values whatever the layout."""

    def __init__(self, in_ch, out_ch, kernel, *, stride, padding=0, rng):
        super().__init__()
        self.stride = stride
        self.padding = padding
        w = he_normal(rng, (out_ch, in_ch, kernel, kernel),
                      in_ch * kernel * kernel)
        self.weight = Parameter(np.ascontiguousarray(w.transpose(2, 3, 1, 0)))

    def forward(self, x):
        out = T.conv2d(x, self.weight, stride=self.stride, padding=self.padding)
        T.check_finite(out.data, "conv2d")
        return out


class BatchNorm2d(Module):
    """Running statistics move on every train-mode forward; see
    ``tensor.batchnorm2d``."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x):
        out = T.batchnorm2d(x, self.gamma, self.beta,
                            self.running_mean, self.running_var,
                            training=self.training)
        T.check_finite(out.data, "batchnorm")
        return out


class Linear(Module):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        bound = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(rng.uniform(
            -bound, bound, (out_features, in_features)).astype(np.float32))
        self.bias = Parameter(
            rng.uniform(-bound, bound, out_features).astype(np.float32))

    def forward(self, x):
        out = T.linear(x, self.weight, self.bias)
        T.check_finite(out.data, "linear")
        return out


def conv_bn(conv, bn, x):
    """``bn(conv(x))``, with the BatchNorm folded into the convolution in
    eval mode.

    In eval mode BatchNorm is the per-channel affine map
    ``y * s + (beta - mean * s)`` with ``s = gamma / sqrt(var + eps)``, so
    one convolution with weights ``w * s`` and that constant bias does
    both (Jacob et al. 2018, arXiv 1712.05877, section 3.2). Train mode
    needs the batch statistics and runs the two layers as they are.
    """
    if bn.training:
        return bn(conv(x))
    scale = bn.gamma.data / np.sqrt(bn.running_var + T.BN_EPS)
    weight = Tensor(conv.weight.data * scale)
    out = T.conv2d(x, weight, stride=conv.stride, padding=conv.padding,
                   bias=bn.beta.data - bn.running_mean * scale)
    T.check_finite(out.data, "conv_bn")
    return out
