"""Module tree shared by the patch-level and breast-level networks.

``Module`` walks its tree once (``named_modules``): a module, then its
attributes in order, into lists by index and dicts by key. A module's path
joins those names with dots (``cc_column.blocks.3.conv1``). The walk gives
every network ``parameters``, ``train``/``eval`` and its state: a state
entry is named by its module's path and its attribute, every module's
``Parameter``s come in walk order, then every module's buffers (arrays
named ``running_*``) in walk order. A checkpoint keeps that order. It is
the order of an attribute-by-attribute recursion only because no module
holds both parameters of its own and child modules: layers hold
parameters, blocks and networks hold layers.
``Conv2d`` and ``BatchNorm2d`` hold parameters and statistics and run
inside ``conv_bn``; ``conv_bn`` and ``Linear`` check every output for
non-finite values. During training (a step or a validation pass), the
``NumericsError`` they raise counts as divergence (see ``optim._fit``).
Pooling and ReLU cannot create non-finite values from finite input.

Every convolution runs through ``conv_bn``, with the BatchNorm, residual
add and ReLU that follow it. In eval mode it folds the BatchNorm into the
convolution (weights scaled per output channel, plus a constant bias), so
its outputs differ from the unfolded BatchNorm by float32 rounding only:
about 1e-7 relative per layer, which the tests bound at 1e-5 abs on
PatchNet probabilities and 1e-4 relative on the multi-view pre-sigmoid
outputs. In train mode it is one graph node, ``tensor.conv_bn``.
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


def _walk(path, val):
    """The walk of ``named_modules`` from ``val``, found at ``path``."""
    if isinstance(val, Module):
        yield path, val
        val = vars(val)
    elif isinstance(val, list):
        val = dict(enumerate(val))
    if isinstance(val, dict):
        for key, item in val.items():
            yield from _walk(f"{path}.{key}" if path else key, item)


class Module:
    def __init__(self):
        self.training = True

    def named_modules(self):
        """``(path, module)`` for this module (path ``""``) and every module
        below it, in the walk's order (see the module doc)."""
        return _walk("", self)

    def _state(self):
        """``(name, entry)`` for every ``Parameter``, then every buffer."""
        own = [(f"{path}.{attr}" if path else attr, attr, val)
               for path, m in self.named_modules()
               for attr, val in vars(m).items()]
        return [(name, v) for name, _, v in own if isinstance(v, Parameter)] \
            + [(name, v) for name, attr, v in own
               if isinstance(v, np.ndarray) and attr.startswith("running_")]

    def parameters(self):
        return [p for _, p in self._state() if isinstance(p, Parameter)]

    def train(self, flag=True):
        """Train mode (``flag`` True) or eval mode for every submodule.

        Parameters require gradients exactly in train mode, so an
        eval-mode forward records no graph (see ``tensor``) and
        ``train()`` restores gradient recording.
        """
        for _, m in self.named_modules():
            m.training = flag
        for p in self.parameters():
            p.requires_grad = flag
        return self

    def eval(self):
        """Eval mode: BatchNorm uses its running statistics and the
        parameters stop requiring gradients; see ``train``."""
        return self.train(False)

    def state_dict(self):
        return {name: e.data if isinstance(e, Parameter) else e
                for name, e in self._state()}

    def load_state_dict(self, state):
        entries = self._state()
        for name, e in entries:
            param = isinstance(e, Parameter)
            have = e.data if param else e
            if name not in state:
                kind = "parameter" if param else "buffer"
                raise StateDictError(f"missing {kind} {name!r} in state")
            if state[name].shape != have.shape:
                raise StateDictError(f"shape mismatch for {name!r}: "
                                     f"{state[name].shape} vs {have.shape}")
            if param:
                e.data = state[name].astype(have.dtype, copy=True)
            else:
                have[...] = state[name]
        extra = sorted(set(state) - {name for name, _ in entries})
        if extra:
            raise StateDictError(f"unexpected entry {extra[0]!r} in state "
                                 f"({len(extra)} in all)")

    def forward(self, *args, **kwargs):
        raise NotImplementedError(f"{type(self).__name__} has no forward; "
                                  "it runs inside layers.conv_bn")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def he_normal(rng, kernel, cin, cout):
    """A (kernel, kernel, cin, cout) float32 He-normal kernel, drawn in
    (cout, cin, kernel, kernel) order so that a seed gives the same values
    whatever the layout; unfilled with ``rng`` None, for a net built to be
    loaded (``load_state_dict`` rejects a state missing any parameter)."""
    if rng is None:
        return np.empty((kernel, kernel, cin, cout), dtype=np.float32)
    w = rng.standard_normal((cout, cin, kernel, kernel)) * \
        np.sqrt(2.0 / (cin * kernel * kernel))
    return np.ascontiguousarray(w.astype(np.float32).transpose(2, 3, 1, 0))


class Conv2d(Module):
    """A convolution's stride, padding and kernel, stored (kh, kw, Cin,
    Cout) (see ``he_normal``); ``conv_bn`` runs it."""

    def __init__(self, in_ch, out_ch, kernel, *, stride, padding=0, rng):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(he_normal(rng, kernel, in_ch, out_ch))


class BatchNorm2d(Module):
    """BatchNorm's parameters and running statistics, run by ``conv_bn``."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)


class Linear(Module):
    def __init__(self, in_features, out_features, rng):
        super().__init__()
        bound = 1.0 / np.sqrt(in_features)
        # unfilled with rng None, as in he_normal
        self.weight, self.bias = (Parameter(
            np.empty(shape, dtype=np.float32) if rng is None
            else rng.uniform(-bound, bound, shape).astype(np.float32))
            for shape in ((out_features, in_features), out_features))

    def forward(self, x):
        out = T.linear(x, self.weight, self.bias)
        T.check_finite(out.data, "linear")
        return out


def conv_bn(conv, bn, x, relu=False, residual=None):
    """``x`` through ``conv`` and ``bn``, then ``+ residual`` and the ReLU.

    In eval mode BatchNorm is the per-channel affine map
    ``y * s + (beta - mean * s)`` with ``s = gamma / sqrt(var + eps)``, so
    one convolution with weights ``w * s`` and that constant bias does
    both (Jacob et al. 2018, arXiv 1712.05877, section 3.2). Each band of
    it then gets, in place, the bias, the finiteness check, the residual
    add and the ReLU (``tensor.conv2d``): the check precedes the ReLU,
    which would hide a ``-inf``. Train mode is one node, ``tensor.conv_bn``.
    """
    if bn.training:
        return T.conv_bn(x, conv.weight, conv.stride, conv.padding, bn.gamma,
                         bn.beta, bn.running_mean, bn.running_var, residual,
                         relu)
    scale = bn.gamma.data / np.sqrt(bn.running_var + T.BN_EPS)
    weight = Tensor(conv.weight.data * scale)
    return T.conv2d(x, weight, conv.stride, conv.padding,
                    bias=bn.beta.data - bn.running_mean * scale,
                    residual=residual, relu=relu)
