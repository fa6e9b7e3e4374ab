"""Minimal dense-tensor engine with reverse-mode differentiation.

Tensors wrap a numpy array (float32 by default, float64 for gradient
checking) together with an optional gradient slot. An operation records
its inputs and a backward closure on its output only when some input
wants a gradient, that is, requires one or was itself recorded. Otherwise
the output is a plain leaf, and the arrays the closure would hold are
freed when the op returns. ``Module.eval`` stops a net's parameters
requiring gradients, so an eval-mode forward keeps no graph.

Calling ``backward`` on a scalar walks the recorded graph once in reverse
topological order and frees it as it goes: each recorded node drops its
inputs, its closure and its gradient as soon as its closure has run, so
only leaves that require a gradient (parameters, differentiated inputs)
end the sweep holding ``.grad``. A graph is therefore single-use: a
second backward through any consumed node raises ``GraphError``, and a
fresh forward pass is needed before differentiating again.

A convolution forward builds its column matrix in bands, runs of whole
images or of one image's output rows, each band's columns and product
within ``COLUMN_BUDGET`` bytes, so its working memory beyond the padded
input and the output does not grow with the batch or the image.
"""

from __future__ import annotations

import numpy as np

# Bytes one convolution GEMM may take for its column matrix and its
# product together; larger convolutions run in bands (``_conv_forward``).
COLUMN_BUDGET = 4 << 20


class GraphError(RuntimeError):
    """Raised on misuse of the computation graph (re-backward, non-scalar
    loss, a loss that reaches no parameter)."""


class NumericsError(ArithmeticError):
    """Raised when a forward or backward pass produces non-finite values."""


def _as_array(x, dtype=None):
    arr = np.asarray(x, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad = self.grad + g

    def backward(self):
        """Reverse-mode sweep from a scalar; consumes and frees the graph.

        The sweep pops the topological order as it walks it. Once a
        recorded node's closure has run, the node drops its parents, its
        closure and its ``.grad``, and its closure becomes one that raises
        ``GraphError``; its activation is then freed unless the caller
        still holds the node. Leaves keep ``.grad`` only when they require
        a gradient, so after the sweep the gradients live on the
        parameters and differentiated inputs alone.
        """
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar, got shape {self.shape}")

        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is _consumed:
                _consumed(None)  # raises
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._parents = ()
                node._backward = _consumed
            if not node.requires_grad:
                node.grad = None

    # -- convenience arithmetic used by model heads and losses --

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __radd__ = __add__
    __rmul__ = __mul__

    def reshape(self, *shape):
        return reshape(self, shape)


def _consumed(g):
    """The closure a node keeps once ``backward`` has consumed it."""
    raise GraphError("graph already consumed; re-run the forward pass")


def _wrap_const(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _wants_grad(t):
    return t.requires_grad or t._backward is not None


def _node(data, parents, bwd):
    """An op's output: records ``parents`` and the closure ``bwd`` only
    when some parent wants a gradient, else a leaf that drops both."""
    if any(_wants_grad(p) for p in parents):
        return Tensor(data, _parents=parents, _backward=bwd)
    return Tensor(data)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    b = _wrap_const(b, a)

    def bwd(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bwd)


def mul(a, b):
    b = _wrap_const(b, a)

    def bwd(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bwd)


def reshape(a, shape):
    def bwd(g):
        a._accumulate(g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), bwd)


def concat(tensors, axis=1):
    datas = [t.data for t in tensors]
    splits = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _node(np.concatenate(datas, axis=axis), tuple(tensors), bwd)


def relu(x):
    def bwd(g):
        x._accumulate(g * (x.data > 0))

    return _node(np.maximum(x.data, 0), (x,), bwd)


def sigmoid(x):
    y = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        x._accumulate(g * y * (1.0 - y))

    return _node(y, (x,), bwd)


def softmax(x, axis=1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        x._accumulate((g - dot) * y)

    return _node(y, (x,), bwd)


def sum_all(x):
    def bwd(g):
        x._accumulate(np.full_like(x.data, float(g)))

    return _node(np.asarray(x.data.sum(), dtype=x.dtype), (x,), bwd)


def linear(x, w, b=None):
    """x: (N, F) or (F,); w: (O, F); b: (O,)."""
    squeeze = x.data.ndim == 1
    xd = x.data[None, :] if squeeze else x.data
    y = xd @ w.data.T
    if b is not None:
        y = y + b.data

    def bwd(g):
        g2 = g[None, :] if squeeze else g
        w._accumulate(g2.T @ xd)
        if b is not None:
            b._accumulate(g2.sum(axis=0))
        gx = g2 @ w.data
        x._accumulate(gx[0] if squeeze else gx)

    parents = (x, w) if b is None else (x, w, b)
    return _node(y[0] if squeeze else y, parents, bwd)


# -- spatial ops; all take (N, C, H, W) --

def conv2d_shape(extent, kernel, stride, padding):
    out = (extent + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"conv2d output extent {out} not positive "
            f"(in={extent}, k={kernel}, s={stride}, p={padding})")
    return out


def _windows(xc, kh, kw, sh, sw):
    """The (N, Ho, Wo, kh, kw, C) window view of a padded NHWC array.

    Reshaped to (N*Ho*Wo, kh*kw*C) it is the column matrix, with channels
    innermost so that the gather copies contiguous C-sized runs.
    """
    win = np.lib.stride_tricks.sliding_window_view(xc, (kh, kw), axis=(1, 2))
    return win[:, ::sh, ::sw].transpose(0, 1, 2, 4, 5, 3)


def _even_cuts(total, parts):
    """Cut ``range(total)`` into ``parts`` runs whose lengths differ by at
    most one, as (start, end) pairs."""
    return [(total * i // parts, total * (i + 1) // parts)
            for i in range(parts)]


def _conv_forward(xc, wmat, kh, kw, sh, sw, bias):
    """The NCHW forward product of padded NHWC ``xc`` with ``wmat``.

    The product is one im2col and one GEMM per band, and each band's
    column matrix and product together take at most ``COLUMN_BUDGET``
    bytes unless one output row alone takes more. When one image fits the
    budget, a band is a run of whole images; otherwise it is a run of
    output rows of one image. Runs are cut evenly, so no band is much
    smaller than the rest, and a convolution within the budget is a single
    band. Each band's product is written into the preallocated output.
    Banding changes no arithmetic, but a BLAS may take a different kernel
    for a small GEMM, so a budget far below this one can move low-order
    bits.
    """
    win = _windows(xc, kh, kw, sh, sw)
    n, ho, wo = win.shape[:3]
    k, cout = wmat.shape
    rows = max(1, COLUMN_BUDGET // (wo * (k + cout) * xc.itemsize))
    if rows >= ho:
        bands = [(slice(a, b), slice(None))
                 for a, b in _even_cuts(n, -(-n // (rows // ho)))]
    else:
        bands = [(slice(i, i + 1), slice(a, b)) for i in range(n)
                 for a, b in _even_cuts(ho, -(-ho // rows))]
    out = np.empty((n, cout, ho, wo), dtype=np.result_type(xc, wmat))
    for images, band in bands:
        cols = win[images, band]
        m, r = cols.shape[:2]
        y = cols.reshape(m * r * wo, k) @ wmat
        if bias is not None:
            y += bias
        out[images, :, band] = y.reshape(m, r, wo, cout).transpose(0, 3, 1, 2)
        del y  # before the next band's columns are built
    return out


def conv2d(x, w, stride=1, padding=0, bias=None):
    """Cross-correlation of x:(N,C,H,W) with w:(Cout,C,kh,kw).

    Internally channels-last; the kernel is reordered to a (kh*kw*C, Cout)
    matrix so forward is a column-matrix product. That product is one GEMM
    when the column matrix and the product fit ``COLUMN_BUDGET``; a larger
    one is done in bands of whole images or of one image's output rows,
    each within the budget (``_conv_forward``). ``bias`` is an optional
    per-channel constant array (Cout,), added to the channels-last product
    before the layout transpose; it gets no gradient (``layers.conv_bn``
    passes folded BatchNorm shifts here). The input gradient is built tap
    by tap with strided scatter-adds, and gradients into
    non-differentiable leaves (raw image batches) are skipped entirely.
    """
    sh, sw = (stride, stride) if np.isscalar(stride) else stride
    ph, pw = (padding, padding) if np.isscalar(padding) else padding
    n, c, h, wdt = x.data.shape
    cout, cin, kh, kw = w.data.shape
    if cin != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, kernel {cin}")
    ho = conv2d_shape(h, kh, sh, ph)
    wo = conv2d_shape(wdt, kw, sw, pw)

    xc = np.zeros((n, h + 2 * ph, wdt + 2 * pw, c), dtype=x.data.dtype)
    xc[:, ph:ph + h, pw:pw + wdt] = x.data.transpose(0, 2, 3, 1)  # NHWC
    wmat = np.ascontiguousarray(
        w.data.transpose(2, 3, 1, 0).reshape(kh * kw * c, cout))
    y = _conv_forward(xc, wmat, kh, kw, sh, sw, bias)

    def bwd(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)) \
            .reshape(n * ho * wo, cout)
        if _wants_grad(w):
            cols = _windows(xc, kh, kw, sh, sw).reshape(n * ho * wo, -1)
            dw = (cols.T @ gmat).reshape(kh, kw, c, cout)
            w._accumulate(np.ascontiguousarray(dw.transpose(3, 2, 0, 1)))
        if _wants_grad(x):
            dxp = np.zeros(xc.shape, dtype=g.dtype)
            taps = wmat.reshape(kh, kw, c, cout)
            for i in range(kh):
                for j in range(kw):
                    contrib = (gmat @ taps[i, j].T).reshape(n, ho, wo, c)
                    dxp[:, i:i + sh * ho:sh, j:j + sw * wo:sw, :] += contrib
            dx = dxp[:, ph:ph + h, pw:pw + wdt, :]
            x._accumulate(np.ascontiguousarray(dx.transpose(0, 3, 1, 2)))

    return _node(y, (x, w), bwd)


def batchnorm2d(x, gamma, beta, running_mean, running_var, training,
                momentum=0.1, eps=1e-5):
    """Per-channel normalization; batch statistics in training, running in eval.

    ``running_mean``/``running_var`` are plain arrays mutated in place during
    training (biased variance convention throughout). Eval forwards of the
    networks fold BatchNorm into the preceding convolution
    (``layers.conv_bn``), so the eval branch here is the reference that
    the fold is tested against, within float32 rounding.
    """
    xd = x.data
    if training:
        mu = xd.mean(axis=(0, 2, 3))
        var = xd.var(axis=(0, 2, 3))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu
        running_var *= (1.0 - momentum)
        running_var += momentum * var
    else:
        mu = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    y = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def bwd(g):
        gamma._accumulate((g * xhat).sum(axis=(0, 2, 3)))
        beta._accumulate(g.sum(axis=(0, 2, 3)))
        gi = gamma.data[None, :, None, None] * inv[None, :, None, None]
        if training:
            m = g.mean(axis=(0, 2, 3), keepdims=True)
            mx = (g * xhat).mean(axis=(0, 2, 3), keepdims=True)
            x._accumulate(gi * (g - m - xhat * mx))
        else:
            x._accumulate(gi * g)

    return _node(y.astype(xd.dtype, copy=False), (x, gamma, beta), bwd)


def maxpool2d(x, kernel):
    """Max over non-overlapping (kh, kw) windows (the stride is the kernel).

    The forward is an elementwise maximum over the kh*kw strided tap
    slices. Backward sends each window's gradient to the first tap, in
    row-major order, that equals the window's max: on ties the earliest
    tap wins, the rule of ``argmax`` over the flattened window.
    """
    kh, kw = (kernel, kernel) if np.isscalar(kernel) else kernel
    xd = x.data
    ho = conv2d_shape(xd.shape[2], kh, kh, 0)
    wo = conv2d_shape(xd.shape[3], kw, kw, 0)
    taps = [np.s_[:, :, i:i + kh * ho:kh, j:j + kw * wo:kw]
            for i in range(kh) for j in range(kw)]
    y = xd[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(y, xd[tap], out=y)

    def bwd(g):
        dx = np.zeros(xd.shape, dtype=g.dtype)
        pending = np.ones(y.shape, dtype=bool)  # windows not yet given g
        for tap in taps:
            hit = pending & (xd[tap] == y)
            dx[tap] = np.where(hit, g, 0)
            pending &= ~hit
        x._accumulate(dx)

    return _node(y, (x,), bwd)


def global_avgpool2d(x):
    n, c, h, w = x.data.shape

    def bwd(g):
        x._accumulate(np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape))

    return _node(x.data.mean(axis=(2, 3)), (x,), bwd)


def check_finite(arr, context=""):
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced{': ' + context if context else ''}")


def collect_gradients(loss, params):
    """Run backward from ``loss`` and return one gradient per parameter.

    The gradients are handed over: each parameter's ``.grad`` is cleared,
    so a training loop holds no gradient between its steps. Raises
    ``GraphError`` when no parameter gets a gradient: the forward recorded
    no graph (it ran in eval mode), so every gradient would be zero.
    """
    for p in params:
        p.zero_grad()
    loss.backward()
    if params and all(p.grad is None for p in params):
        raise GraphError("loss has no graph to any parameter; "
                         "was the forward run in eval mode?")
    grads = []
    for p in params:
        grads.append(np.zeros_like(p.data) if p.grad is None else p.grad)
        p.grad = None
    return grads
