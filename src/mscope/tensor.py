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

Gradients are never written in place. A node keeps the first gradient
it is handed as its ``.grad``, with no copy, and adds later ones into a
new array; a backward closure, and ``optim.adam_step``, only read the
gradient they are handed. So one array may serve as several gradients
at once: ``add`` hands the same ``g`` to both of its inputs, ``concat``
hands views of it.

The elementwise ops are only those the networks run: ``add`` sums two
tensors of one shape (two heads' probabilities) and ``mul`` scales a
tensor by a Python number (their mean); neither broadcasts. Tests that
need a scalar loss over a tensor-valued op build it with ``weighted_sum``
in ``tests/gradcheck.py``.

``conv_bn`` is the one train-mode convolution node. It keeps two arrays
of its output's size, the output and BatchNorm's ``xhat``, and its
backward pads the input again. ``conv2d`` is the eval convolution, which
records no graph.

Arrays keep one layout from the view loader (``training``) to a net's
global pool: activations are (N, H, W, C) and kernels (kh, kw, Cin, Cout),
so a kernel's GEMM matrix is a free reshape and a convolution moves no
data but its column matrix.

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

# BatchNorm: the share of each batch statistic in the running statistic,
# and the constant added to the variance
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
# the side and the stride of a max-pool window
POOL = 2


class GraphError(RuntimeError):
    """Raised on misuse of the computation graph (re-backward, non-scalar
    loss, a loss that reaches no parameter, a gradient through eval mode)."""


class NumericsError(ArithmeticError):
    """Raised when a forward or backward pass produces non-finite values."""


def _as_array(x):
    arr = np.asarray(x)
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

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.asarray(g)
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
                raise GraphError("graph already consumed; "
                                 "re-run the forward pass")
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


def _consumed(g):
    """The closure a node keeps once ``backward`` has consumed it."""
    raise GraphError("graph already consumed; re-run the forward pass")


def _wants_grad(t):
    return t.requires_grad or t._backward is not None


def _node(data, parents, bwd):
    """An op's output: records ``parents`` and the closure ``bwd`` only
    when some parent wants a gradient, else a leaf that drops both."""
    if any(_wants_grad(p) for p in parents):
        return Tensor(data, _parents=parents, _backward=bwd)
    return Tensor(data)


def add(a, b):
    """Sum of two tensors of one shape."""
    def bwd(g):
        a._accumulate(g)
        b._accumulate(g)

    return _node(a.data + b.data, (a, b), bwd)


def mul(a, c):
    """``a`` scaled by the number ``c``."""
    def bwd(g):
        a._accumulate(g * c)

    return _node(a.data * c, (a,), bwd)


def concat(tensors):
    """Concatenation of (N, F_i) tensors along the feature axis."""
    datas = [t.data for t in tensors]
    splits = np.cumsum([d.shape[1] for d in datas])[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=1)):
            t._accumulate(piece)

    return _node(np.concatenate(datas, axis=1), tuple(tensors), bwd)


def relu(x):
    def bwd(g):
        x._accumulate(g * (x.data > 0))

    return _node(np.maximum(x.data, 0), (x,), bwd)


def sigmoid(x):
    y = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        x._accumulate(g * y * (1.0 - y))

    return _node(y, (x,), bwd)


def softmax(x):
    """Row-wise softmax of (N, K) logits."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        x._accumulate((g - dot) * y)

    return _node(y, (x,), bwd)


def linear(x, w, b):
    """x: (N, F); w: (O, F); b: (O,)."""
    y = x.data @ w.data.T + b.data

    def bwd(g):
        w._accumulate(g.T @ x.data)
        b._accumulate(g.sum(axis=0))
        x._accumulate(g @ w.data)

    return _node(y, (x, w, b), bwd)


# -- spatial ops; activations are (N, H, W, C), kernels (kh, kw, Cin, Cout) --

def conv2d_shape(extent, kernel, stride, padding):
    out = (extent + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"conv2d output extent {out} not positive "
            f"(in={extent}, k={kernel}, s={stride}, p={padding})")
    return out


def _windows(xc, kh, kw, s):
    """The (N, Ho, Wo, kh, kw, C) window view of a padded NHWC array.

    Reshaped to (N*Ho*Wo, kh*kw*C) it is the column matrix, with channels
    innermost so that the gather copies contiguous C-sized runs.
    """
    win = np.lib.stride_tricks.sliding_window_view(xc, (kh, kw), axis=(1, 2))
    return win[:, ::s, ::s].transpose(0, 1, 2, 4, 5, 3)


def _even_cuts(total, parts):
    """Cut ``range(total)`` into ``parts`` runs whose lengths differ by at
    most one, as (start, end) pairs."""
    return [(total * i // parts, total * (i + 1) // parts)
            for i in range(parts)]


def _conv_bands(n, ho, wo, k, cout, itemsize):
    """A convolution forward's bands as (images, output rows) slices.

    Each band's column matrix and product take at most ``COLUMN_BUDGET``
    bytes unless one output row alone takes more. A band is a run of whole
    images when one image fits the budget, else a run of one image's rows;
    runs are cut evenly, so no band is much smaller than the rest.
    """
    rows = max(1, COLUMN_BUDGET // (wo * (k + cout) * itemsize))
    if rows >= ho:
        return [(slice(a, b), slice(None))
                for a, b in _even_cuts(n, -(-n // (rows // ho)))]
    return [(slice(i, i + 1), slice(a, b)) for i in range(n)
            for a, b in _even_cuts(ho, -(-ho // rows))]


def _padded(xd, p):
    """``xd`` with ``p`` zeros around both spatial axes (itself at 0)."""
    return np.pad(xd, ((0, 0), (p, p), (p, p), (0, 0))) if p else xd


def _conv_forward(xd, wd, s, p, bias, residual, relu):
    """``xd`` convolved by ``wd``: per band, one im2col, one GEMM written
    straight into the output and ``conv2d``'s epilogue in place. Banding
    changes no arithmetic, but a BLAS may take another kernel for a small
    GEMM, so a budget far below this one can move low-order bits."""
    n, h, wdt, c = xd.shape
    kh, kw, cin, cout = wd.shape
    if cin != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, kernel {cin}")
    ho, wo = conv2d_shape(h, kh, s, p), conv2d_shape(wdt, kw, s, p)
    xc = _padded(xd, p)
    win = _windows(xc, kh, kw, s)
    k = kh * kw * c
    wmat = wd.reshape(k, cout)
    out = np.empty((n, ho, wo, cout), dtype=np.result_type(xc, wmat))
    for images, band in _conv_bands(n, ho, wo, k, cout, xc.itemsize):
        cols = win[images, band]
        m, r = cols.shape[:2]
        y = out[images, band].reshape(m * r * wo, cout)  # a view of out
        np.matmul(cols.reshape(m * r * wo, k), wmat, out=y)
        if bias is not None:
            y += bias
            check_finite(y, "conv_bn")
        if residual is not None:
            y += residual[images, band].reshape(y.shape)
        if relu:
            np.maximum(y, 0, out=y)
    return out


def _conv_backward(g, x, w, xc, s, p):
    """Hands ``w`` and ``x`` their gradients from the output gradient
    ``g``, ``xc`` being ``x`` padded by ``p``; the input's is built tap by
    tap with strided scatter-adds, and skipped for raw image batches."""
    n, ho, wo, cout = g.shape
    h, wdt = x.data.shape[1:3]
    kh, kw, c, _ = w.data.shape
    gmat = g.reshape(n * ho * wo, cout)
    if _wants_grad(w):
        cols = _windows(xc, kh, kw, s).reshape(n * ho * wo, -1)
        w._accumulate((cols.T @ gmat).reshape(kh, kw, c, cout))
    if _wants_grad(x):
        dxp = np.zeros(xc.shape, dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                contrib = (gmat @ w.data[i, j].T).reshape(n, ho, wo, c)
                dxp[:, i:i + s * ho:s, j:j + s * wo:s] += contrib
        x._accumulate(dxp[:, p:p + h, p:p + wdt])


def conv2d(x, w, stride, padding, bias, residual, relu):
    """The eval convolution of x:(N,H,W,Cin) by w:(kh,kw,Cin,Cout), giving
    (N,Ho,Wo,Cout): the column matrix times ``w`` reshaped to (kh*kw*Cin,
    Cout), in bands within ``COLUMN_BUDGET`` (``_conv_bands``). ``bias``
    (Cout,), ``residual`` (an (N,Ho,Wo,Cout) Tensor or None) and ``relu``
    are the epilogue of an eval-mode ``layers.conv_bn``: each band, after
    its GEMM, gets in place the bias, a finiteness check naming
    ``conv_bn``, the residual add and the ReLU. It records no graph, so an
    ``x``, ``w`` or ``residual`` that wants a gradient raises
    ``GraphError``.
    """
    if any(_wants_grad(t) for t in (x, w, residual) if t is not None):
        raise GraphError("conv2d is the eval convolution and records no "
                         "graph; a train-mode convolution runs in conv_bn")
    return Tensor(_conv_forward(
        x.data, w.data, stride, padding, bias,
        None if residual is None else residual.data, relu))


def _bn_train(x, gamma, beta, running_mean, running_var):
    """BatchNorm's train forward of the array ``x``, channels last, which
    moves the running statistics (plain arrays, biased variance) in place:
    its output, and the backward that hands ``gamma`` and ``beta`` their
    gradients and returns the input's. That backward keeps ``xhat`` and
    overwrites it, with one scratch buffer: the graph is single-use. Every
    per-channel sum is a ones-vector GEMV over the (N*H*W, C) view."""
    xd = x.reshape(-1, x.shape[-1])
    m = xd.shape[0]
    ones = np.ones(m, dtype=xd.dtype)
    mu = ones @ xd / m
    d = xd - mu
    var = ones @ (d * d) / m
    running_mean *= (1.0 - BN_MOMENTUM)
    running_mean += BN_MOMENTUM * mu
    running_var *= (1.0 - BN_MOMENTUM)
    running_var += BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = np.multiply(d, inv, out=d)
    y = gamma.data * xhat
    y += beta.data

    def bwd(g):
        gd = g.reshape(xhat.shape)
        ones = np.ones(m, dtype=xhat.dtype)     # rebuilt, not kept
        buf = gd * xhat
        sum_g, sum_gx = ones @ gd, ones @ buf
        gamma._accumulate(sum_gx)
        beta._accumulate(sum_g)
        np.subtract(gd, sum_g / m, out=buf)
        buf -= np.multiply(xhat, sum_gx / m, out=xhat)
        buf *= gamma.data * inv
        return buf.reshape(g.shape)

    return y.astype(xd.dtype, copy=False).reshape(x.shape), bwd


def conv_bn(x, w, stride, padding, gamma, beta, running_mean, running_var,
            residual, relu):
    """Train-mode ``layers.conv_bn``, one node: the convolution of
    ``conv2d``, BatchNorm by the batch statistics (``_bn_train``), then,
    in place, a finiteness check (a non-finite convolution output makes
    its channel's statistics so), the residual add (a Tensor or None) and
    the ReLU. Backward takes the ReLU mask from the output, as
    ``relu(z) > 0`` exactly where ``z > 0``."""
    y, bn_bwd = _bn_train(
        _conv_forward(x.data, w.data, stride, padding, None, None, False),
        gamma, beta, running_mean, running_var)
    check_finite(y, "conv_bn")
    if residual is not None:
        y += residual.data
    if relu:
        np.maximum(y, 0, out=y)

    def bwd(g):
        if relu:
            g = g * (y > 0)
        if residual is not None:
            residual._accumulate(g)
        _conv_backward(bn_bwd(g), x, w, _padded(x.data, padding), stride,
                       padding)

    parents = (x, w, gamma, beta) + (() if residual is None else (residual,))
    return _node(y, parents, bwd)


def maxpool2d(x):
    """Max over non-overlapping (``POOL``, ``POOL``) windows.

    The forward is an elementwise maximum over the ``POOL**2`` strided tap
    slices. Backward sends each window's gradient to the first tap, in
    row-major order, that equals the window's max: on ties the earliest
    tap wins, the rule of ``argmax`` over the flattened window.
    """
    xd, k = x.data, POOL
    ho = conv2d_shape(xd.shape[1], k, k, 0)
    wo = conv2d_shape(xd.shape[2], k, k, 0)
    taps = [np.s_[:, i:i + k * ho:k, j:j + k * wo:k]
            for i in range(k) for j in range(k)]
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
    n, h, w, c = x.data.shape

    def bwd(g):
        x._accumulate(np.broadcast_to(g[:, None, None, :] / (h * w), x.data.shape))

    return _node(x.data.mean(axis=(1, 2)), (x,), bwd)


def check_finite(arr, context):
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced: {context}")


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
