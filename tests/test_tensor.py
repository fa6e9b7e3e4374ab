import tracemalloc
import weakref

import numpy as np
import pytest

from mscope import tensor as T
from mscope.layers import Parameter
from mscope.optim import weighted_batch_cross_entropy

from gradcheck import numerical_gradients, max_relative_error


def _composite_net(seed):
    """conv -> batchnorm -> relu -> maxpool -> flatten -> linear, float64."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, 8, 8))
    conv_w = Parameter(rng.standard_normal((3, 2, 3, 3)) * 0.5)
    gamma = Parameter(rng.uniform(0.5, 1.5, 3))
    beta = Parameter(rng.standard_normal(3) * 0.1)
    lin_w = Parameter(rng.standard_normal((4, 48)) * 0.3)
    lin_b = Parameter(rng.standard_normal(4) * 0.1)
    rmean = np.zeros(3)
    rvar = np.ones(3)
    labels = rng.integers(0, 4, size=2)
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    params = [conv_w, gamma, beta, lin_w, lin_b]

    def loss_fn():
        h = T.conv2d(Tx(), conv_w, stride=1, padding=1)
        h = T.batchnorm2d(h, gamma, beta, rmean.copy(), rvar.copy(), training=True)
        h = T.relu(h)
        h = T.maxpool2d(h, 2)
        h = T.reshape(h, (2, -1))
        logits = T.linear(h, lin_w, lin_b)
        return weighted_batch_cross_entropy(logits, labels, weights)

    def Tx():
        return T.Tensor(x)

    return loss_fn, params


@pytest.mark.parametrize("seed", [11, 23, 37, 51, 68])
def test_gradients_match_finite_differences(seed):
    loss_fn, params = _composite_net(seed)
    loss = loss_fn()
    analytic = T.collect_gradients(loss, params)
    numeric = numerical_gradients(loss_fn, params, h=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_linear_grad_is_broadcast_input():
    x = np.array([1.0, 2.0, 3.0])
    w = Parameter(np.zeros((2, 3)))
    out = T.sum_all(T.linear(T.Tensor(x), w))
    out.backward()
    np.testing.assert_allclose(w.grad, np.tile(x, (2, 1)))


def test_relu_blocks_gradient_at_negative_preactivation():
    x = Parameter(np.array([-1.5, 0.5]))
    out = T.sum_all(T.relu(x))
    out.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_backward_requires_scalar():
    x = Parameter(np.ones(3))
    y = T.relu(x)
    with pytest.raises(T.GraphError):
        y.backward()


def test_backward_twice_rejected():
    x = Parameter(np.ones(3))
    loss = T.sum_all(T.relu(x))
    loss.backward()
    with pytest.raises(T.GraphError):
        loss.backward()


def test_second_forward_allows_second_backward():
    x = Parameter(np.ones(3))
    T.sum_all(x).backward()
    x.zero_grad()
    T.sum_all(x).backward()
    np.testing.assert_allclose(x.grad, np.ones(3))


def test_second_loss_through_consumed_subgraph_rejected():
    w = Parameter(np.ones(3))
    shared = T.relu(T.mul(w, 2.0))
    T.sum_all(shared).backward()
    with pytest.raises(T.GraphError):
        T.sum_all(T.mul(shared, 3.0)).backward()


def test_backward_frees_the_graph():
    """After the sweep, interior nodes hold no closure, inputs or gradient,
    and activations held only by the graph are freed; the gradients are
    handed over to the caller."""
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.standard_normal((2, 2, 8, 8)).astype(np.float32))
    w = Parameter(rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
    gamma = Parameter(np.ones(3, dtype=np.float32))
    beta = Parameter(np.zeros(3, dtype=np.float32))
    conv = T.conv2d(x, w, padding=1)
    conv_out = weakref.ref(conv.data)
    h = T.relu(T.batchnorm2d(conv, gamma, beta, np.zeros(3), np.ones(3),
                             training=True))
    del conv
    loss = T.sum_all(h)
    grads = T.collect_gradients(loss, [w, gamma, beta])
    assert conv_out() is None
    for node in (loss, h):
        assert node.grad is None and node._parents == ()
        with pytest.raises(T.GraphError):
            node._backward(np.ones_like(node.data))
    assert x.grad is None
    assert all(g.shape == p.shape and p.grad is None
               for p, g in zip([w, gamma, beta], grads))


def _conv_reference(x, w, stride, padding, bias=None):
    """Forward convolution as one whole column matrix and one GEMM."""
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xc = np.pad(x.transpose(0, 2, 3, 1),
                ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xc, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    ho, wo = win.shape[1:3]
    y = win.reshape(n * ho * wo, -1) @ \
        w.transpose(2, 3, 1, 0).reshape(kh * kw * c, cout)
    if bias is not None:
        y += bias
    return np.ascontiguousarray(y.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2))


@pytest.mark.parametrize("xshape, wshape, stride, padding", [
    ((4, 3, 144, 96), (16, 3, 7, 7), 2, 3),     # stem: one image a band
    ((1, 3, 448, 324), (16, 3, 7, 7), 2, 3),    # one image, six row bands
    ((4, 16, 64, 48), (16, 16, 3, 3), 1, 1),
    ((8, 32, 64, 48), (64, 32, 3, 3), 2, 1),    # strided, uneven image runs
    ((8, 64, 64, 48), (128, 64, 1, 1), 1, 0),   # 1x1, product wider than columns
    ((70, 8, 24, 24), (16, 8, 3, 3), 1, 1),     # 17-18 images a band
    # 33-row bands over all 7*184 rows would leave a last band of one row
    ((7, 3, 184, 192), (16, 3, 7, 7), 1, 3),
])
def test_banded_conv_equals_whole_matrix(xshape, wshape, stride, padding):
    rng = np.random.default_rng(sum(xshape))
    x = rng.standard_normal(xshape).astype(np.float32)
    w = rng.standard_normal(wshape).astype(np.float32)
    bias = rng.standard_normal(wshape[0]).astype(np.float32)
    out = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=padding,
                   bias=bias).data
    ref = _conv_reference(x, w, stride, padding, bias)
    _, cout, ho, wo = ref.shape
    k = wshape[1] * wshape[2] * wshape[3]
    assert out.shape[0] * ho * wo * (k + cout) * 4 > T.COLUMN_BUDGET  # banded
    assert np.array_equal(out, ref)
    assert np.array_equal(
        T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=padding).data,
        _conv_reference(x, w, stride, padding))


@pytest.mark.parametrize("n, h, w", [(1, 128, 96), (2, 256, 192), (4, 384, 288)])
def test_conv_forward_peak_bounded(n, h, w):
    """Beyond its padded input and its output, one forward takes at most
    COLUMN_BUDGET bytes, however large N*H*W grows."""
    rng = np.random.default_rng(n)
    x = T.Tensor(rng.standard_normal((n, 3, h, w)).astype(np.float32))
    wt = T.Tensor(rng.standard_normal((16, 3, 7, 7)).astype(np.float32))
    padded = n * (h + 6) * (w + 6) * 3 * 4
    tracemalloc.start()
    try:
        out = T.conv2d(x, wt, stride=2, padding=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= T.COLUMN_BUDGET + out.data.nbytes + padded + (64 << 10)


def test_forward_deterministic_single_thread():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 12, 10)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)

    def run():
        h = T.conv2d(T.Tensor(x), T.Tensor(w), stride=2, padding=1)
        h = T.relu(h)
        return T.global_avgpool2d(h).data

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_conv_shape_rule_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = int(rng.integers(5, 40))
        w = int(rng.integers(5, 40))
        k = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        if (h + 2 * p - k) < 0 or (w + 2 * p - k) < 0:
            continue
        x = T.Tensor(rng.standard_normal((1, 2, h, w)).astype(np.float32))
        wt = T.Tensor(rng.standard_normal((3, 2, k, k)).astype(np.float32))
        out = T.conv2d(x, wt, stride=s, padding=p)
        assert out.shape == (1, 3, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)


def test_nonpositive_conv_extent_rejected():
    x = T.Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    w = T.Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
    with pytest.raises(ValueError):
        T.conv2d(x, w)


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.standard_normal((40, 7)).astype(np.float32) * 20)
    y = T.softmax(x, axis=1).data
    assert (y >= 0).all() and (y <= 1).all()
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-6)


def test_concat_backward_splits():
    a = Parameter(np.ones((2, 3)))
    b = Parameter(np.ones((2, 5)))
    out = T.concat([a, b], axis=1)
    T.sum_all(T.mul(out, 2.0)).backward()
    np.testing.assert_allclose(a.grad, 2 * np.ones((2, 3)))
    np.testing.assert_allclose(b.grad, 2 * np.ones((2, 5)))


def test_check_finite_raises():
    with pytest.raises(T.NumericsError):
        T.check_finite(np.array([1.0, np.nan]))
    with pytest.raises(T.NumericsError):
        T.check_finite(np.array([np.inf]))
