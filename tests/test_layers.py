import numpy as np
import pytest

from mscope import tensor as T
from mscope.layers import (BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear,
                           Sequential)
from mscope.optim import binary_cross_entropy


def test_identity_kernel_conv_is_identity():
    conv = Conv2d(1, 1, 1, stride=1, padding=0)
    conv.weight.data = np.ones((1, 1, 1, 1), dtype=np.float32)
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((1, 1, 9, 7)).astype(np.float32))
    out = conv(x)
    np.testing.assert_array_equal(out.data, x.data)


def test_fullscale_stem_shape():
    # 7x7 stride-2 pad-3 stem on a full-scale CC image
    assert (T.conv2d_shape(2677, 7, 2, 3), T.conv2d_shape(1942, 7, 2, 3)) \
        == (1339, 971)
    stem = Conv2d(1, 16, 7, stride=2, padding=3)
    out = stem(T.Tensor(np.zeros((1, 1, 2677, 1942), dtype=np.float32)))
    assert out.shape == (1, 16, 1339, 971)


def test_global_avgpool_constant():
    c = 3.25
    x = T.Tensor(np.full((1, 256, 42, 31), c, dtype=np.float32))
    out = GlobalAvgPool2d()(x)
    assert out.shape == (1, 256)
    np.testing.assert_allclose(out.data, c, rtol=1e-6)


def test_batchnorm_train_vs_eval():
    bn = BatchNorm2d(2)
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((4, 2, 5, 5)).astype(np.float32) * 3 + 1)
    y_train = bn(x).data
    # batch statistics: normalized output has ~zero mean / unit variance
    np.testing.assert_allclose(y_train.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
    np.testing.assert_allclose(y_train.var(axis=(0, 2, 3)), 1.0, atol=1e-3)
    bn.eval()
    y1 = bn(x).data
    y2 = bn(x).data
    # eval mode uses running statistics and has no side effects
    np.testing.assert_array_equal(y1, y2)


def test_layer_forward_nan_detected():
    conv = Conv2d(1, 1, 1)
    conv.weight.data = np.ones((1, 1, 1, 1), dtype=np.float32)
    x = T.Tensor(np.array([[[[np.inf]]]], dtype=np.float32))
    with pytest.raises(T.NumericsError):
        conv(x)


def test_channel_mismatch_rejected():
    x = T.Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    w = T.Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError):
        T.conv2d(x, w)


def test_maxpool_values():
    x = T.Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
    mp = T.maxpool2d(x, (2, 2), 2)
    np.testing.assert_array_equal(mp.data[0, 0], [[5, 7], [13, 15]])


def test_state_dict_roundtrip():
    rng = np.random.default_rng(2)
    net = Sequential(Conv2d(1, 4, 3, padding=1, rng=rng), BatchNorm2d(4))
    x = T.Tensor(rng.standard_normal((2, 1, 6, 6)).astype(np.float32))
    net(x)  # populate running stats
    state = {k: v.copy() for k, v in net.state_dict().items()}
    net2 = Sequential(Conv2d(1, 4, 3, padding=1), BatchNorm2d(4))
    net2.load_state_dict(state)
    for (k1, v1), (k2, v2) in zip(sorted(net.state_dict().items()),
                                  sorted(net2.state_dict().items())):
        assert k1 == k2
        np.testing.assert_array_equal(v1, v2)


def test_load_state_shape_mismatch():
    net = Linear(3, 2)
    bad = {k: np.zeros((5, 5), dtype=np.float32) for k, _ in net.named_parameters()}
    with pytest.raises(ValueError):
        net.load_state_dict(bad)


def test_collect_gradients_rejects_eval_mode_loss():
    # an eval-mode forward records no graph; training on it would get
    # all-zero gradients
    lin = Linear(3, 2).eval()
    x = T.Tensor(np.ones((4, 3), dtype=np.float32))
    loss = binary_cross_entropy(T.sigmoid(lin(x)), np.ones((4, 2)))
    with pytest.raises(T.GraphError):
        T.collect_gradients(loss, lin.parameters())
