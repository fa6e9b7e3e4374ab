import numpy as np
import pytest

from mscope import tensor as T
from mscope.layers import Parameter
from mscope.optim import (AdamState, adam_step, binary_cross_entropy,
                          weighted_batch_cross_entropy)


def test_adam_zero_grads_no_decay_leaves_params():
    p = Parameter(np.array([1.0, -2.0], dtype=np.float32))
    state = AdamState(lr=0.1, weight_decay=0.0)
    adam_step([p], [np.zeros(2, dtype=np.float32)], state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_hand_trace():
    # p=1, g=1, lr=0.1: bias-corrected first step moves by lr/(1+eps)
    p = Parameter(np.array([1.0]))
    state = AdamState(lr=0.1, weight_decay=0.0)
    adam_step([p], [np.array([1.0])], state)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(p.data, [expected], atol=1e-7)


def test_adam_pure_weight_decay_shrinks_toward_zero():
    decay = 10 ** -4.5
    p = Parameter(np.array([2.0, -3.0, 0.5]))
    before = p.data.copy()
    state = AdamState(lr=1e-3, weight_decay=decay)
    adam_step([p], [np.zeros(3)], state)
    step = p.data - before
    assert (np.sign(step) == -np.sign(before)).all()


def test_adam_counts_steps():
    p = Parameter(np.zeros(2))
    state = AdamState(lr=0.01, weight_decay=0.0)
    for expected_t in range(1, 6):
        adam_step([p], [np.ones(2)], state)
        assert state.t == expected_t


def test_adam_rejects_shape_mismatch():
    p = Parameter(np.zeros(2))
    with pytest.raises(ValueError):
        adam_step([p], [np.zeros(3)], AdamState(lr=1e-5, weight_decay=0.0))


def test_adam_rejects_nonfinite_grads():
    p = Parameter(np.zeros(2))
    with pytest.raises(T.NumericsError):
        adam_step([p], [np.array([np.nan, 0.0])],
                  AdamState(lr=1e-5, weight_decay=0.0))


def test_weighted_ce_uniform_logits():
    logits = T.Tensor(np.zeros((1, 4), dtype=np.float32))
    loss = weighted_batch_cross_entropy(logits, [2], [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=1e-6)


def test_weighted_ce_scales_by_label_weight():
    counts = np.array([20.0, 35.0, 5000.0, 4945.0])
    w = (1.0 / counts) / (1.0 / counts).sum()
    rng = np.random.default_rng(0)
    raw = rng.standard_normal(4).astype(np.float32)
    logits = T.Tensor(raw[None])
    loss = weighted_batch_cross_entropy(logits, [0], w)
    shifted = raw - raw.max()
    logp = shifted[0] - np.log(np.exp(shifted).sum())
    np.testing.assert_allclose(float(loss.data), -w[0] * logp, rtol=1e-5)
    np.testing.assert_allclose(w[0], 0.63312, atol=1e-5)


def test_weighted_ce_zero_weight_zero_loss_and_grad():
    logits = Parameter(np.array([[0.3, -0.2, 1.0]], dtype=np.float32))
    loss = weighted_batch_cross_entropy(logits, [1], [1.0, 0.0, 1.0])
    assert float(loss.data) == 0.0
    loss.backward()
    np.testing.assert_allclose(logits.grad, 0.0, atol=1e-8)


def test_weighted_ce_label_out_of_range():
    logits = T.Tensor(np.zeros((1, 4), dtype=np.float32))
    with pytest.raises(IndexError):
        weighted_batch_cross_entropy(logits, [4], np.ones(4))


def test_weighted_ce_gradient_flows_only_through_logits():
    logits = Parameter(np.array([[0.1, 0.9, -0.4, 0.2]], dtype=np.float32))
    loss = weighted_batch_cross_entropy(logits, [1], [0.1, 0.5, 0.2, 0.2])
    loss.backward()
    # gradient of -w*log softmax: w * (softmax - onehot)
    e = np.exp(logits.data - logits.data.max())
    p = e / e.sum()
    expected = 0.5 * (p - np.eye(4)[1:2])
    np.testing.assert_allclose(logits.grad, expected, atol=1e-6)


def test_bce_matches_closed_form():
    p = Parameter(np.array([0.2, 0.9], dtype=np.float32))
    y = np.array([0.0, 1.0])
    loss = binary_cross_entropy(p, y)
    expected = -(np.log(0.8) + np.log(0.9)) / 2
    np.testing.assert_allclose(float(loss.data), expected, rtol=1e-5)
    loss.backward()
    np.testing.assert_allclose(
        p.grad, [(0.2 - 0.0) / (0.2 * 0.8) / 2, (0.9 - 1.0) / (0.9 * 0.1) / 2],
        rtol=1e-4)
