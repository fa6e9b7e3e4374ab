import hashlib

import numpy as np
import pytest

from mscope import layers, multiview, patches
from mscope import tensor as T
from mscope.layers import BatchNorm2d, Conv2d, Linear, StateDictError
from mscope.multiview import FUSION_VARIANTS, VIEW_ORDER, MultiViewNet
from mscope.optim import (binary_cross_entropy, nll_on_probs,
                          weighted_batch_cross_entropy)
from mscope.patches import PatchNet

from gradcheck import weighted_sum


def test_identity_kernel_conv_is_identity():
    conv = Conv2d(1, 1, 1, stride=1, padding=0,
                  rng=np.random.default_rng(0)).eval()
    conv.weight.data = np.ones((1, 1, 1, 1), dtype=np.float32)
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((1, 9, 7, 1)).astype(np.float32))
    out = T.conv2d(x, conv.weight, conv.stride, conv.padding, None, None,
                   False)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_weight_is_the_oihw_draw_transposed():
    """The weight is stored (kh, kw, Cin, Cout) but drawn in (Cout, Cin,
    kh, kw) order, so a seed gives the same initial values in either
    layout."""
    w = Conv2d(3, 5, 3, stride=1, rng=np.random.default_rng(4)).weight.data
    drawn = (np.random.default_rng(4).standard_normal((5, 3, 3, 3))
             * np.sqrt(2.0 / 27)).astype(np.float32)
    assert w.flags.c_contiguous
    np.testing.assert_array_equal(w, drawn.transpose(2, 3, 1, 0))


def test_fullscale_stem_shape():
    # 7x7 stride-2 pad-3 stem on a full-scale CC image
    assert (T.conv2d_shape(2677, 7, 2, 3), T.conv2d_shape(1942, 7, 2, 3)) \
        == (1339, 971)
    stem = Conv2d(1, 16, 7, stride=2, padding=3,
                  rng=np.random.default_rng(0)).eval()
    out = T.conv2d(T.Tensor(np.zeros((1, 2677, 1942, 1), dtype=np.float32)),
                   stem.weight, stem.stride, stem.padding, None, None, False)
    assert out.shape == (1, 1339, 971, 16)


def test_global_avgpool_constant():
    c = 3.25
    x = T.Tensor(np.full((1, 42, 31, 256), c, dtype=np.float32))
    out = T.global_avgpool2d(x)
    assert out.shape == (1, 256)
    np.testing.assert_allclose(out.data, c, rtol=1e-6)


def test_batchnorm_train_vs_eval():
    bn = BatchNorm2d(2)
    # an identity convolution, so that conv_bn is BatchNorm alone
    conv = Conv2d(2, 2, 1, stride=1, rng=np.random.default_rng(0))
    conv.weight.data = np.eye(2, dtype=np.float32).reshape(1, 1, 2, 2)
    rng = np.random.default_rng(1)
    xd = rng.standard_normal((4, 5, 5, 2)).astype(np.float32) * 3 + 1
    x = T.Tensor(xd)
    y_train = layers.conv_bn(conv, bn, x).data
    # batch statistics: normalized output has ~zero mean / unit variance
    np.testing.assert_allclose(y_train.mean(axis=(0, 1, 2)), 0.0, atol=1e-5)
    np.testing.assert_allclose(y_train.var(axis=(0, 1, 2)), 1.0, atol=1e-3)
    # and they move the running statistics by BN_MOMENTUM
    mean, var = xd.mean(axis=(0, 1, 2)), xd.var(axis=(0, 1, 2))
    np.testing.assert_allclose(bn.running_mean, T.BN_MOMENTUM * mean,
                               rtol=1e-5)
    np.testing.assert_allclose(bn.running_var, 1 - T.BN_MOMENTUM * (1 - var),
                               rtol=1e-5)
    # eval mode, folded into the identity convolution by conv_bn, uses the
    # running statistics and has no side effects
    bn.eval()
    running = bn.running_mean.copy(), bn.running_var.copy()
    y1 = layers.conv_bn(conv, bn, x).data
    y2 = layers.conv_bn(conv, bn, x).data
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(bn.running_mean, running[0])
    np.testing.assert_array_equal(bn.running_var, running[1])
    np.testing.assert_allclose(
        y1, (xd - running[0]) / np.sqrt(running[1] + T.BN_EPS), rtol=1e-5,
        atol=1e-6)


def test_layer_forward_nan_detected():
    conv = Conv2d(1, 1, 1, stride=1, rng=np.random.default_rng(0))
    conv.weight.data = np.ones((1, 1, 1, 1), dtype=np.float32)
    x = T.Tensor(np.array([[[[np.inf]]]], dtype=np.float32))
    with pytest.raises(T.NumericsError):
        layers.conv_bn(conv, BatchNorm2d(1).eval(), x)


@pytest.mark.parametrize("layer", [
    Conv2d(1, 1, 1, stride=1, rng=np.random.default_rng(0)), BatchNorm2d(1)],
    ids=["Conv2d", "BatchNorm2d"])
def test_a_parameter_layer_has_no_forward(layer):
    """``Conv2d`` and ``BatchNorm2d`` only hold parameters and statistics;
    calling one raises, naming ``conv_bn``, which runs them."""
    with pytest.raises(NotImplementedError, match="conv_bn"):
        layer(T.Tensor(np.zeros((1, 2, 2, 1), dtype=np.float32)))


@pytest.mark.parametrize("wants", ["input", "residual"])
def test_gradient_through_eval_conv_bn_is_refused(wants):
    """An eval-mode ``conv_bn`` records no graph: an input or a residual
    that wants a gradient raises, where a gradient through the folded
    convolution would skip its in-place ReLU, or not reach the residual."""
    rng = np.random.default_rng(3)
    conv = Conv2d(2, 3, 3, stride=1, padding=1, rng=rng)
    bn = BatchNorm2d(3)
    for m in (conv, bn):
        for p in m.parameters():
            p.data = p.data.astype(np.float64)
        m.eval()
    x = T.Tensor(rng.standard_normal((2, 6, 6, 2)),
                 requires_grad=wants == "input")
    res = T.Tensor(rng.standard_normal((2, 6, 6, 3)),
                   requires_grad=wants == "residual")
    with pytest.raises(T.GraphError):
        weighted_sum(layers.conv_bn(conv, bn, x, relu=True, residual=res),
                     1.0).backward()


def test_channel_mismatch_rejected():
    x = T.Tensor(np.zeros((1, 4, 4, 2), dtype=np.float32))
    w = T.Tensor(np.zeros((1, 1, 3, 1), dtype=np.float32))
    with pytest.raises(ValueError):
        T.conv2d(x, w, 1, 0, None, None, False)


def test_maxpool_values():
    x = T.Tensor(np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1))
    mp = T.maxpool2d(x)
    np.testing.assert_array_equal(mp.data[0, :, :, 0], [[5, 7], [13, 15]])


def _argmax_maxpool(xd, g, k):
    """The argmax + ``np.add.at`` max-pool of NCHW ``xd``: outputs and
    input gradient."""
    n, c, h, w = xd.shape
    ho, wo = h // k, w // k
    win = np.lib.stride_tricks.sliding_window_view(xd, (k, k), axis=(2, 3))
    win = win[:, :, ::k, ::k].reshape(n, c, ho, wo, k * k)
    idx = win.argmax(axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    dx = np.zeros(xd.shape, dtype=g.dtype)
    oy, ox = np.meshgrid(np.arange(ho) * k, np.arange(wo) * k, indexing="ij")
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(dx, (ni, ci, oy[None, None] + idx // k,
                   ox[None, None] + idx % k), g)
    return y, dx


@pytest.mark.parametrize("k,shape", [(2, (2, 3, 8, 6)), (2, (1, 2, 7, 9)),
                                     (3, (2, 1, 9, 7))])
def test_maxpool_matches_argmax_rule_on_ties(k, shape, monkeypatch):
    # few distinct values, so most windows hold tied maxima
    monkeypatch.setattr(T, "POOL", k)
    rng = np.random.default_rng(k + shape[2])
    xd = rng.integers(-2, 3, size=shape).astype(np.float32)
    x = T.Tensor(xd.transpose(0, 2, 3, 1), requires_grad=True)
    out = T.maxpool2d(x)
    g = rng.standard_normal(out.shape).astype(np.float32)
    weighted_sum(out, g).backward()
    y_ref, dx_ref = _argmax_maxpool(xd, g.transpose(0, 3, 1, 2), k)
    np.testing.assert_array_equal(out.data.transpose(0, 3, 1, 2), y_ref)
    np.testing.assert_array_equal(x.grad.transpose(0, 3, 1, 2), dx_ref)


def _moved_batchnorm(net, run_train_forward, rng):
    """Give every BatchNorm non-trivial gamma/beta and running statistics
    moved by train-mode forwards, then switch the net to eval mode."""
    for _, m in net.named_modules():
        if isinstance(m, BatchNorm2d):
            m.gamma.data = rng.uniform(0.5, 1.5, m.gamma.shape).astype(np.float32)
            m.beta.data = (rng.standard_normal(m.beta.shape) * 0.2) \
                .astype(np.float32)
    net.train()
    for _ in range(3):
        run_train_forward()
    return net.eval()


def _eval_conv_bn64(conv, bn, x, relu=False, residual=None):
    """Eval-mode ``conv_bn`` in float64 numpy: the convolution, then
    BatchNorm's affine map by the running statistics, then the residual
    add and the ReLU."""
    y = T.conv2d(T.Tensor(x.data.astype(np.float64)),
                 T.Tensor(conv.weight.data.astype(np.float64)),
                 conv.stride, conv.padding, None, None, False).data
    var = bn.running_var.astype(np.float64)
    y = (y - bn.running_mean) / np.sqrt(var + T.BN_EPS) * bn.gamma.data \
        + bn.beta.data
    if residual is not None:
        y = y + residual.data
    return T.Tensor(np.maximum(y, 0) if relu else y)


def _unfused(monkeypatch, *modules):
    """Make ``conv_bn`` run ``_eval_conv_bn64``: the reference that the
    folded forward is compared against."""
    for mod in modules:
        monkeypatch.setattr(mod, "conv_bn", _eval_conv_bn64)


def test_folded_eval_matches_batchnorm_patchnet(monkeypatch):
    rng = np.random.default_rng(4)
    net = PatchNet(patch_size=32, seed=3)
    batch = rng.uniform(0, 1, (12, 32, 32)).astype(np.float32)
    _moved_batchnorm(net, lambda: net(T.Tensor(
        rng.uniform(0, 1, (8, 32, 32, 1)).astype(np.float32) * 2)), rng)
    folded = net.predict_proba(batch)
    _unfused(monkeypatch, patches)
    reference = net.predict_proba(batch)
    np.testing.assert_allclose(folded, reference, rtol=0, atol=1e-5)
    assert not np.array_equal(folded, reference)  # the fold did run


def test_folded_eval_matches_batchnorm_multiview(monkeypatch):
    rng = np.random.default_rng(5)
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=2)

    def views(n):
        return {v: T.Tensor(rng.uniform(0, 1, (n, 64, 48, 1))
                            .astype(np.float32)) for v in multiview.VIEW_ORDER}

    def head_logits(inputs):
        vecs = {v: net.column_for(v)(inputs[v]) for v in inputs}
        return np.concatenate([
            net.heads["cc"](T.concat([vecs["lcc"], vecs["rcc"]])).data,
            net.heads["mlo"](T.concat([vecs["lmlo"], vecs["rmlo"]])).data])

    _moved_batchnorm(net, lambda: net(views(3)), rng)
    inputs = views(2)
    folded = head_logits(inputs)
    _unfused(monkeypatch, multiview)
    reference = head_logits(inputs)
    np.testing.assert_allclose(folded, reference, rtol=1e-4)


def _composed(monkeypatch, *modules):
    """Make ``conv_bn`` run with no epilogue, then ``T.add`` and
    ``T.relu``: the reference that the fused epilogue is compared
    against."""
    fused = layers.conv_bn

    def composed(conv, bn, x, relu=False, residual=None):
        out = fused(conv, bn, x)
        if residual is not None:
            out = T.add(out, residual)
        return T.relu(out) if relu else out

    for mod in modules:
        monkeypatch.setattr(mod, "conv_bn", composed)


@pytest.mark.parametrize("budget", [T.COLUMN_BUDGET, 1 << 14])
def test_fused_epilogue_matches_composed_ops(budget, monkeypatch):
    """Eval outputs of a residual block, a column and PatchNet are
    bit-identical with the bias, residual add and ReLU applied per band in
    place; the small budget runs the residual convs in row bands."""
    monkeypatch.setattr(T, "COLUMN_BUDGET", budget)
    rng = np.random.default_rng(6)
    col = multiview.ResNetColumn(3, rng)
    net = PatchNet(patch_size=32, seed=7)
    x = T.Tensor(rng.uniform(0, 1, (3, 64, 48, 3)).astype(np.float32))
    _moved_batchnorm(col, lambda: col(x), rng)
    _moved_batchnorm(net, lambda: net(T.Tensor(
        rng.uniform(0, 1, (8, 32, 32, 1)).astype(np.float32))), rng)
    # block 2 carries a shortcut conv, block 3 adds its input
    h = T.Tensor(rng.standard_normal((3, 32, 24, 16)).astype(np.float32))
    patch_batch = rng.uniform(0, 1, (12, 32, 32)).astype(np.float32)

    def outputs():
        h2 = col.blocks[2](h)
        return [h2.data, col.blocks[3](h2).data, col(x).data,
                net.predict_proba(patch_batch)]

    fused = outputs()
    _composed(monkeypatch, multiview, patches)
    for a, b in zip(fused, outputs()):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("residual", [False, True])
def test_fused_epilogue_checks_before_the_relu(residual):
    """A ``-inf`` that the ReLU would turn into 0 still raises, naming
    ``conv_bn``."""
    conv = Conv2d(1, 2, 1, stride=1, rng=np.random.default_rng(0))
    bn = BatchNorm2d(2).eval()
    x = np.ones((1, 3, 3, 1), dtype=np.float32)
    x[0, 1, 1, 0] = -np.inf
    conv.weight.data = np.ones((1, 1, 1, 2), dtype=np.float32)
    res = T.Tensor(np.ones((1, 3, 3, 2), dtype=np.float32)) \
        if residual else None
    with pytest.raises(T.NumericsError, match="conv_bn"):
        layers.conv_bn(conv, bn, T.Tensor(x), relu=True, residual=res)


def test_state_dict_roundtrip():
    rng = np.random.default_rng(2)
    net = PatchNet(patch_size=16, seed=1)
    net(T.Tensor(rng.standard_normal((2, 16, 16, 1)).astype(np.float32)))
    state = {k: v.copy() for k, v in net.state_dict().items()}
    net2 = PatchNet(patch_size=16, seed=2)
    net2.load_state_dict(state)
    assert list(net2.state_dict()) == list(state)
    for k, v in net2.state_dict().items():
        np.testing.assert_array_equal(v, state[k])


def test_load_state_shape_mismatch():
    net = Linear(3, 2, rng=np.random.default_rng(0))
    bad = {k: np.zeros((5, 5), dtype=np.float32) for k in net.state_dict()}
    with pytest.raises(StateDictError, match="'weight'"):
        net.load_state_dict(bad)


def test_named_modules_walks_paths_in_pre_order():
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=None)
    paths = [path for path, _ in net.named_modules()]
    assert paths[:4] == ["", "cc_column", "cc_column.stem",
                         "cc_column.stem_bn"]
    assert paths.index("cc_column.blocks.3") + 1 == \
        paths.index("cc_column.blocks.3.conv1")
    assert paths[-3:] == ["heads.mlo", "heads.mlo.fc1", "heads.mlo.fc2"]
    assert len(paths) == len(set(paths))
    # a state entry is its module's path, a dot and the attribute's name
    modules = dict(net.named_modules())
    for name, arr in net.state_dict().items():
        path, _, attr = name.rpartition(".")
        entry = getattr(modules[path], attr)
        assert arr is (entry.data if isinstance(entry, layers.Parameter)
                       else entry)


def test_load_state_names_first_key_at_fault():
    net = PatchNet(patch_size=16, seed=0)
    state = net.state_dict()
    with pytest.raises(StateDictError, match="missing parameter 'conv1.weight'"):
        net.load_state_dict({k: v for k, v in state.items()
                             if k != "conv1.weight"})
    with pytest.raises(StateDictError, match="unexpected entry 'a.extra'"):
        net.load_state_dict({**state, "b.extra": 0, "a.extra": 0})
    with pytest.raises(StateDictError, match="'bn4.running_var'"):
        net.load_state_dict({**state, "bn4.running_var": np.ones(3)})


def test_collect_gradients_rejects_eval_mode_loss():
    # an eval-mode forward records no graph; training on it would get
    # all-zero gradients
    lin = Linear(3, 2, rng=np.random.default_rng(0)).eval()
    x = T.Tensor(np.ones((4, 3), dtype=np.float32))
    loss = binary_cross_entropy(T.sigmoid(lin(x)), np.ones((4, 2)))
    with pytest.raises(T.GraphError):
        T.collect_gradients(loss, lin.parameters())


# sha256 digests of ``_pinned_states`` and ``_pinned_steps``
STATE_SHA256 = \
    "cb25e06d11c2ee040a4781b46cdf38e32bde792f458b6b73f36c91f6669de937"
STEP_SHA256 = \
    "bc6a60dd13aa0e7c0864adbaf376130932cf2290279e157bf6feb903fc8c7190"


def _sha256(entries):
    h = hashlib.sha256()
    for name, arr in entries:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _pinned_states():
    """The fresh state of every net the pipeline builds: the four fusion
    variants at 1 and 3 channels, BI-RADS pretraining and PatchNet."""
    nets = [(MultiViewNet, dict(variant=v, input_channels=c, task="cancer"))
            for v in FUSION_VARIANTS for c in (1, 3)]
    nets += [(MultiViewNet, dict(variant="view_wise", input_channels=1,
                                 task="birads")),
             (PatchNet, dict(patch_size=32))]
    for cls, kwargs in nets:
        yield from cls(seed=11, **kwargs).state_dict().items()


def _pinned_steps():
    """One seeded train step, on a batch of two, of the four fusion
    variants, BI-RADS and PatchNet, each through the loss it trains with:
    every gradient, then the state the step leaves (running statistics
    moved)."""
    rng = np.random.default_rng(12)
    nets = [MultiViewNet(variant=v, input_channels=1, task="cancer", seed=13)
            for v in FUSION_VARIANTS]
    nets += [MultiViewNet(variant="view_wise", input_channels=1,
                          task="birads", seed=13), PatchNet(patch_size=32,
                                                            seed=13)]
    for net in nets:
        if isinstance(net, PatchNet):
            x = rng.uniform(0, 1, (2, 32, 32, 1)).astype(np.float32)
            loss = weighted_batch_cross_entropy(
                net(T.Tensor(x)), rng.integers(0, 4, 2), [1, 2, 3, 4])
        else:
            out = net({v: T.Tensor(rng.uniform(
                0, 1, (2,) + ((56, 32) if v.endswith("mlo") else (48, 36))
                + (1,)).astype(np.float32)) for v in VIEW_ORDER})
            loss = nll_on_probs(out, rng.integers(0, 3, 2)) \
                if net.task == "birads" else \
                binary_cross_entropy(out, rng.integers(0, 2, out.shape))
        grads = T.collect_gradients(loss, net.parameters())
        state = net.state_dict()
        yield from zip(state, grads)
        yield from state.items()


def test_state_and_train_step_bytes_are_pinned():
    """The module walk and the engine's ops give the state keys, the
    initial weights, a train step's gradients and its running statistics
    these exact bytes. The step is small enough that its bytes were the
    same on one BLAS thread as on two."""
    assert _sha256(_pinned_states()) == STATE_SHA256
    assert _sha256(_pinned_steps()) == STEP_SHA256
