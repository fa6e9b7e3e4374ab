import tracemalloc
import weakref

import numpy as np
import pytest

from mscope import layers, multiview, patches
from mscope import tensor as T
from mscope.multiview import (FUSION_VARIANTS, MultiViewNet, ResidualBlock,
                              ResNetColumn, VIEW_ORDER, column_shape_audit,
                              transfer_from_pretrained)
from mscope.optim import binary_cross_entropy
from mscope.patches import PatchNet

import gradcheck
from gradcheck import (max_relative_error, numerical_gradients,
                       weighted_sum)

TINY_CC = (48, 36)
TINY_MLO = (56, 32)

# full-scale reference activation sizes, (h, w, channels) per stage
REFERENCE_SHAPES = {
    "cc": {"in": (2677, 1942),
           "rows": [("conv7x7", (1339, 971, 16)),
                    ("resblock0", (670, 486, 16)),
                    ("resblock1", (335, 243, 32)),
                    ("resblock2", (168, 122, 64)),
                    ("resblock3", (84, 61, 128)),
                    ("resblock4", (42, 31, 256))]},
    "mlo": {"in": (2974, 1748),
            "rows": [("conv7x7", (1487, 874, 16)),
                     ("resblock0", (744, 437, 16)),
                     ("resblock1", (372, 219, 32)),
                     ("resblock2", (186, 110, 64)),
                     ("resblock3", (93, 55, 128)),
                     ("resblock4", (47, 28, 256))]},
}


def random_views(rng, n=1, channels=1):
    return {
        "lcc": T.Tensor(rng.uniform(0, 1, (n,) + TINY_CC + (channels,)).astype(np.float32)),
        "rcc": T.Tensor(rng.uniform(0, 1, (n,) + TINY_CC + (channels,)).astype(np.float32)),
        "lmlo": T.Tensor(rng.uniform(0, 1, (n,) + TINY_MLO + (channels,)).astype(np.float32)),
        "rmlo": T.Tensor(rng.uniform(0, 1, (n,) + TINY_MLO + (channels,)).astype(np.float32)),
    }


def test_shape_audit_reproduces_reference_table():
    for view, ref in REFERENCE_SHAPES.items():
        rows = column_shape_audit(ref["in"])
        assert rows == ref["rows"], view


def test_column_output_is_256_vector():
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=1).eval()
    x = T.Tensor(np.random.default_rng(0).uniform(0, 1, (2,) + TINY_CC + (1,))
                 .astype(np.float32))
    out = net.cc_column(x)
    assert out.shape == (2, 256)


def test_columns_shared_between_sides():
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=0)
    assert net.column_for("lcc") is net.column_for("rcc")
    assert net.column_for("lmlo") is net.column_for("rmlo")
    assert net.column_for("lcc") is not net.column_for("lmlo")


def test_mirrored_input_same_vector():
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=2).eval()
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (1,) + TINY_CC + (1,)).astype(np.float32)
    mirrored = x[:, :, ::-1]
    a = net.cc_column(T.Tensor(x)).data
    b = net.cc_column(T.Tensor(np.ascontiguousarray(mirrored[:, :, ::-1]))).data
    np.testing.assert_array_equal(a, b)


def test_all_zero_input_finite():
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=4).eval()
    views = {v: T.Tensor(np.zeros((1,) + (TINY_MLO if v.endswith("mlo")
                                          else TINY_CC) + (1,), dtype=np.float32))
             for v in VIEW_ORDER}
    out = net(views).data
    assert np.isfinite(out).all()


@pytest.mark.parametrize("variant", FUSION_VARIANTS)
def test_outputs_are_probabilities(variant):
    net = MultiViewNet(variant=variant, input_channels=1, task="cancer",
                       seed=5).eval()
    out = net(random_views(np.random.default_rng(6), n=3)).data
    assert out.shape == (3, 4)
    assert (out > 0).all() and (out < 1).all()


@pytest.mark.parametrize("variant", FUSION_VARIANTS)
def test_hidden_budget_is_1024(variant):
    net = MultiViewNet(variant=variant, input_channels=1, task="cancer",
                       seed=0)
    total_hidden = sum(h.fc1.weight.data.shape[0] for h in net.heads.values())
    assert total_hidden == 1024


def test_view_wise_final_is_branch_mean():
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=7).eval()
    rng = np.random.default_rng(8)
    vecs = {v: rng.standard_normal((2, 256)).astype(np.float32)
            for v in VIEW_ORDER}
    out = net.fuse({v: T.Tensor(vecs[v]) for v in VIEW_ORDER}).data

    def branch(key, views):
        x = np.concatenate([vecs[v] for v in views], axis=1)
        h = np.maximum(x @ net.heads[key].fc1.weight.data.T
                       + net.heads[key].fc1.bias.data, 0)
        logits = h @ net.heads[key].fc2.weight.data.T + net.heads[key].fc2.bias.data
        return 1 / (1 + np.exp(-logits))

    expected = 0.5 * (branch("cc", ("lcc", "rcc")) + branch("mlo", ("lmlo", "rmlo")))
    np.testing.assert_allclose(out, expected, atol=1e-6)


def _constant_head(head, probs):
    head.fc1.weight.data = np.zeros_like(head.fc1.weight.data)
    head.fc1.bias.data = np.zeros_like(head.fc1.bias.data)
    head.fc2.weight.data = np.zeros_like(head.fc2.weight.data)
    head.fc2.bias.data = np.log(np.array(probs) / (1 - np.array(probs))) \
        .astype(head.fc2.bias.data.dtype)


def test_image_wise_breast_mean_and_order():
    net = MultiViewNet(variant="image_wise", input_channels=1, task="cancer",
                       seed=9).eval()
    _constant_head(net.heads["lcc"], [0.9, 0.2])   # (benign, malignant)
    _constant_head(net.heads["lmlo"], [0.1, 0.6])
    _constant_head(net.heads["rcc"], [0.3, 0.8])
    _constant_head(net.heads["rmlo"], [0.7, 0.4])
    out = net(random_views(np.random.default_rng(10))).data[0]
    np.testing.assert_allclose(out, [0.5, 0.4, 0.5, 0.6], atol=1e-6)


def test_breast_wise_order():
    net = MultiViewNet(variant="breast_wise", input_channels=1, task="cancer",
                       seed=11).eval()
    _constant_head(net.heads["left"], [0.2, 0.9])
    _constant_head(net.heads["right"], [0.6, 0.1])
    out = net(random_views(np.random.default_rng(12))).data[0]
    np.testing.assert_allclose(out, [0.2, 0.9, 0.6, 0.1], atol=1e-6)


def _branch_fuse(net, vecs):
    """The fusion as one hand-written branch per variant, kept here as the
    reference for the table-driven ``MultiViewNet.fuse``."""
    plans = {"view_wise": [("cc", ("lcc", "rcc")), ("mlo", ("lmlo", "rmlo"))],
             "image_wise": [(v, (v,)) for v in ("lcc", "rcc", "lmlo", "rmlo")],
             "breast_wise": [("left", ("lcc", "lmlo")),
                             ("right", ("rcc", "rmlo"))],
             "joint": [("all", ("lcc", "rcc", "lmlo", "rmlo"))]}
    head_out = {}
    for key, views in plans[net.variant]:
        x = vecs[views[0]] if len(views) == 1 else \
            T.concat([vecs[v] for v in views])
        head_out[key] = net.heads[key](x)
    if net.task == "birads":
        cc = T.softmax(head_out["cc"])
        mlo = T.softmax(head_out["mlo"])
        return T.mul(T.add(cc, mlo), 0.5)
    if net.variant == "view_wise":
        cc = T.sigmoid(head_out["cc"])
        mlo = T.sigmoid(head_out["mlo"])
        return T.mul(T.add(cc, mlo), 0.5)
    if net.variant == "image_wise":
        left = T.mul(T.add(T.sigmoid(head_out["lcc"]),
                           T.sigmoid(head_out["lmlo"])), 0.5)
        right = T.mul(T.add(T.sigmoid(head_out["rcc"]),
                            T.sigmoid(head_out["rmlo"])), 0.5)
        return T.concat([left, right])
    if net.variant == "breast_wise":
        return T.concat([T.sigmoid(head_out["left"]),
                         T.sigmoid(head_out["right"])])
    return T.sigmoid(head_out["all"])


@pytest.mark.parametrize("variant,task", [(v, "cancer") for v in
                                          FUSION_VARIANTS] +
                         [("view_wise", "birads")])
def test_fuse_equals_the_per_variant_branches(variant, task):
    """Outputs and the gradients into the four view vectors are the bytes
    of the per-variant branches the head table replaced."""
    net = MultiViewNet(variant=variant, input_channels=1, task=task, seed=31)
    rng = np.random.default_rng(32)
    vecs = {v: rng.standard_normal((3, 256)).astype(np.float32)
            for v in VIEW_ORDER}
    weights = rng.standard_normal((3, 3 if task == "birads" else 4)) \
        .astype(np.float32)
    results = []
    for fuse in (net.fuse, lambda x: _branch_fuse(net, x)):
        inputs = {v: T.Tensor(vecs[v], requires_grad=True) for v in VIEW_ORDER}
        out = fuse(inputs)
        weighted_sum(out, weights).backward()
        results.append((out.data, [inputs[v].grad for v in VIEW_ORDER]))
    (out, grads), (ref_out, ref_grads) = results
    np.testing.assert_array_equal(out, ref_out)
    for v, g, ref in zip(VIEW_ORDER, grads, ref_grads):
        np.testing.assert_array_equal(g, ref, err_msg=v)


def test_parameter_counts():
    """The 3-channel model differs from the 1-channel one only in the stem
    kernel: 2 extra channels x 16 filters x 49 taps x 2 columns."""
    c1, c3 = (sum(p.data.size for p in MultiViewNet(variant="view_wise",
                                                    input_channels=c,
                                                    task="cancer",
                                                    seed=0).parameters())
              for c in (1, 3))
    assert c3 - c1 == 3136
    assert c1 == 6130472


def test_birads_variant_softmax_head():
    net = MultiViewNet(variant="view_wise", input_channels=1, task="birads",
                       seed=13).eval()
    out = net(random_views(np.random.default_rng(14))).data
    assert out.shape == (1, 3)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
    with pytest.raises(ValueError):
        MultiViewNet(variant="joint", input_channels=1, task="birads",
                     seed=0)


# -- the NHWC column against the NCHW arithmetic it replaced --

def _conv2d_nchw(x, w, stride=1, padding=0, bias=None):
    """Convolution of NCHW ``x``: transposed to NHWC around the column
    GEMM, the output and the input gradient transposed back. ``w`` is the
    (kh, kw, Cin, Cout) parameter, whose GEMM matrix the NCHW code built
    from its (Cout, Cin, kh, kw) weight."""
    n, c, h, wdt = x.data.shape
    kh, kw, _, cout = w.data.shape
    ho = T.conv2d_shape(h, kh, stride, padding)
    wo = T.conv2d_shape(wdt, kw, stride, padding)
    xc = np.zeros((n, h + 2 * padding, wdt + 2 * padding, c), dtype=x.dtype)
    xc[:, padding:padding + h, padding:padding + wdt] = \
        x.data.transpose(0, 2, 3, 1)
    wmat = w.data.reshape(kh * kw * c, cout)
    cols = T._windows(xc, kh, kw, stride).reshape(n * ho * wo, -1)
    y = (cols @ wmat).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)

    def bwd(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)) \
            .reshape(n * ho * wo, cout)
        w._accumulate((cols.T @ gmat).reshape(kh, kw, c, cout))
        dxp = np.zeros(xc.shape, dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                    (gmat @ w.data[i, j].T).reshape(n, ho, wo, c)
        dx = dxp[:, padding:padding + h, padding:padding + wdt]
        x._accumulate(np.ascontiguousarray(dx.transpose(0, 3, 1, 2)))

    return T._node(np.ascontiguousarray(y), (x, w), bwd)


def _batchnorm2d_nchw(x, gamma, beta, running_mean, running_var,
                      momentum=0.1, eps=1e-5):
    """Train-mode BatchNorm of NCHW ``x`` by numpy reductions."""
    xd = x.data
    mu = xd.mean(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(xd.var(axis=(0, 2, 3)) + eps)
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    y = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def bwd(g):
        gamma._accumulate((g * xhat).sum(axis=(0, 2, 3)))
        beta._accumulate(g.sum(axis=(0, 2, 3)))
        gi = gamma.data[None, :, None, None] * inv[None, :, None, None]
        m = g.mean(axis=(0, 2, 3), keepdims=True)
        mx = (g * xhat).mean(axis=(0, 2, 3), keepdims=True)
        x._accumulate(gi * (g - m - xhat * mx))

    return T._node(y.astype(xd.dtype, copy=False), (x, gamma, beta), bwd)


def _global_avgpool2d_nchw(x):
    n, c, h, w = x.data.shape

    def bwd(g):
        x._accumulate(np.broadcast_to(g[:, :, None, None] / (h * w),
                                      x.data.shape))

    return T._node(x.data.mean(axis=(2, 3)), (x,), bwd)


def _composed_conv_bn(conv, bn, x, relu=False, residual=None):
    """Train-mode ``conv_bn`` on NCHW ``x`` as the NCHW convolution and
    BatchNorm, then ``T.add`` and ``T.relu``."""
    out = _batchnorm2d_nchw(
        _conv2d_nchw(x, conv.weight, conv.stride, conv.padding), bn.gamma,
        bn.beta, bn.running_mean, bn.running_var)
    if residual is not None:
        out = T.add(out, residual)
    return T.relu(out) if relu else out


def test_train_column_matches_nchw_reference(monkeypatch):
    """Train-mode outputs and parameter gradients agree with the NCHW ops
    within rtol 1e-4, each tensor's error taken against its largest
    element. The dims are small: a ReLU input that rounds to the other
    side of zero sends its whole gradient elsewhere, and the chance that
    one lies within float32 rounding of zero grows with the element
    count."""
    col = ResNetColumn(1, np.random.default_rng(37))
    rng = np.random.default_rng(38)
    x = rng.uniform(0, 1, (4, 96, 72, 1)).astype(np.float32)
    weights = rng.standard_normal((4, 256)).astype(np.float32)
    params = col.parameters()

    def run(inp):
        out = col(T.Tensor(inp))
        loss = weighted_sum(out, weights)
        return out.data, T.collect_gradients(loss, params)

    out, grads = run(x)
    monkeypatch.setattr(multiview, "conv_bn", _composed_conv_bn)
    monkeypatch.setattr(T, "global_avgpool2d", _global_avgpool2d_nchw)
    ref_out, ref_grads = run(np.ascontiguousarray(x.transpose(0, 3, 1, 2)))
    # the state names its parameters first, in the order of parameters()
    for name, a, b in [("output", out, ref_out)] + list(
            zip(col.state_dict(), grads, ref_grads)):
        np.testing.assert_allclose(a, b, rtol=1e-4,
                                   atol=1e-4 * np.abs(b).max(), err_msg=name)


@pytest.mark.parametrize("cin, stride", [(3, 1), (2, 2)])
def test_train_residual_block_gradients_match_finite_differences(cin,
                                                                 stride):
    """A train-mode block, identity residual (stride 1) or projected
    shortcut (stride 2), in float64: every parameter's gradient and the
    input's agree with central differences."""
    rng = np.random.default_rng(40 + stride)
    block = ResidualBlock(cin, 3, stride, rng)
    for p in block.parameters():
        p.data = p.data.astype(np.float64)
    x = layers.Parameter(rng.standard_normal((2, 6, 6, cin)))
    weights = rng.standard_normal((2, 6 // stride, 6 // stride, 3))
    params = block.parameters() + [x]

    def loss_fn():
        return weighted_sum(block(x), weights)

    analytic = T.collect_gradients(loss_fn(), params)
    numeric = numerical_gradients(loss_fn, params, h=1e-5)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_train_forward_holds_under_045x_of_the_composed_graph(monkeypatch):
    """The bytes a train forward leaves held (its graph and output) are at
    most 0.45x those of the composed ops, for a column and for PatchNet,
    and no padded input outlives the forward; the composed ops keep
    theirs for the convolution backward."""
    rng = np.random.default_rng(39)
    runs = [(ResNetColumn(1, rng), (4, 96, 72, 1)),
            (PatchNet(patch_size=32, seed=40), (20, 32, 32, 1))]
    inputs = [T.Tensor(rng.uniform(0, 1, shape).astype(np.float32))
              for _, shape in runs]
    pads = []
    pad = T._padded

    def spy(xd, p):
        out = pad(xd, p)
        if p:
            pads.append(weakref.ref(out))
        return out

    def held():
        """Per net: the bytes held after its forward, and how many padded
        inputs are still alive then."""
        sizes, alive = [], []
        for (net, _), x in zip(runs, inputs):
            pads.clear()
            tracemalloc.start()
            try:
                out = net(x)
                sizes.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert out._backward is not None and pads
            alive.append(sum(ref() is not None for ref in pads))
        return sizes, alive

    monkeypatch.setattr(T, "_padded", spy)
    fused, fused_pads = held()
    assert fused_pads == [0, 0]
    monkeypatch.setattr(multiview, "conv_bn", gradcheck.conv_bn)
    monkeypatch.setattr(patches, "conv_bn", gradcheck.conv_bn)
    composed, composed_pads = held()
    assert min(composed_pads) > 0
    for a, b in zip(fused, composed):
        assert a <= 0.45 * b, (fused, composed)


# -- transfer --

def test_transfer_identity_when_single_channel():
    src = MultiViewNet(variant="view_wise", input_channels=1, task="birads",
                       seed=15)
    state = src.state_dict()
    dst = transfer_from_pretrained(state, variant="view_wise",
                                   input_channels=1, seed=16)
    src_cols = {k: v for k, v in src.state_dict().items()
                if k.startswith(("cc_column.", "mlo_column."))}
    dst_all = dst.state_dict()
    for k, v in src_cols.items():
        np.testing.assert_array_equal(dst_all[k], v)


def test_transfer_duplicated_stem_matches_source_on_padded_input():
    rng = np.random.default_rng(17)
    src = MultiViewNet(variant="view_wise", input_channels=1, task="birads",
                       seed=18).eval()
    dst = transfer_from_pretrained(src.state_dict(), variant="view_wise",
                                   input_channels=3, seed=19)
    dst.eval()
    img = rng.uniform(0, 1, (1,) + TINY_CC + (1,)).astype(np.float32)
    padded = np.concatenate([img, np.zeros_like(img), np.zeros_like(img)],
                            axis=3)
    a = src.cc_column(T.Tensor(img)).data
    b = dst.cc_column(T.Tensor(padded)).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_transfer_head_seeds_differ_columns_match():
    src = MultiViewNet(variant="view_wise", input_channels=1, task="birads",
                       seed=20)
    d1 = transfer_from_pretrained(src.state_dict(), variant="view_wise",
                                  input_channels=1, seed=21)
    d2 = transfer_from_pretrained(src.state_dict(), variant="view_wise",
                                  input_channels=1, seed=22)
    s1, s2 = d1.state_dict(), d2.state_dict()
    for k in s1:
        if k.startswith(("cc_column.", "mlo_column.")):
            np.testing.assert_array_equal(s1[k], s2[k])
    head_keys = [k for k in s1 if k.startswith("heads.")]
    assert any(not np.array_equal(s1[k], s2[k]) for k in head_keys)


def test_transfer_draws_only_the_heads(monkeypatch):
    """The columns are copied, so none of their weights are drawn; the
    heads are those of a new model of the same seed."""
    src = MultiViewNet(variant="view_wise", input_channels=1, task="birads",
                       seed=20)
    fresh = MultiViewNet(variant="view_wise", input_channels=3,
                         task="cancer", seed=21)
    drawn = layers.he_normal

    def no_draw(rng, *args):
        assert rng is None, "transfer drew a column weight"
        return drawn(rng, *args)

    monkeypatch.setattr(layers, "he_normal", no_draw)
    dst = transfer_from_pretrained(src.state_dict(), variant="view_wise",
                                   input_channels=3, seed=21)
    heads = {k: v for k, v in fresh.state_dict().items()
             if k.startswith("heads.")}
    dst_all = dst.state_dict()
    assert heads
    for k, v in heads.items():
        np.testing.assert_array_equal(dst_all[k], v, err_msg=k)


def test_transfer_architecture_mismatch_rejected():
    src = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=23)
    state = src.state_dict()
    bad = {k: (v if not k.endswith("blocks.0.conv1.weight")
               else np.zeros((5, 5, 5, 5), dtype=np.float32))
           for k, v in state.items()}
    with pytest.raises(ValueError):
        transfer_from_pretrained(bad, variant="view_wise", input_channels=1,
                                 seed=0)


def test_transfer_extra_column_entry_rejected():
    src = MultiViewNet(variant="view_wise", input_channels=1, task="birads",
                       seed=24)
    state = dict(src.state_dict(),
                 **{"mlo_column.blocks.9.extra": np.zeros(3, np.float32)})
    with pytest.raises(layers.StateDictError,
                       match="'mlo_column.blocks.9.extra'"):
        transfer_from_pretrained(state, variant="view_wise", input_channels=3,
                                 seed=0)


def test_transfer_multichannel_source_stem_rejected():
    src = MultiViewNet(variant="view_wise", input_channels=3, task="cancer",
                       seed=25)
    with pytest.raises(layers.StateDictError,
                       match="'cc_column.stem.weight' must be single-channel"):
        transfer_from_pretrained(src.state_dict(), variant="view_wise",
                                 input_channels=3, seed=0)


# -- eval mode records no graph --

def test_eval_output_has_no_graph():
    net = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                       seed=27)
    views = random_views(np.random.default_rng(28), n=2)
    assert net(views)._backward is not None
    out = net.eval()(views)
    assert out._parents == () and out._backward is None


def test_eval_column_forward_retains_under_1mb():
    # a held eval-mode output must not keep the activations and padded
    # im2col inputs of the forward alive
    col = ResNetColumn(1, np.random.default_rng(29)).eval()
    x = T.Tensor(np.random.default_rng(30)
                 .uniform(0, 1, (2, 448, 324, 1)).astype(np.float32))
    tracemalloc.start()
    try:
        out = col(x)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2, 256)
    assert retained < 1e6


def test_eval_output_equals_graph_recording_forward():
    net = MultiViewNet(variant="joint", input_channels=1, task="cancer",
                       seed=31).eval()
    views = random_views(np.random.default_rng(32), n=2)
    plain = net(views)
    for p in net.parameters():
        p.requires_grad = True
    recorded = net(views)
    assert recorded._backward is not None
    np.testing.assert_array_equal(plain.data, recorded.data)


def test_gradients_unchanged_by_eval_train_round_trip():
    views = random_views(np.random.default_rng(33), n=2)
    y = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=np.float32)

    def gradients(net):
        net.train()
        return T.collect_gradients(binary_cross_entropy(net(views), y),
                                   net.parameters())

    stayed = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                          seed=34)
    left = MultiViewNet(variant="view_wise", input_channels=1, task="cancer",
                        seed=34).eval()
    left(views)
    for a, b in zip(gradients(stayed), gradients(left)):
        np.testing.assert_array_equal(a, b)


def test_second_train_step_holds_no_first_graph():
    """A training loop keeps the last loss while the next step's forward
    runs. Since backward frees the graph and the gradients are handed over,
    two steps peak no higher than one."""
    rng = np.random.default_rng(35)
    views = {v: T.Tensor(rng.uniform(0, 1, (2, 224, 162, 1))
                         .astype(np.float32)) for v in VIEW_ORDER}
    y = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=np.float32)

    def peak(steps):
        net = MultiViewNet(variant="view_wise", input_channels=1,
                           task="cancer", seed=36)
        params = net.parameters()
        tracemalloc.start()
        try:
            for _ in range(steps):
                loss = binary_cross_entropy(net(views), y)
                T.collect_gradients(loss, params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2) <= 1.15 * peak(1)
