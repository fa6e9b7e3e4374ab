import tracemalloc

import numpy as np
import pytest

from mscope import tensor as T
from mscope.multiview import (ColumnConfig, FUSION_VARIANTS, MultiViewNet,
                              ResNetColumn, VIEW_ORDER, column_shape_audit,
                              count_parameters, hidden_budget,
                              transfer_from_pretrained)
from mscope.optim import binary_cross_entropy

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
        "lcc": T.Tensor(rng.uniform(0, 1, (n, channels) + TINY_CC).astype(np.float32)),
        "rcc": T.Tensor(rng.uniform(0, 1, (n, channels) + TINY_CC).astype(np.float32)),
        "lmlo": T.Tensor(rng.uniform(0, 1, (n, channels) + TINY_MLO).astype(np.float32)),
        "rmlo": T.Tensor(rng.uniform(0, 1, (n, channels) + TINY_MLO).astype(np.float32)),
    }


def test_shape_audit_reproduces_reference_table():
    for view, ref in REFERENCE_SHAPES.items():
        rows = column_shape_audit(ColumnConfig(), ref["in"])
        assert rows == ref["rows"], view


def test_column_output_is_256_vector():
    net = MultiViewNet(seed=1).eval()
    x = T.Tensor(np.random.default_rng(0).uniform(0, 1, (2, 1) + TINY_CC)
                 .astype(np.float32))
    out = net.cc_column(x)
    assert out.shape == (2, 256)


def test_columns_shared_between_sides():
    net = MultiViewNet(seed=0)
    assert net.column_for("lcc") is net.column_for("rcc")
    assert net.column_for("lmlo") is net.column_for("rmlo")
    assert net.column_for("lcc") is not net.column_for("lmlo")


def test_mirrored_input_same_vector():
    net = MultiViewNet(seed=2).eval()
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (1, 1) + TINY_CC).astype(np.float32)
    mirrored = x[:, :, :, ::-1]
    a = net.cc_column(T.Tensor(x)).data
    b = net.cc_column(T.Tensor(np.ascontiguousarray(mirrored[:, :, :, ::-1]))).data
    np.testing.assert_array_equal(a, b)


def test_all_zero_input_finite():
    net = MultiViewNet(seed=4).eval()
    views = {v: T.Tensor(np.zeros((1, 1) + (TINY_MLO if v.endswith("mlo")
                                            else TINY_CC), dtype=np.float32))
             for v in VIEW_ORDER}
    out = net(views).data
    assert np.isfinite(out).all()


@pytest.mark.parametrize("variant", FUSION_VARIANTS)
def test_outputs_are_probabilities(variant):
    net = MultiViewNet(variant=variant, seed=5).eval()
    out = net(random_views(np.random.default_rng(6), n=3)).data
    assert out.shape == (3, 4)
    assert (out > 0).all() and (out < 1).all()


@pytest.mark.parametrize("variant", FUSION_VARIANTS)
def test_hidden_budget_is_1024(variant):
    assert hidden_budget(variant) == 1024
    net = MultiViewNet(variant=variant, seed=0)
    total_hidden = sum(h.fc1.weight.data.shape[0] for h in net.heads.values())
    assert total_hidden == 1024


def test_view_wise_final_is_branch_mean():
    net = MultiViewNet(variant="view_wise", seed=7).eval()
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
    net = MultiViewNet(variant="image_wise", seed=9).eval()
    _constant_head(net.heads["lcc"], [0.9, 0.2])   # (benign, malignant)
    _constant_head(net.heads["lmlo"], [0.1, 0.6])
    _constant_head(net.heads["rcc"], [0.3, 0.8])
    _constant_head(net.heads["rmlo"], [0.7, 0.4])
    out = net(random_views(np.random.default_rng(10))).data[0]
    np.testing.assert_allclose(out, [0.5, 0.4, 0.5, 0.6], atol=1e-6)


def test_breast_wise_order():
    net = MultiViewNet(variant="breast_wise", seed=11).eval()
    _constant_head(net.heads["left"], [0.2, 0.9])
    _constant_head(net.heads["right"], [0.6, 0.1])
    out = net(random_views(np.random.default_rng(12))).data[0]
    np.testing.assert_allclose(out, [0.2, 0.9, 0.6, 0.1], atol=1e-6)


def test_parameter_counts():
    """The 3-channel model differs from the 1-channel one only in the stem
    kernel: 2 extra channels x 16 filters x 49 taps x 2 columns."""
    c1 = count_parameters(MultiViewNet(input_channels=1, seed=0))
    c3 = count_parameters(MultiViewNet(input_channels=3, seed=0))
    assert c3 - c1 == 3136
    assert c1 == 6130472


def test_birads_variant_softmax_head():
    net = MultiViewNet(task="birads", seed=13).eval()
    out = net(random_views(np.random.default_rng(14))).data
    assert out.shape == (1, 3)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
    with pytest.raises(ValueError):
        MultiViewNet(task="birads", variant="joint")


# -- transfer --

def test_transfer_identity_when_single_channel():
    src = MultiViewNet(input_channels=1, task="birads", seed=15)
    state = src.state_dict()
    dst = transfer_from_pretrained(state, input_channels=1, seed=16)
    src_cols = {k: v for k, v in src.state_dict().items()
                if k.startswith(("cc_column.", "mlo_column."))}
    dst_all = dst.state_dict()
    for k, v in src_cols.items():
        np.testing.assert_array_equal(dst_all[k], v)


def test_transfer_duplicated_stem_matches_source_on_padded_input():
    rng = np.random.default_rng(17)
    src = MultiViewNet(input_channels=1, task="birads", seed=18).eval()
    dst = transfer_from_pretrained(src.state_dict(), input_channels=3,
                                   seed=19)
    dst.eval()
    img = rng.uniform(0, 1, (1, 1) + TINY_CC).astype(np.float32)
    padded = np.concatenate([img, np.zeros_like(img), np.zeros_like(img)],
                            axis=1)
    a = src.cc_column(T.Tensor(img)).data
    b = dst.cc_column(T.Tensor(padded)).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_transfer_head_seeds_differ_columns_match():
    src = MultiViewNet(input_channels=1, task="birads", seed=20)
    d1 = transfer_from_pretrained(src.state_dict(), seed=21)
    d2 = transfer_from_pretrained(src.state_dict(), seed=22)
    s1, s2 = d1.state_dict(), d2.state_dict()
    for k in s1:
        if k.startswith(("cc_column.", "mlo_column.")):
            np.testing.assert_array_equal(s1[k], s2[k])
    head_keys = [k for k in s1 if k.startswith("heads.")]
    assert any(not np.array_equal(s1[k], s2[k]) for k in head_keys)


def test_transfer_architecture_mismatch_rejected():
    src = MultiViewNet(input_channels=1, seed=23)
    state = src.state_dict()
    bad = {k: (v if not k.endswith("blocks.0.conv1.weight")
               else np.zeros((5, 5, 5, 5), dtype=np.float32))
           for k, v in state.items()}
    with pytest.raises(ValueError):
        transfer_from_pretrained(bad, input_channels=1, seed=0)


# -- eval mode records no graph --

def test_eval_output_has_no_graph():
    net = MultiViewNet(seed=27)
    views = random_views(np.random.default_rng(28), n=2)
    assert net(views)._backward is not None
    out = net.eval()(views)
    assert out._parents == () and out._backward is None


def test_eval_column_forward_retains_under_1mb():
    # a held eval-mode output must not keep the activations and padded
    # im2col inputs of the forward alive
    col = ResNetColumn(ColumnConfig(), np.random.default_rng(29)).eval()
    x = T.Tensor(np.random.default_rng(30)
                 .uniform(0, 1, (2, 1, 448, 324)).astype(np.float32))
    tracemalloc.start()
    try:
        out = col(x)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2, 256)
    assert retained < 1e6


def test_eval_output_equals_graph_recording_forward():
    net = MultiViewNet(variant="joint", seed=31).eval()
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

    stayed = MultiViewNet(seed=34)
    left = MultiViewNet(seed=34).eval()
    left(views)
    for a, b in zip(gradients(stayed), gradients(left)):
        np.testing.assert_array_equal(a, b)


def test_second_train_step_holds_no_first_graph():
    """A training loop keeps the last loss while the next step's forward
    runs. Since backward frees the graph and the gradients are handed over,
    two steps peak no higher than one."""
    rng = np.random.default_rng(35)
    views = {v: T.Tensor(rng.uniform(0, 1, (2, 1, 224, 162))
                         .astype(np.float32)) for v in VIEW_ORDER}
    y = np.array([[0, 1, 1, 0], [1, 0, 0, 0]], dtype=np.float32)

    def peak(steps):
        net = MultiViewNet(variant="view_wise", seed=36)
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
