import math

import numpy as np
import pytest

from mscope import tensor as T
from mscope.formats import FormatError
from mscope.patches import (MIN_PATCH, PATCH_CLASSES, EmptyPoolError,
                            PatchConfig, PatchNet, PatchTrainConfig,
                            _extract_window,
                            build_epoch, class_weights, load_patch_cache,
                            sample_patch, save_patch_cache,
                            train_patch_classifier)
from mscope.seeding import substream


def pool_labels(sizes):
    """Class-major pool labels: ``sizes[c]`` windows of each class c."""
    return np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)


class Recorder:
    """An RNG that keeps the last four uniform draws: a window's center
    (y, x), side and angle, in the order ``sample_patch`` draws them."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def uniform(self, lo, hi):
        self.draws = self.draws[-3:] + [self.rng.uniform(lo, hi)]
        return self.draws[-1]


# -- class weights --

def test_class_weights_reference_counts():
    w = class_weights([20, 35, 5000, 4945])
    np.testing.assert_allclose(
        w, [0.63312, 0.36179, 0.0025325, 0.0025607], atol=1e-5)
    assert abs(w.sum() - 1.0) < 1e-12


def test_class_weights_equal_counts():
    np.testing.assert_allclose(class_weights([7, 7, 7, 7]), 0.25)


def test_class_weights_skewed():
    w = class_weights([1, 1, 1, 997])
    assert w[0] == w[1] == w[2]
    np.testing.assert_allclose(w[:3], 0.333, atol=5e-4)
    np.testing.assert_allclose(w[3], 0.00033, atol=1e-5)


def test_class_weights_scale_invariant():
    a = class_weights([20, 35, 5000, 4945])
    b = class_weights([200, 350, 50000, 49450])
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_class_weights_zero_count_rejected():
    with pytest.raises(ValueError):
        class_weights([0, 1, 1, 1])


# -- window extraction and classification --

def test_axis_aligned_full_size_window_is_raw_crop():
    rng = np.random.default_rng(0)
    img = rng.uniform(0.1, 1.0, (40, 40))
    p = 16
    r0, c0 = 5, 9
    center = (r0 + p / 2 - 0.5, c0 + p / 2 - 0.5)
    out = _extract_window(img, center, side=p, angle_rad=0.0, patch_size=p)
    np.testing.assert_allclose(out, img[r0:r0 + p, c0:c0 + p], atol=1e-12)


def test_corner_window_rejected():
    img = np.ones((100, 100), dtype=np.float32)
    cfg = PatchConfig(patch_size=8, side_min=384, side_max=384, max_angle=0)

    class Fixed:
        def __init__(self):
            self.calls = 0

        def uniform(self, lo, hi=None):
            self.calls += 1
            if self.calls <= 2:
                return 0.0  # center at the image corner
            return lo if hi is None else lo

    reason, label, pixels = sample_patch(img, {}, Fixed(), cfg, "negative")
    assert (reason, label, pixels) == ("outside_image", None, None)


def test_all_zero_window_rejected():
    img = np.zeros((64, 64), dtype=np.float32)
    cfg = PatchConfig(patch_size=8, side_min=8, side_max=12, max_angle=10)
    rng = substream(3, "zero")
    rejected = 0
    for _ in range(50):
        reason, _, pixels = sample_patch(img, {}, rng, cfg, "negative")
        assert pixels is None
        if reason == "all_zero":
            rejected += 1
    assert rejected > 0


def test_overlap_classes_against_bruteforce():
    """The sampler's class matches an exhaustive pixel scan on 1000 windows."""
    rng = np.random.default_rng(11)
    h, w = 48, 40
    img = rng.uniform(0.2, 1.0, (h, w))
    mal = np.zeros((h, w), dtype=bool)
    ben = np.zeros((h, w), dtype=bool)
    mal[10:16, 8:15] = True
    ben[30:38, 22:30] = True
    ben[12:14, 26:29] = True
    points = {m: np.nonzero(mask) for m, mask in
              (("malignant", mal), ("benign", ben))}
    cfg = PatchConfig(patch_size=8, side_min=6, side_max=20, max_angle=30)

    draw_rng = Recorder(substream(7, "overlap"))
    checked = 0
    while checked < 1000:
        reason, label, _ = sample_patch(img, points, draw_rng, cfg,
                                        "segmented")
        if reason == "outside_image":
            continue
        checked += 1
        # independent oracle: test every pixel against the rotated window
        cy, cx, side, angle = draw_rng.draws
        rad = math.radians(angle)
        hit_mal = hit_ben = False
        c, s = math.cos(rad), math.sin(rad)
        for yy in range(h):
            for xx in range(w):
                dy, dx = yy - cy, xx - cx
                ay = dy * c + dx * s
                ax = -dy * s + dx * c
                if abs(ay) <= side / 2 and abs(ax) <= side / 2:
                    hit_mal |= bool(mal[yy, xx])
                    hit_ben |= bool(ben[yy, xx])
        if label is None:
            assert hit_mal and hit_ben and reason == "mixed_classes"
            continue
        assert not (hit_mal and hit_ben)
        if hit_mal:
            expected = "malignant"
        elif hit_ben:
            expected = "benign"
        else:
            expected = "outside"
        assert PATCH_CLASSES[label] == expected


def test_side_distribution_uniform():
    """Accepted sides stay uniform (KS < 0.02) on a large fixture."""
    img = np.full((2048, 2048), 0.5)
    cfg = PatchConfig(patch_size=8, side_min=32, side_max=96, max_angle=30)
    rng = Recorder(substream(5, "ks"))
    sides = []
    while len(sides) < 10000:
        _, _, pixels = sample_patch(img, {}, rng, cfg, "negative")
        if pixels is not None:
            sides.append(rng.draws[2])
    sides = np.sort(sides)
    cdf = (sides - cfg.side_min) / (cfg.side_max - cfg.side_min)
    ecdf_hi = np.arange(1, len(sides) + 1) / len(sides)
    ecdf_lo = np.arange(0, len(sides)) / len(sides)
    ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(cdf - ecdf_lo).max())
    assert ks < 0.02


# -- epoch building --

def test_build_epoch_exact_histogram():
    labels = pool_labels([40] * 4)
    order = build_epoch(labels, (20, 35, 5000, 4945), substream(9, "epoch"))
    assert len(order) == 10000
    hist = np.bincount(labels[order], minlength=4)
    np.testing.assert_array_equal(hist, [20, 35, 5000, 4945])


def test_build_epoch_single_class():
    labels = pool_labels([0, 0, 0, 3])
    order = build_epoch(labels, (0, 0, 0, 10), substream(1, "epoch"))
    assert len(order) == 10 and set(order) == {0, 1, 2}


def test_build_epoch_deterministic():
    labels = pool_labels([30] * 4)
    a = build_epoch(labels, (5, 5, 20, 20), substream(4, "epoch"))
    b = build_epoch(labels, (5, 5, 20, 20), substream(4, "epoch"))
    np.testing.assert_array_equal(a, b)
    # without replacement where the pool is large enough
    for c, count in enumerate((5, 5, 20, 20)):
        drawn = a[labels[a] == c]
        assert len(set(drawn)) == len(drawn) == count


def test_build_epoch_empty_pool_rejected():
    with pytest.raises(EmptyPoolError, match="no benign patches"):
        build_epoch(pool_labels([2, 0, 2, 2]), (1, 1, 1, 1),
                    substream(0, "epoch"))


# -- patch cache --

def random_pools(size, sizes, seed=2):
    labels = pool_labels(sizes)
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (len(labels), size, size)).astype(np.float32), \
        labels


def test_patch_cache_roundtrip(tmp_path):
    pixels, labels = random_pools(8, [2, 1, 0, 2])
    path = tmp_path / "patches.bin"
    save_patch_cache(path, (pixels, labels))
    # header, then each array's name, rank and dims before its values
    assert path.stat().st_size == 12 + 21 + pixels.nbytes + 13 + 4 * len(labels)
    loaded_pixels, loaded_labels = load_patch_cache(path, patch_size=8)
    np.testing.assert_array_equal(loaded_pixels, pixels)
    np.testing.assert_array_equal(loaded_labels, labels)
    assert loaded_pixels.dtype == np.float32


def test_patch_cache_at_another_size_names_both(tmp_path):
    path = tmp_path / "patches.bin"
    save_patch_cache(path, random_pools(8, [1, 1, 1, 1]))
    with pytest.raises(FormatError, match="patches are 8x8, but patch.size "
                                          "is 16"):
        load_patch_cache(path, patch_size=16)


# -- training --

def separable_pools(rng, size=16, n=60):
    """Bright-blob "malignant" vs dark "benign" vs mid textures."""
    windows = []
    for i in range(n):
        base = rng.uniform(0.3, 0.5, (size, size)).astype(np.float32)
        bright = base.copy()
        bright[4:12, 4:12] += 0.5
        dark = base * 0.4
        neg = base + rng.uniform(0, 0.1)
        windows.append((bright, dark, base, neg))
    pixels = np.array([w[c] for c in range(len(PATCH_CLASSES))
                       for w in windows], dtype=np.float32)
    return pixels, pool_labels([n] * len(PATCH_CLASSES))


def test_checkpoint_cadence(tmp_path):
    pools = separable_pools(np.random.default_rng(0), n=10)
    cfg = PatchTrainConfig(epochs=10, save_every=2, batch_size=20, lr=3e-4,
                           plan_counts=(5, 5, 5, 5), seed=1)
    ckpts, history = train_patch_classifier(pools, tmp_path, cfg,
                                            patch_size=16, log=lambda *_: None)
    assert [e for e, _ in ckpts] == [2, 4, 6, 8, 10]
    assert len(history) == 10


def test_checkpoint_cadence_with_remainder(tmp_path):
    pools = separable_pools(np.random.default_rng(0), n=10)
    cfg = PatchTrainConfig(epochs=5, save_every=2, batch_size=20, lr=3e-4,
                           plan_counts=(5, 5, 5, 5), seed=1)
    ckpts, _ = train_patch_classifier(pools, tmp_path, cfg, patch_size=16,
                                      log=lambda *_: None)
    assert [e for e, _ in ckpts] == [2, 4, 5]
    assert len(ckpts) == math.ceil(cfg.epochs / cfg.save_every)


def test_training_loss_decreases_on_separable_data(tmp_path):
    pools = separable_pools(np.random.default_rng(3), n=120)
    cfg = PatchTrainConfig(epochs=1, save_every=1, batch_size=25, lr=3e-3,
                           plan_counts=(50, 50, 50, 50), seed=2)
    _, history = train_patch_classifier(pools, tmp_path, cfg, patch_size=16,
                                        log=lambda *_: None)
    losses = history[0]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops / (len(losses) - 1) >= 0.8


def test_min_patch_is_the_smallest_side_patchnet_maps():
    """``patch.size`` is refused below ``MIN_PATCH``: a forward runs at that
    side, and one pixel less leaves an empty map."""
    net = PatchNet(patch_size=MIN_PATCH, seed=0).eval()
    probs = net.predict_proba(np.zeros((2, MIN_PATCH, MIN_PATCH)))
    assert probs.shape == (2, len(PATCH_CLASSES))
    with pytest.raises(ValueError, match="not positive"):
        net.predict_proba(np.zeros((2, MIN_PATCH - 1, MIN_PATCH - 1)))


def test_lr_zero_keeps_parameters(tmp_path):
    pools = separable_pools(np.random.default_rng(4), n=10)
    cfg = PatchTrainConfig(epochs=1, save_every=1, batch_size=10, lr=0.0,
                           plan_counts=(5, 5, 5, 5), seed=3)
    net_before = PatchNet(patch_size=16, seed=cfg.seed)
    before = {k: v.copy() for k, v in net_before.state_dict().items()
              if not k.split(".")[-1].startswith("running_")}
    ckpts, _ = train_patch_classifier(pools, tmp_path, cfg, patch_size=16,
                                      log=lambda *_: None)
    from mscope.checkpoint import load_checkpoint
    after = load_checkpoint(ckpts[-1][1])
    # lr=0 fixes every parameter exactly; the BatchNorm running statistics
    # still move on train-mode forward passes, so they are not compared
    for k, v in before.items():
        assert after[k].dtype == v.dtype, k
        np.testing.assert_array_equal(after[k], v, err_msg=k)


def test_divergence_keeps_last_completed_epoch(tmp_path, monkeypatch):
    from mscope import patches
    pools = separable_pools(np.random.default_rng(5), n=10)
    cfg = PatchTrainConfig(epochs=3, save_every=2, batch_size=20, lr=3e-4,
                           plan_counts=(5, 5, 5, 5), seed=4)
    real_build = patches.build_epoch
    built = []

    def diverge(net, x):
        raise T.NumericsError("non-finite values produced: conv2d")

    def build_epoch(*args, **kwargs):
        built.append(True)
        if len(built) == 2:
            monkeypatch.setattr(PatchNet, "forward", diverge)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(patches, "build_epoch", build_epoch)
    ckpts, history = train_patch_classifier(pools, tmp_path / "run", cfg,
                                            patch_size=16, log=lambda *_: None)
    assert [e for e, _ in ckpts] == [1]
    assert len(history) == 1

    # the saved state is the one a clean one-epoch run ends with
    monkeypatch.undo()
    one = PatchTrainConfig(epochs=1, save_every=1, batch_size=20, lr=3e-4,
                           plan_counts=(5, 5, 5, 5), seed=4)
    ref, _ = train_patch_classifier(pools, tmp_path / "ref", one,
                                    patch_size=16, log=lambda *_: None)
    assert ckpts[0][1].read_bytes() == ref[0][1].read_bytes()


def test_eval_output_has_no_graph():
    net = PatchNet(patch_size=16, seed=6).eval()
    x = np.random.default_rng(7).uniform(0, 1, (3, 16, 16, 1))
    out = net(T.Tensor(x.astype(np.float32)))
    assert out._parents == () and out._backward is None


def test_predict_proba_refuses_a_train_mode_net():
    """predict_proba only reads the net, which threads may share: a
    train-mode net is refused, and left in train mode with its running
    statistics and gradient recording as they were."""
    net = PatchNet(patch_size=16, seed=8)
    x = np.random.default_rng(9).uniform(0, 1, (3, 16, 16))
    before = {k: v.copy() for k, v in net.state_dict().items()}
    with pytest.raises(T.GraphError, match="eval-mode"):
        net.predict_proba(x)
    assert net.training
    assert all(p.requires_grad for p in net.parameters())
    for k, v in net.state_dict().items():
        np.testing.assert_array_equal(v, before[k], err_msg=k)
    assert net.eval().predict_proba(x).shape == (3, 4)
