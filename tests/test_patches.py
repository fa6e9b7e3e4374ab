import math

import numpy as np
import pytest

from mscope import tensor as T
from mscope.patches import (EpochPlan, PATCH_CLASSES, PatchConfig, PatchNet,
                            PatchSample, PatchTrainConfig, _extract_window,
                            build_epoch, class_weights, load_patch_cache,
                            sample_patch, save_patch_cache,
                            train_patch_classifier)
from mscope.seeding import substream


def make_sample(label, side=32.0, size=16, fill=0.5):
    return PatchSample(pixels=np.full((size, size), fill, dtype=np.float32),
                       label=label, source_id="t", center=(0, 0),
                       side=side, angle=0.0)


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

    sample, reason = sample_patch(img, {}, Fixed(), cfg, "negative",
                                  source_id="")
    assert sample is None and reason == "outside_image"


def test_all_zero_window_rejected():
    img = np.zeros((64, 64), dtype=np.float32)
    cfg = PatchConfig(patch_size=8, side_min=8, side_max=12, max_angle=10)
    rng = substream(3, "zero")
    rejected = 0
    for _ in range(50):
        sample, reason = sample_patch(img, {}, rng, cfg, "negative",
                                      source_id="")
        assert sample is None
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

    draw_rng = substream(7, "overlap")
    checked = 0
    while checked < 1000:
        sample, reason = sample_patch(img, points, draw_rng, cfg, "segmented",
                                      source_id="")
        if reason == "outside_image":
            continue
        checked += 1
        # independent oracle: test every pixel against the rotated window
        if sample is not None:
            cy, cx = sample.center
            side, rad = sample.side, math.radians(sample.angle)
        else:
            continue  # mixed_classes windows have no recorded geometry
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
        assert not (hit_mal and hit_ben)
        if hit_mal:
            expected = "malignant"
        elif hit_ben:
            expected = "benign"
        else:
            expected = "outside"
        assert PATCH_CLASSES[sample.label] == expected


def test_side_distribution_uniform():
    """Accepted sides stay uniform (KS < 0.02) on a large fixture."""
    img = np.full((2048, 2048), 0.5)
    cfg = PatchConfig(patch_size=8, side_min=32, side_max=96, max_angle=30)
    rng = substream(5, "ks")
    sides = []
    while len(sides) < 10000:
        sample, _ = sample_patch(img, {}, rng, cfg, "negative", source_id="")
        if sample is not None:
            sides.append(sample.side)
    sides = np.sort(sides)
    cdf = (sides - cfg.side_min) / (cfg.side_max - cfg.side_min)
    ecdf_hi = np.arange(1, len(sides) + 1) / len(sides)
    ecdf_lo = np.arange(0, len(sides)) / len(sides)
    ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(cdf - ecdf_lo).max())
    assert ks < 0.02


# -- epoch building --

def test_build_epoch_exact_histogram():
    pools = {c: [make_sample(i, size=8)] * 40
             for i, c in enumerate(PATCH_CLASSES)}
    plan = EpochPlan((20, 35, 5000, 4945))
    samples = build_epoch(pools, plan, substream(9, "epoch"))
    assert len(samples) == 10000
    hist = np.bincount([s.label for s in samples], minlength=4)
    np.testing.assert_array_equal(hist, [20, 35, 5000, 4945])


def test_build_epoch_single_class():
    pools = {"negative": [make_sample(3, size=8)] * 3}
    samples = build_epoch(pools, EpochPlan((0, 0, 0, 10)),
                          substream(1, "epoch"))
    assert len(samples) == 10 and all(s.label == 3 for s in samples)


def test_build_epoch_deterministic():
    pools = {c: [make_sample(i, side=float(k), size=8) for k in range(30)]
             for i, c in enumerate(PATCH_CLASSES)}
    plan = EpochPlan((5, 5, 20, 20))
    a = build_epoch(pools, plan, substream(4, "epoch"))
    b = build_epoch(pools, plan, substream(4, "epoch"))
    assert [(s.label, s.side) for s in a] == [(s.label, s.side) for s in b]


def test_build_epoch_empty_pool_rejected():
    pools = {c: [] for c in PATCH_CLASSES}
    with pytest.raises(ValueError):
        build_epoch(pools, EpochPlan((1, 0, 0, 0)), substream(0, "epoch"))


def test_epoch_plan_validation():
    with pytest.raises(ValueError):
        EpochPlan((0, 0, 0, 0))
    with pytest.raises(ValueError):
        EpochPlan((1, 2, 3))


# -- patch cache --

def test_patch_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    samples = [PatchSample(pixels=rng.uniform(0, 1, (8, 8)).astype(np.float32),
                           label=i % 4, source_id="x", center=(1, 2),
                           side=40.0 + i, angle=5.0)
               for i in range(5)]
    path = tmp_path / "patches.bin"
    save_patch_cache(path, samples)
    loaded = load_patch_cache(path, patch_size=8)
    assert [s.label for s in loaded] == [s.label for s in samples]
    assert [s.side for s in loaded] == [float(round(s.side)) for s in samples]
    for a, b in zip(loaded, samples):
        np.testing.assert_array_equal(a.pixels, b.pixels)


# -- training --

def separable_pools(rng, size=16, n=60):
    """Bright-blob "malignant" vs dark "benign" vs mid textures."""
    pools = {c: [] for c in PATCH_CLASSES}
    for i in range(n):
        base = rng.uniform(0.3, 0.5, (size, size)).astype(np.float32)
        bright = base.copy()
        bright[4:12, 4:12] += 0.5
        dark = base * 0.4
        pools["malignant"].append(PatchSample(bright, 0, "m", (0, 0), 16, 0))
        pools["benign"].append(PatchSample(dark.astype(np.float32), 1, "b",
                                           (0, 0), 16, 0))
        pools["outside"].append(PatchSample(base, 2, "o", (0, 0), 16, 0))
        neg = base + rng.uniform(0, 0.1)
        pools["negative"].append(PatchSample(neg.astype(np.float32), 3, "n",
                                             (0, 0), 16, 0))
    return pools


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


def test_predict_proba_keeps_train_mode_gradients():
    net = PatchNet(patch_size=16, seed=8)
    x = np.random.default_rng(9).uniform(0, 1, (3, 16, 16))
    probs = net.predict_proba(x)
    assert probs.shape == (3, 4)
    assert net.training
    assert all(p.requires_grad for p in net.parameters())
    assert net(T.Tensor(x[..., None].astype(np.float32)))._backward is not None
