import numpy as np
import pytest

from mscope.heatmaps import (StridePlan, generate_heatmaps,
                             heatmap_breast_score, load_heatmap,
                             make_stride_plan, save_heatmap, stride_list)
from mscope.seeding import substream


def rng():
    return substream(0, "strides")


# -- stride planning --

def test_stride_exact_multiple():
    assert stride_list(466, 256, 70, rng()) == [70, 70, 70]


def test_stride_single_step_remainder():
    assert stride_list(300, 256, 70, rng()) == [44]


def test_stride_decrement_split():
    strides = stride_list(401, 256, 70, rng())
    assert sorted(strides) == [48, 48, 49]
    assert sum(strides) == 145


def test_stride_equal_extent_gives_empty():
    assert stride_list(256, 256, 70, rng()) == []


def test_stride_small_extent_rejected():
    with pytest.raises(ValueError):
        stride_list(255, 256, 70, rng())


def test_stride_invariants_fuzz():
    r = substream(1, "fuzz")
    for extent in range(256, 256 + 5001):
        strides = stride_list(extent, 256, 70, r)
        assert sum(strides) == extent - 256
        assert all(s <= 70 for s in strides)
        if strides:
            assert max(strides) - min(strides) <= 1


# -- heatmap generation --

def constant_predictor(p_mal, p_ben):
    def predict(windows):
        n = len(windows)
        rest = (1.0 - p_mal - p_ben) / 2.0
        return np.tile([p_mal, p_ben, rest, rest], (n, 1))
    return predict


def test_constant_model_uniform_plane():
    img = np.random.default_rng(0).uniform(0, 1, (40, 33))
    plan = make_stride_plan(img.shape, 16, 7, rng())
    mal, ben = generate_heatmaps(img, constant_predictor(0.7, 0.1), plan)
    np.testing.assert_allclose(mal, 0.7, atol=1e-6)
    np.testing.assert_allclose(ben, 0.1, atol=1e-6)
    assert mal.shape == img.shape


def test_single_window_case():
    img = np.zeros((16, 16))
    plan = make_stride_plan(img.shape, 16, 7, rng())

    def predict(windows):
        assert len(windows) == 1
        return np.array([[0.9, 0.25, 0.0, 0.0]])

    mal, ben = generate_heatmaps(img, predict, plan)
    np.testing.assert_allclose(mal, 0.9)
    np.testing.assert_allclose(ben, 0.25)


def test_overlap_pairwise_means():
    """Three overlapping windows along one axis: overlaps average pairwise."""
    img = np.zeros((16, 32))
    plan = StridePlan(vertical=[], horizontal=[8, 8], patch_size=16)
    outputs = iter([0.2, 0.6, 1.0])

    def predict(windows):
        return np.array([[next(outputs), 0.0, 0.5, 0.5] for _ in windows])

    mal, _ = generate_heatmaps(img, predict, plan)
    np.testing.assert_allclose(mal[:, 0:8], 0.2, atol=1e-7)
    np.testing.assert_allclose(mal[:, 8:16], 0.4, atol=1e-7)
    np.testing.assert_allclose(mal[:, 16:24], 0.8, atol=1e-7)
    np.testing.assert_allclose(mal[:, 24:32], 1.0, atol=1e-7)


def brute_force_heatmap(img, plan, probs_per_window):
    h, w = img.shape
    p = plan.patch_size
    sums = np.zeros((h, w))
    counts = np.zeros((h, w))
    k = 0
    for y in plan.positions(0):
        for x in plan.positions(1):
            for yy in range(y, y + p):
                for xx in range(x, x + p):
                    sums[yy, xx] += probs_per_window[k]
                    counts[yy, xx] += 1
            k += 1
    return sums / counts


def test_heatmap_matches_bruteforce_oracle():
    r = substream(3, "oracle")
    for trial in range(4):
        h = int(r.integers(20, 64))
        w = int(r.integers(20, 64))
        img = r.uniform(0, 1, (h, w))
        plan = make_stride_plan((h, w), 16, int(r.integers(5, 12)), r)
        n_windows = (len(plan.vertical) + 1) * (len(plan.horizontal) + 1)
        probs = r.uniform(0, 1, n_windows)

        def predict(windows, probs=probs):
            rest = (1 - probs) / 2
            return np.stack([probs, 1 - probs, rest, rest], axis=1)

        mal, ben = generate_heatmaps(img, predict, plan)
        expected = brute_force_heatmap(img, plan, probs)
        np.testing.assert_allclose(mal, expected, atol=1e-6)
        np.testing.assert_allclose(ben, brute_force_heatmap(img, plan, 1 - probs),
                                   atol=1e-6)
        assert (mal >= 0).all() and (mal <= 1).all()


def test_plan_dims_mismatch_rejected():
    img = np.zeros((20, 20))
    plan = make_stride_plan((24, 24), 16, 7, rng())
    with pytest.raises(ValueError):
        generate_heatmaps(img, constant_predictor(0.5, 0.5), plan)


# -- breast scores --

def test_breast_score_zero_maps():
    maps = [(np.zeros((4, 4)), np.zeros((4, 4)))]
    assert heatmap_breast_score(maps) == (0.0, 0.0)


def test_breast_score_max_across_views():
    cc = (np.full((4, 4), 0.3), np.full((4, 4), 0.2))
    mlo = (np.full((5, 5), 0.9), np.full((5, 5), 0.1))
    assert heatmap_breast_score([cc, mlo]) == (0.9, 0.2)


def test_breast_score_matches_pixel_scan():
    r = substream(4, "scan")
    maps = [(r.uniform(0, 1, (9, 7)), r.uniform(0, 1, (9, 7)))
            for _ in range(3)]
    p_mal, p_ben = heatmap_breast_score(maps)
    best_mal = max(float(m[y, x]) for m, _ in maps
                   for y in range(9) for x in range(7))
    best_ben = max(float(b[y, x]) for _, b in maps
                   for y in range(9) for x in range(7))
    assert p_mal == best_mal and p_ben == best_ben


def test_breast_score_empty_rejected():
    with pytest.raises(ValueError):
        heatmap_breast_score([])


# -- file format --

def test_heatmap_file_roundtrip(tmp_path):
    r = substream(5, "io")
    mal = r.uniform(0, 1, (11, 13)).astype(np.float32)
    ben = r.uniform(0, 1, (11, 13)).astype(np.float32)
    path = tmp_path / "x.mshm"
    save_heatmap(path, mal, ben)
    blob = path.read_bytes()
    assert blob[:4] == b"MSHM"
    assert int.from_bytes(blob[4:8], "little") == 1    # version
    assert int.from_bytes(blob[8:12], "little") == 2   # tensor count
    assert blob[14:23] == b"malignant"
    assert int.from_bytes(blob[24:28], "little") == 11
    assert int.from_bytes(blob[28:32], "little") == 13
    m2, b2 = load_heatmap(path)
    np.testing.assert_array_equal(m2, mal)
    np.testing.assert_array_equal(b2, ben)
