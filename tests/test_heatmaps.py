import numpy as np
import pytest

from mscope.heatmaps import (generate_heatmaps, heatmap_breast_score,
                             load_heatmap, save_heatmap, stride_list)
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
    mal, ben = generate_heatmaps(img, constant_predictor(0.7, 0.1), 16, 7,
                                 rng())
    np.testing.assert_allclose(mal, 0.7, atol=1e-6)
    np.testing.assert_allclose(ben, 0.1, atol=1e-6)
    assert mal.shape == img.shape


def test_single_window_case():
    img = np.zeros((16, 16))

    def predict(windows):
        assert len(windows) == 1
        return np.array([[0.9, 0.25, 0.0, 0.0]])

    mal, ben = generate_heatmaps(img, predict, 16, 7, rng())
    np.testing.assert_allclose(mal, 0.9)
    np.testing.assert_allclose(ben, 0.25)


def test_overlap_pairwise_means():
    """Three overlapping windows along one axis: overlaps average pairwise."""
    img = np.zeros((16, 32))
    outputs = iter([0.2, 0.6, 1.0])

    def predict(windows):
        return np.array([[next(outputs), 0.0, 0.5, 0.5] for _ in windows])

    mal, _ = generate_heatmaps(img, predict, 16, 8, rng())
    np.testing.assert_allclose(mal[:, 0:8], 0.2, atol=1e-7)
    np.testing.assert_allclose(mal[:, 8:16], 0.4, atol=1e-7)
    np.testing.assert_allclose(mal[:, 16:24], 0.8, atol=1e-7)
    np.testing.assert_allclose(mal[:, 24:32], 1.0, atol=1e-7)


def window_starts(dims, p, stride, r):
    """Each axis's window starts, drawn from ``r`` as ``generate_heatmaps``
    draws its strides: rows first."""
    return [[0, *np.cumsum(stride_list(extent, p, stride, r))]
            for extent in dims]


def brute_force_heatmap(dims, starts, p, probs_per_window):
    h, w = dims
    sums = np.zeros((h, w))
    counts = np.zeros((h, w))
    k = 0
    for y in starts[0]:
        for x in starts[1]:
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
        stride = int(r.integers(5, 12))
        starts = window_starts((h, w), 16, stride, substream(3, "grid", trial))
        probs = r.uniform(0, 1, len(starts[0]) * len(starts[1]))

        def predict(windows, probs=probs):
            rest = (1 - probs) / 2
            return np.stack([probs, 1 - probs, rest, rest], axis=1)

        mal, ben = generate_heatmaps(img, predict, 16, stride,
                                     substream(3, "grid", trial))
        expected = brute_force_heatmap((h, w), starts, 16, probs)
        np.testing.assert_allclose(mal, expected, atol=1e-6)
        np.testing.assert_allclose(
            ben, brute_force_heatmap((h, w), starts, 16, 1 - probs),
            atol=1e-6)
        assert (mal >= 0).all() and (mal <= 1).all()


def loop_paint(dims, starts, p, probs):
    """The per-window paint loop: float64 window sums and counts, added
    window after window in row-major grid order, then cast to float32."""
    sums = np.zeros(dims + (2,), dtype=np.float64)
    count = np.zeros(dims, dtype=np.float64)
    k = 0
    for y in starts[0]:
        for x in starts[1]:
            sums[y:y + p, x:x + p, 0] += probs[k, 0]
            sums[y:y + p, x:x + p, 1] += probs[k, 1]
            count[y:y + p, x:x + p] += 1.0
            k += 1
    return tuple((sums[..., i] / count).astype(np.float32) for i in (0, 1))


def test_planes_equal_the_per_window_loop():
    """The cover-matrix planes equal those of the per-window loop, value
    for value, on seeded grids with strides from 1 to the patch and on
    softmax outputs of logits scaled by up to 40, whose smallest
    probabilities lie below 1e-100."""
    r = substream(6, "paint")
    for case in range(60):
        p = int(r.integers(4, 33))
        dims = (int(r.integers(p, 3 * p + 20)), int(r.integers(p, 3 * p + 20)))
        stride = int(r.integers(1, p + 1))
        scale = float(r.choice([0.5, 5.0, 40.0]))
        drawn = []

        def predict(windows):
            z = r.standard_normal((len(windows), 4)) * scale
            e = np.exp(z - z.max(axis=1, keepdims=True))
            drawn.append(e / e.sum(axis=1, keepdims=True))
            return drawn[-1]

        planes = generate_heatmaps(r.uniform(0, 1, dims), predict, p, stride,
                                   substream(6, "grid", case))
        starts = window_starts(dims, p, stride, substream(6, "grid", case))
        for got, want in zip(planes, loop_paint(dims, starts, p, drawn[0])):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want)


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
