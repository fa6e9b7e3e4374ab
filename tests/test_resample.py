import numpy as np
import pytest

from mscope.resample import (_cubic_kernel, bicubic_resize, bilinear_sample,
                             gaussian_blur)


def _resize_matrix(src, dst):
    """Dense (dst, src) map realizing 1-D convolution-based cubic resize:
    the reference the banded resize is checked against."""
    centers = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    base = np.floor(centers).astype(np.int64)
    mat = np.zeros((dst, src))
    for tap in range(-1, 3):
        idx = np.clip(base + tap, 0, src - 1)
        wgt = _cubic_kernel(centers - (base + tap))
        np.add.at(mat, (np.arange(dst), idx), wgt)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


def test_bilinear_at_pixel_centers_is_exact():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (9, 11))
    ys, xs = np.meshgrid(np.arange(9.0), np.arange(11.0), indexing="ij")
    np.testing.assert_allclose(bilinear_sample(img, ys, xs), img, atol=1e-12)


def test_bilinear_midpoint_average():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    v = bilinear_sample(img, np.array([0.5]), np.array([0.5]))
    np.testing.assert_allclose(v, [1.5])


def test_bicubic_same_size_identity():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (7, 5))
    np.testing.assert_array_equal(bicubic_resize(img, 7, 5), img)


@pytest.mark.parametrize("out_h,out_w", [(17, 12), (40, 31), (17, 31),
                                         (23, 12), (23, 19)])
def test_bicubic_stack_matches_dense_reference(out_h, out_w):
    # (23, 19) planes: downscale, upscale, mixed, and one axis unchanged;
    # a channels-last (H, W, 3) stack, each channel resized on its own
    stack = np.random.default_rng(4).uniform(0, 1, (23, 19, 3)) \
        .astype(np.float32)
    wy = _resize_matrix(23, out_h)
    wx = _resize_matrix(19, out_w)
    ref = np.stack([wy @ stack[..., c].astype(np.float64) @ wx.T
                    for c in range(3)], axis=-1)
    out = bicubic_resize(stack, out_h, out_w)
    assert out.dtype == np.float64 and out.shape == (out_h, out_w, 3)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
    for c in range(3):
        np.testing.assert_array_equal(
            bicubic_resize(stack[..., c], out_h, out_w), out[..., c])


def test_bicubic_preserves_constants():
    img = np.full((10, 12), 3.7)
    out = bicubic_resize(img, 17, 9)
    np.testing.assert_allclose(out, 3.7, atol=1e-9)


def test_bicubic_preserves_linear_ramp_interior():
    yy = np.linspace(0, 1, 32)[:, None] * np.ones((1, 24))
    out = bicubic_resize(yy, 16, 12)
    ref = np.linspace(0, 1, 32)
    # cubic convolution reproduces affine functions away from the borders
    expected = (np.arange(16) + 0.5) * 2 - 0.5
    interior = slice(2, 14)
    np.testing.assert_allclose(out[interior, 5],
                               ref[0] + (ref[1] - ref[0]) *
                               expected[interior], atol=1e-6)


def test_blur_preserves_mean_and_smooths():
    rng = np.random.default_rng(2)
    img = rng.standard_normal((64, 64))
    out = gaussian_blur(img, 2.0)
    assert abs(out.mean() - img.mean()) < 0.02
    assert out.var() < img.var() * 0.2


def test_blur_zero_sigma_is_copy():
    img = np.random.default_rng(3).standard_normal((8, 8))
    np.testing.assert_array_equal(gaussian_blur(img, 0.0), img)
