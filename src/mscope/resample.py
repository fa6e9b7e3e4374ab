"""Image resampling primitives: bilinear point sampling, separable bicubic
resize of channels-last stacks, and a small separable blur. All pure numpy,
so results are bit-reproducible across runs on the same platform.
"""

from __future__ import annotations

import functools

import numpy as np


def bilinear_sample(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample ``img`` (H, W) at fractional coordinates; callers keep points in range."""
    h, w = img.shape
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)
    fx = np.clip(xs - x0, 0.0, 1.0)
    tl = img[y0, x0]
    tr = img[y0, x1]
    bl = img[y1, x0]
    br = img[y1, x1]
    top = tl + (tr - tl) * fx
    bot = bl + (br - bl) * fx
    return top + (bot - top) * fy


def _cubic_kernel(t: np.ndarray) -> np.ndarray:
    a = -0.5
    at = np.abs(t)
    w = np.zeros_like(at)
    near = at <= 1.0
    far = (at > 1.0) & (at < 2.0)
    w[near] = (a + 2.0) * at[near] ** 3 - (a + 3.0) * at[near] ** 2 + 1.0
    w[far] = a * at[far] ** 3 - 5.0 * a * at[far] ** 2 + 8.0 * a * at[far] - 4.0 * a
    return w


@functools.lru_cache(maxsize=256)
def _cubic_taps(src: int, dst: int):
    """Source indices and weights, each (4, dst), of a 1-D cubic resize
    from ``src`` to ``dst`` samples.

    Output sample ``k`` sits at source coordinate ``(k + 0.5) * src / dst
    - 0.5``; its four taps are the Keys kernel (a = -0.5; Keys 1981, IEEE
    TASSP 29(6)) at the nearest sources, indices clamped at the borders and
    weights normalised to sum to 1. The arrays are cached, so they are
    read-only.
    """
    centers = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    base = np.floor(centers).astype(np.int64)
    offsets = np.arange(-1, 3)[:, None]
    idx = np.clip(base + offsets, 0, src - 1)
    wgt = _cubic_kernel(centers - (base + offsets))
    wgt /= wgt.sum(axis=0)
    idx.setflags(write=False)
    wgt.setflags(write=False)
    return idx, wgt


def _resize_axis(flat: np.ndarray, dst: int, pixel: int,
                 axis: int) -> np.ndarray:
    """Resample axis 0 or 1 of a 2-D array, along which a pixel is a run of
    ``pixel`` elements, to ``dst`` pixels: four weighted gathers, where
    element c of an output pixel takes element c of each tap."""
    idx, wgt = _cubic_taps(flat.shape[axis] // pixel, dst)
    idx = (idx[..., None] * pixel + np.arange(pixel)).reshape(4, -1)
    wgt = np.repeat(wgt, pixel, axis=1)
    shape = (-1, 1) if axis == 0 else (-1,)
    out = np.take(flat, idx[0], axis=axis)
    out *= wgt[0].reshape(shape)
    for i, w in zip(idx[1:], wgt[1:]):
        tap = np.take(flat, i, axis=axis)
        tap *= w.reshape(shape)
        out += tap
    return out


def bicubic_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable cubic-convolution resize of an (H, W, ...) stack, such as
    a channels-last (H, W, C) view, whose C (the product of the trailing
    axes) comes from the array; each channel is resized on its own. Rows
    are resampled first, then columns, whose taps gather whole pixels of
    the (H, W * C) view; an axis whose size does not change is copied as
    it is. Returns a new float64 (out_h, out_w, ...) array.
    """
    out = np.array(img, dtype=np.float64)
    h, w, *rest = out.shape
    pixel = int(np.prod(rest))
    flat = out.reshape(h, w * pixel)
    if h != out_h:
        flat = _resize_axis(flat, out_h, 1, axis=0)
    if w != out_w:
        flat = _resize_axis(flat, out_w, pixel, axis=1)
    return flat.reshape(out_h, out_w, *rest)


def _correlate1d(img: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    r = len(kernel) // 2
    pad = [(0, 0)] * img.ndim
    pad[axis] = (r, r)
    padded = np.pad(img, pad, mode="reflect")
    win = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=axis)
    return win @ kernel


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with a radius-3-sigma truncated kernel."""
    if sigma <= 0:
        return img.astype(np.float64, copy=True)
    r = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-r, r + 1)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    k /= k.sum()
    out = _correlate1d(img.astype(np.float64), k, axis=0)
    return _correlate1d(out, k, axis=1)
