"""Binary PGM ("P5") image files.

Exam images use maxval 65535 with big-endian 16-bit samples; lesion masks
use maxval 255 (0 background, 255 lesion).
"""

from __future__ import annotations

import re

import numpy as np

from .binary import Reader

# magic, width, height and maxval, separated by whitespace and comments,
# then the single whitespace byte before the raster; fields longer than
# ten digits are not a header (and would exceed int()'s digit limit)
_SEP = rb"(?:\s|#[^\n]*\n)+"
_HEADER = re.compile(rb"P5" + (_SEP + rb"(\d{1,10})") * 3 + rb"\s")


def write_pgm16(path, img: np.ndarray):
    img = np.asarray(img)
    if img.dtype != np.uint16:
        raise ValueError(f"expected uint16 image, got {img.dtype}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(img.astype(">u2").tobytes())


def write_pgm8(path, img: np.ndarray):
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError(f"expected uint8 image, got {img.dtype}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read P5, returning uint16 (maxval > 255) or uint8."""
    r = Reader(path)
    header = _HEADER.match(r.blob)
    if header is None:
        r.fail("bad binary PGM header")
    w, h, maxval = map(int, header.groups())
    r.take(header.end(), "header")
    if w == 0 or h == 0 or not 0 < maxval <= 0xFFFF:
        r.fail(f"bad PGM dims {w}x{h} or maxval {maxval}", at=0)
    wide = maxval > 255
    arr = r.array(">u2" if wide else np.uint8, (h, w), "raster")
    r.end()
    return arr.astype(np.uint16 if wide else np.uint8)
