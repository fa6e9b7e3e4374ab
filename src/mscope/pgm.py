"""Binary PGM ("P5") image files.

Exam images use maxval 65535 with big-endian 16-bit samples; lesion masks
use maxval 255 (0 background, 255 lesion).
"""

from __future__ import annotations

import re

import numpy as np

from .formats import Reader

# magic, width, height and maxval, separated by whitespace and comments,
# then the single whitespace byte before the raster; fields longer than
# ten digits are not a header (and would exceed int()'s digit limit)
_SEP = rb"(?:\s|#[^\n]*\n)+"
_HEADER = re.compile(rb"P5" + (_SEP + rb"(\d{1,10})") * 3 + rb"\s")


def write_pgm(path, img: np.ndarray):
    """Write a 2-D image as P5 with the maxval of its dtype: uint16 as
    big-endian samples under 65535, uint8 under 255; any other dtype raises
    ``ValueError``."""
    img = np.asarray(img)
    if img.dtype not in (np.uint16, np.uint8):
        raise ValueError(f"expected a uint16 or uint8 image, got {img.dtype}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{np.iinfo(img.dtype).max}\n".encode("ascii"))
        f.write(img.astype(img.dtype.newbyteorder(">")).tobytes())


def _read_header(r):
    """(height, width, maxval) of the P5 header that ``r`` starts with,
    consumed."""
    header = _HEADER.match(r.blob)
    if header is None:
        r.fail("bad binary PGM header")
    w, h, maxval = map(int, header.groups())
    r.take(header.end(), "header")
    if w == 0 or h == 0 or not 0 < maxval <= 0xFFFF:
        r.fail(f"bad PGM dims {w}x{h} or maxval {maxval}", at=0)
    return h, w, maxval


def pgm_dims(path):
    """(height, width) of a P5 file, read from its header alone: the
    raster is neither read nor decoded. A bad header fails as in
    ``read_pgm``."""
    with open(path, "rb") as f:
        head = f.read(64)
        while _HEADER.match(head) is None and (more := f.read(len(head))):
            head += more            # long comments: read on, doubling
    return _read_header(Reader(path, head))[:2]


def read_pgm(path) -> np.ndarray:
    """Read P5, returning uint16 (maxval > 255) or uint8."""
    r = Reader(path)
    h, w, maxval = _read_header(r)
    wide = maxval > 255
    arr = r.array(">u2" if wide else np.uint8, (h, w), "raster")
    r.end()
    return arr.astype(np.uint16 if wide else np.uint8)
