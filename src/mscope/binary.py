"""Bounds-checked reading of the binary input formats.

Checkpoints, heatmaps, PGM images and the patch cache are all parsed
through one ``Reader``. It checks the bytes left before every read, so a
file that is truncated or garbled raises ``FormatError``, naming the path
and the byte offset, instead of whatever numpy or ``struct`` would raise.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np


class FormatError(IOError):
    """A binary input file that does not parse."""


class Reader:
    """Sequential reads over a whole file's bytes, each checked first."""

    def __init__(self, path):
        self.path = path
        self.blob = Path(path).read_bytes()
        self.off = 0

    def fail(self, what, at=None):
        at = self.off if at is None else at
        raise FormatError(f"{self.path}: {what} at byte {at}")

    def take(self, size, what):
        """A view of the next ``size`` bytes, consumed."""
        left = len(self.blob) - self.off
        if size > left:
            self.fail(f"truncated {what}: {size} bytes needed, {left} left")
        self.off += size
        return memoryview(self.blob)[self.off - size:self.off]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, shape, what):
        """A read-only ``shape`` array over the next bytes; callers copy."""
        dtype = np.dtype(dtype)
        raw = self.take(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)

    def end(self):
        if self.off < len(self.blob):
            self.fail(f"{len(self.blob) - self.off} trailing bytes")
