"""Every file layout the stages pass their work through.

A file that does not parse raises ``FormatError`` naming the file and the
byte or the line, instead of whatever numpy, ``struct`` or ``csv`` would
raise. Binary files are read through one ``Reader``, which checks the
bytes left before every read. Checkpoints, heatmaps and the patch cache
are one container of named float32 arrays under a four-byte magic (all
integers little-endian):

    magic | u32 version=1 | u32 array count
    per array: u16 name length | UTF-8 name | u8 rank | u32 dims... | f32 payload

Arrays are written in the order given, which is part of the bytes, and
read back as read-only views of the file's bytes.

Tables are CSV: a header line of comma-separated names, then one line per
row with one field per name, unquoted. ``read_table`` checks the header
and each row's field count, and yields each row with its "path, line N"
location for the caller's own checks to name.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

VERSION = 1


class FormatError(IOError):
    """An input file that does not parse."""


class Reader:
    """Sequential reads over a whole file's bytes, each checked first."""

    def __init__(self, path, blob=None):
        """``blob``, when given, stands for the file's first bytes."""
        self.path = path
        self.blob = Path(path).read_bytes() if blob is None else blob
        self.off = 0
        self.payload = {}       # array name -> byte offset of its payload

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
        """A read-only ``shape`` array over the next bytes."""
        dtype = np.dtype(dtype)
        raw = self.take(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)

    def end(self):
        if self.off < len(self.blob):
            self.fail(f"{len(self.blob) - self.off} trailing bytes")

    def arrays(self, magic, names):
        """The file as a container under ``magic``: name -> array, in file
        order. ``names`` are the arrays it must hold in order, or None for
        any; ``self.payload[name]`` is where each array's values start."""
        if self.take(len(magic), "magic") != magic:
            self.fail(f"bad magic {self.blob[:4]!r}, expected {magic!r}", at=0)
        version, count = self.unpack("<II", "header")
        if version != VERSION:
            self.fail(f"unsupported version {version}", at=len(magic))
        if names is not None and count != len(names):
            self.fail(f"{count} tensors, expected {len(names)}",
                      at=len(magic) + 4)
        out = {}
        for i in range(count):
            at = self.off
            (nlen,) = self.unpack("<H", "name length")
            try:
                name = str(self.take(nlen, "tensor name"), "utf-8")
            except UnicodeDecodeError:
                self.fail("tensor name is not UTF-8", at=at + 2)
            if name in out:
                self.fail(f"duplicate tensor {name!r}", at=at)
            if names is not None and name != names[i]:
                self.fail(f"tensor {name!r}, expected {names[i]!r}", at=at)
            (rank,) = self.unpack("<B", "rank")
            dims = self.unpack(f"<{rank}I", "dims")
            self.payload[name] = self.off
            out[name] = self.array("<f4", dims, f"tensor {name!r}")
        self.end()
        return out


def save_arrays(path, magic, arrays: dict):
    """Write named arrays as a container under ``magic``."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<II", VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            enc = name.encode("utf-8")
            f.write(struct.pack(f"<H{len(enc)}sB{arr.ndim}I", len(enc), enc,
                                arr.ndim, *arr.shape))
            f.write(arr)


def write_table(path, header, rows):
    """Write the ``header`` line, then each row's fields joined by commas."""
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def read_table(path, header):
    """Yield ``(where, row)`` for each row of the table at ``path``: the row
    as a dict by column name, and "path, line N". A header other than
    ``header`` or a row with another number of fields raises
    ``FormatError``."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != header.split(","):
            raise FormatError(f"{path}, line 1: unexpected header; "
                              f"expected {header}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row or None in row.values():
                raise FormatError(f"{where}: expected "
                                  f"{len(reader.fieldnames)} fields")
            yield where, row
