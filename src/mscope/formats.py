"""Every file layout the stages pass their work through.

A file that does not parse raises ``FormatError`` naming the file and the
byte or the line, instead of whatever numpy or ``struct`` would raise.
Binary files are read through one ``Reader``, which checks the bytes left
before every read. Checkpoints, heatmaps and the patch cache are one
container of named float32 arrays under a four-byte magic (all integers
little-endian):

    magic | u32 version=1 | u32 array count
    per array: u16 name length | UTF-8 name | u8 rank | u32 dims... | f32 payload

Arrays are written in the order given, which is part of the bytes, and
read back as read-only views of the file's bytes; a value that is not
finite does not parse.

Tables are split, not parsed: UTF-8 text of a header line, then one line
per row (any line ending), fields joined by bare commas. With no quoting, a
field free of commas and line breaks reads back as written; a blank line is
a bad row. A loader checks the header and field counts, then its columns
left to right: of faults in several columns, the leftmost column's first
bad row is named.
"""

from __future__ import annotations

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
        any; ``self.payload[name]`` is where each array's values start. A
        NaN or infinity is refused at its byte."""
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
            arr = out[name] = self.array("<f4", dims, f"tensor {name!r}")
            if arr.size and not np.isfinite([arr.min(), arr.max()]).all():
                self.fail(f"tensor {name!r} holds a non-finite value", at=(
                    self.payload[name] + 4 * int(np.argmin(np.isfinite(arr)))))
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
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(str, row)) + "\n" for row in rows)


def read_table(path, header):
    """``(columns, where)``: each column's fields in row order by name, and
    ``where(i)``, the "path, line N" of row i. A file that is not UTF-8, a
    header other than ``header`` or a row of another field count raises
    ``FormatError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}") from None
    lines = text.removesuffix("\n").split("\n")
    if lines[0] != header:
        raise FormatError(f"{path}, line 1: unexpected header; "
                          f"expected {header}")
    names, rows = header.split(","), [line.split(",") for line in lines[1:]]

    def where(i):
        return f"{path}, line {i + 2}"
    checked([len(row) for row in rows], {len(names): True}.get, where,
            f"expected {len(names)} fields")       # a column of field counts
    return dict(zip(names, list(zip(*rows)) or [()] * len(names))), where


def checked(fields, convert, where, message):
    """``convert`` of each of a column's ``fields``, asked once per distinct
    field. A field it gives None for, or raises ``ValueError`` on, raises
    ``FormatError``: ``where(i)`` of its first row, then ``message``."""
    values = {}
    for f in set(fields):
        try:
            values[f] = convert(f)
        except ValueError:
            values[f] = None
    if None in values.values():
        i = next(i for i, f in enumerate(fields) if values[f] is None)
        raise FormatError(f"{where(i)}: " + message.format(fields[i]))
    return list(map(values.__getitem__, fields))
