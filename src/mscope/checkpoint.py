"""Binary checkpoint container.

Layout (all integers little-endian):
    magic "MSCK" | u32 version=1 | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 rank | u32 dims... | f32 payload

Payloads are written float32 regardless of in-memory dtype. A file that
does not parse raises ``binary.FormatError``.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np

from .binary import Reader
from .layers import StateDictError

MAGIC = b"MSCK"
VERSION = 1


def save_checkpoint(path, tensors: dict):
    """Write named arrays in insertion order; order is part of the bytes."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            enc = name.encode("utf-8")
            if len(enc) > 0xFFFF:
                raise ValueError(f"tensor name too long: {name!r}")
            if arr.ndim > 0xFF:
                raise ValueError(f"tensor rank too large: {arr.ndim}")
            f.write(struct.pack("<H", len(enc)))
            f.write(enc)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f4").tobytes())


def load_checkpoint(path) -> dict:
    r = Reader(path)
    if r.take(len(MAGIC), "magic") != MAGIC:
        r.fail(f"bad magic {r.blob[:4]!r}, expected {MAGIC!r}", at=0)
    version, count = r.unpack("<II", "header")
    if version != VERSION:
        r.fail(f"unsupported version {version}", at=len(MAGIC))
    out = {}
    for _ in range(count):
        at = r.off
        (nlen,) = r.unpack("<H", "name length")
        try:
            name = str(r.take(nlen, "tensor name"), "utf-8")
        except UnicodeDecodeError:
            r.fail("tensor name is not UTF-8", at=at + 2)
        if name in out:
            r.fail(f"duplicate tensor {name!r}", at=at)
        (rank,) = r.unpack("<B", "rank")
        dims = r.unpack(f"<{rank}I", "dims")
        out[name] = r.array("<f4", dims, f"tensor {name!r}").copy()
    r.end()
    return out


@contextmanager
def named(path):
    """Prefix a ``StateDictError`` raised inside with ``path``, the
    checkpoint whose state does not fit."""
    try:
        yield
    except StateDictError as exc:
        raise StateDictError(f"{path}: {exc}") from None


def load_into(module, path):
    """Load the checkpoint at ``path`` into ``module``. A state that does
    not fit the module raises ``StateDictError`` naming ``path`` and the
    first key at fault."""
    with named(path):
        module.load_state_dict(load_checkpoint(path))
