"""Binary checkpoint container.

Layout (all integers little-endian):
    magic "MSCK" | u32 version=1 | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 rank | u32 dims... | f32 payload

Payloads are written float32 regardless of in-memory dtype.
"""

from __future__ import annotations

import struct

import numpy as np

from .layers import StateDictError

MAGIC = b"MSCK"
VERSION = 1


class CheckpointError(IOError):
    pass


def save_checkpoint(path, tensors: dict):
    """Write named arrays in insertion order; order is part of the bytes."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=np.float32)
            enc = name.encode("utf-8")
            if len(enc) > 0xFFFF:
                raise CheckpointError(f"tensor name too long: {name!r}")
            if arr.ndim > 0xFF:
                raise CheckpointError(f"tensor rank too large: {arr.ndim}")
            f.write(struct.pack("<H", len(enc)))
            f.write(enc)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f4").tobytes())


def load_checkpoint(path) -> dict:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    off = 12
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off:off + nlen].decode("utf-8")
        off += nlen
        (rank,) = struct.unpack_from("<B", blob, off)
        off += 1
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        n = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(dims)
        off += 4 * n
        out[name] = arr.copy()
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def load_into(module, path):
    """Load the checkpoint at ``path`` into ``module``. A state that does
    not fit the module raises ``StateDictError`` naming ``path`` and the
    first key at fault."""
    try:
        module.load_state_dict(load_checkpoint(path))
    except StateDictError as exc:
        raise StateDictError(f"{path}: {exc}") from None
