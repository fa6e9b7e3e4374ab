"""Truncated and garbled binary inputs raise ``FormatError``, nothing else."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mscope.binary import FormatError
from mscope.checkpoint import load_checkpoint, save_checkpoint
from mscope.heatmaps import load_heatmap, save_heatmap
from mscope.patches import PatchSample, load_patch_cache, save_patch_cache
from mscope.pgm import read_pgm, write_pgm8, write_pgm16

CACHE_SIDE = 3
CACHE_RECORD = 8 + 4 * CACHE_SIDE * CACHE_SIDE


def _valid_files():
    rng = np.random.default_rng(0)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    writers = {
        "ckpt": lambda p: save_checkpoint(p, {"a.weight": f32(2, 1, 3),
                                              "b": f32(4), "s": f32()}),
        "mshm": lambda p: save_heatmap(p, f32(3, 5), f32(3, 5)),
        "pgm16": lambda p: write_pgm16(
            p, rng.integers(0, 65536, (4, 3)).astype(np.uint16)),
        "pgm8": lambda p: write_pgm8(
            p, rng.integers(0, 256, (3, 5)).astype(np.uint8)),
        "cache": lambda p: save_patch_cache(p, [
            PatchSample(pixels=f32(CACHE_SIDE, CACHE_SIDE), label=i,
                        source_id="x", center=(0, 0), side=9.0, angle=0.0)
            for i in range(3)]),
    }
    blobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in writers.items():
            path = Path(tmp) / name
            write(path)
            blobs[name] = path.read_bytes()
    return blobs


VALID = _valid_files()
LOADERS = {
    "ckpt": load_checkpoint, "mshm": load_heatmap, "pgm16": read_pgm,
    "pgm8": read_pgm,
    "cache": lambda p: load_patch_cache(p, patch_size=CACHE_SIDE),
}


def _load(fmt, blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"in.{fmt}"
        path.write_bytes(blob)
        return LOADERS[fmt](path)


@pytest.mark.parametrize("fmt", sorted(VALID))
def test_valid_files_load(fmt):
    _load(fmt, VALID[fmt])


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(sorted(VALID)), data=st.data())
def test_truncated_file_raises_format_error(fmt, data):
    blob = VALID[fmt]
    cut = data.draw(st.integers(0, len(blob) - 1))
    if fmt == "cache" and cut % CACHE_RECORD == 0:
        # a cache cut between records is a shorter, valid cache
        assert len(_load(fmt, blob[:cut])) == cut // CACHE_RECORD
        return
    with pytest.raises(FormatError, match=r"in\.\w+: .* at byte \d+"):
        _load(fmt, blob[:cut])


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(sorted(VALID)), data=st.data())
def test_garbled_file_loads_or_raises_format_error(fmt, data):
    blob = bytearray(VALID[fmt])
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(0, 255)),
                               min_size=1, max_size=4))
    for at, value in edits:
        blob[at] = value
    try:
        _load(fmt, bytes(blob))
    except FormatError:
        pass


@pytest.mark.parametrize("fmt, blob, detail", [
    ("mshm", b"NOPE" + bytes(12), "bad magic b'NOPE', expected b'MSHM' at byte 0"),
    ("mshm", VALID["mshm"][:20], "truncated malignant plane: 60 bytes needed, "
                                 "4 left at byte 16"),
    ("ckpt", VALID["ckpt"] + b"\0", "1 trailing bytes at byte"),
    ("pgm16", b"P5\n4 x\n65535\n", "bad binary PGM header at byte 0"),
    ("pgm8", b"P5\n0 3\n255\n", "bad PGM dims 0x3 or maxval 255 at byte 0"),
    ("pgm8", b"P5\n" + b"9" * 5000 + b" 3\n255\n",
     "bad binary PGM header at byte 0"),
    ("cache", b"\x04\0\0\0" + VALID["cache"][4:],
     "label 4 is not a patch class index at byte 0"),
])
def test_error_names_what_and_where(fmt, blob, detail):
    with pytest.raises(FormatError) as exc:
        _load(fmt, blob)
    assert detail in str(exc.value)
