import hashlib

import numpy as np
import pytest

from mscope.formats import FormatError
from mscope.checkpoint import load_checkpoint, save_checkpoint


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "col.stem.weight": rng.standard_normal((16, 1, 7, 7)).astype(np.float32),
        "head.bias": rng.standard_normal(4).astype(np.float32),
        "scalar": np.float32(3.5).reshape(()),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(tensors)
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], np.asarray(tensors[k], np.float32))


def test_header_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"ab": np.zeros((2, 3), dtype=np.float32)})
    blob = path.read_bytes()
    assert blob[:4] == b"MSCK"
    assert int.from_bytes(blob[4:8], "little") == 1   # version
    assert int.from_bytes(blob[8:12], "little") == 1  # tensor count
    assert int.from_bytes(blob[12:14], "little") == 2  # name length
    assert blob[14:16] == b"ab"
    assert blob[16] == 2  # rank
    assert int.from_bytes(blob[17:21], "little") == 2
    assert int.from_bytes(blob[21:25], "little") == 3
    assert len(blob) == 25 + 2 * 3 * 4


def test_save_is_deterministic(tmp_path):
    tensors = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, tensors)
    save_checkpoint(p2, tensors)
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == \
        hashlib.sha256(p2.read_bytes()).hexdigest()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_checkpoint(path)
