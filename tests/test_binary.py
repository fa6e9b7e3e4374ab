"""Truncated and garbled input files raise ``FormatError``, nothing else."""

import itertools
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mscope.checkpoint import load_checkpoint, save_checkpoint
from mscope.cli import METRICS_HEADER, _read_metrics
from mscope.evaluation import PREDICTIONS_HEADER, read_predictions
from mscope.formats import FormatError, read_table, save_arrays, write_table
from mscope.heatmaps import load_heatmap, save_heatmap
from mscope.patches import load_patch_cache, save_patch_cache
from mscope.phantom import MANIFEST_HEADER, load_manifest
from mscope.pgm import read_pgm, write_pgm

CACHE_SIDE = 3


def f32(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(
        np.float32)


def _written(write):
    """The bytes ``write(path)`` puts in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        write(path)
        return path.read_bytes()


def _valid_files():
    rng = np.random.default_rng(0)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    writers = {
        "ckpt": lambda p: save_checkpoint(p, {"a.weight": f32(2, 1, 3),
                                              "b": f32(4), "s": f32()}),
        "mshm": lambda p: save_heatmap(p, f32(3, 5), f32(3, 5)),
        "pgm16": lambda p: write_pgm(
            p, rng.integers(0, 65536, (4, 3)).astype(np.uint16)),
        "pgm8": lambda p: write_pgm(
            p, rng.integers(0, 256, (3, 5)).astype(np.uint8)),
        "cache": lambda p: save_patch_cache(
            p, (f32(3, CACHE_SIDE, CACHE_SIDE),
                np.arange(3, dtype=np.uint8))),
    }
    return {name: _written(write) for name, write in writers.items()}


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


@pytest.mark.parametrize("dtype,maxval", [(np.uint16, 65535), (np.uint8, 255)])
def test_pgm_maxval_comes_from_the_dtype(tmp_path, dtype, maxval):
    img = np.array([[0, 1, 2], [3, 254, 255]], dtype=dtype) * (maxval // 255)
    write_pgm(tmp_path / "a.pgm", img)
    assert (tmp_path / "a.pgm").read_bytes().startswith(
        f"P5\n3 2\n{maxval}\n".encode())
    back = read_pgm(tmp_path / "a.pgm")
    assert back.dtype == dtype
    np.testing.assert_array_equal(back, img)


@pytest.mark.parametrize("dtype", [np.int16, np.uint32, np.float32, bool])
def test_pgm_of_another_dtype_is_refused(tmp_path, dtype):
    with pytest.raises(ValueError, match="uint16 or uint8"):
        write_pgm(tmp_path / "a.pgm", np.zeros((2, 3), dtype=dtype))
    assert not (tmp_path / "a.pgm").exists()


@pytest.mark.parametrize("fmt", sorted(VALID))
def test_valid_files_load(fmt):
    _load(fmt, VALID[fmt])


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(sorted(VALID)), data=st.data())
def test_truncated_file_raises_format_error(fmt, data):
    blob = VALID[fmt]
    cut = data.draw(st.integers(0, len(blob) - 1))
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


def _container(magic, **arrays):
    return _written(lambda p: save_arrays(p, magic, arrays))


def _cache_before_containers():
    """``VALID["cache"]`` in the layout before the cache was a container:
    "MSPC" | u32 version=1 | u32 patch size | u32 count | f32 pixels | u8
    labels."""
    pixels, labels = _load("cache", VALID["cache"])
    return (b"MSPC" + struct.pack("<III", 1, CACHE_SIDE, len(labels))
            + pixels.tobytes() + labels.tobytes())


OLD_CACHE = _cache_before_containers()


@pytest.mark.parametrize("fmt, blob, detail", [
    ("mshm", b"NOPE" + bytes(12), "bad magic b'NOPE', expected b'MSHM' at byte 0"),
    ("mshm", VALID["mshm"][:36], "truncated tensor 'malignant': 60 bytes "
                                 "needed, 4 left at byte 32"),
    ("ckpt", VALID["ckpt"] + b"\0", "1 trailing bytes at byte"),
    ("pgm16", b"P5\n4 x\n65535\n", "bad binary PGM header at byte 0"),
    ("pgm8", b"P5\n0 3\n255\n", "bad PGM dims 0x3 or maxval 255 at byte 0"),
    ("pgm8", b"P5\n" + b"9" * 5000 + b" 3\n255\n",
     "bad binary PGM header at byte 0"),
    ("cache", VALID["cache"][:-4] + np.float32(4).tobytes(),
     f"label 4 is not a patch class index at byte {len(VALID['cache']) - 4}"),
    ("cache", VALID["cache"][:21] + b"\x04" + VALID["cache"][22:],
     "truncated tensor 'pixels': 144 bytes needed, 133 left at byte 33"),
    # the layouts before heatmaps and the cache were containers; the two
    # cache rows are the bad label and the wrong count of that layout
    ("mshm", b"MSHM" + struct.pack("<III", 1, 3, 5) + f32(2, 3, 5).tobytes(),
     "3 tensors, expected 2 at byte 8"),
    ("cache", OLD_CACHE[:-1] + b"\x04", "3 tensors, expected 2 at byte 8"),
    ("cache", OLD_CACHE[:12] + b"\x04" + OLD_CACHE[13:],
     "3 tensors, expected 2 at byte 8"),
    # containers whose arrays are not what the kind holds
    ("mshm", _container(b"MSHM", benign=f32(3, 5), malignant=f32(3, 5)),
     "tensor 'benign', expected 'malignant' at byte 12"),
    ("mshm", _container(b"MSHM", malignant=f32(3, 5), benign=f32(3, 4)),
     "heatmap planes (3, 5) and (3, 4) do not share one 2-D shape at "
     "byte 32"),
    ("cache", _container(b"MSPC", pixels=f32(3, 3, 3), labels=np.zeros(4)),
     "patch pixels (3, 3, 3) and labels (4,) are not (N, p, p) and (N,) at "
     "byte 33"),
    ("cache", _container(b"MSPC", pixels=f32(2, 3, 3), labels=[0, 2.5]),
     "label 2.5 is not a patch class index at byte 122"),
])
def test_error_names_what_and_where(fmt, blob, detail):
    with pytest.raises(FormatError) as exc:
        _load(fmt, blob)
    assert detail in str(exc.value)


CONTAINERS = {"ckpt": b"MSCK", "mshm": b"MSHM", "cache": b"MSPC"}


@pytest.mark.parametrize("writer, reader",
                         list(itertools.permutations(CONTAINERS, 2)))
def test_container_of_another_kind_fails_on_its_magic(writer, reader):
    with pytest.raises(FormatError) as exc:
        _load(reader, VALID[writer])
    assert f"bad magic {CONTAINERS[writer]!r}, expected " \
           f"{CONTAINERS[reader]!r} at byte 0" in str(exc.value)


# -- tables --

def _metrics(path):
    _read_metrics(path, {}, {})


TABLES = {
    "manifest": (load_manifest, MANIFEST_HEADER,
                 "e0,p0,train,50s,fatty,0,1,0,0,1,0,0,0,2,a,b,c,d"),
    "predictions": (read_predictions, PREDICTIONS_HEADER, "e0,L,0.5,0.25,m"),
    "metrics": (_metrics, METRICS_HEADER, "m,screening,malignant,auc,0.5"),
}


@pytest.mark.parametrize("table, lines, detail", [
    *((name, ["a,b", row], "line 1: unexpected header")
      for name, (_, _, row) in TABLES.items()),
    *((name, [header, row, row.rsplit(",", 1)[0]], "line 3: expected")
      for name, (_, header, row) in TABLES.items()),
    ("manifest", [MANIFEST_HEADER, TABLES["manifest"][2].replace(",2,", ",3,")],
     "line 2: birads '3' is not one of 0, 1, 2"),
    ("predictions", [PREDICTIONS_HEADER, "e0,X,0.5,0.25,m"],
     "line 2: side 'X' is not L or R"),
    ("predictions", [PREDICTIONS_HEADER, "e0,L,1.5,0.25,m"],
     "line 2: probability '1.5' is not a number in [0, 1]"),
    ("metrics", [METRICS_HEADER, "m,screening,malignant,auc,oops"],
     "line 2: value 'oops' is not a number"),
])
def test_table_error_names_file_and_line(tmp_path, table, lines, detail):
    path = tmp_path / f"{table}.csv"
    path.write_text("".join(f"{line}\n" for line in lines))
    with pytest.raises(FormatError) as exc:
        TABLES[table][0](path)
    assert str(exc.value).startswith(f"{path}, line ")
    assert detail in str(exc.value)


# characters that str.splitlines or a csv dialect treat specially, none of
# which a table field has to avoid
AWKWARD = '" \t\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'
FIELDS = st.text(st.sampled_from(AWKWARD) | st.characters(
    blacklist_characters=",\r\n", blacklist_categories=("Cs",)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(FIELDS, min_size=3, max_size=3), max_size=4))
@example(rows=[['"q"', ' "x', 'a\x1cb\x85'], ['', '" ', '\u2028']])
def test_read_table_gives_back_what_write_table_wrote(rows):
    """Any fields free of commas, CR and LF, leading and trailing quotes
    and spaces included, read back as written, row by row."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, "a,b,c", rows)
        columns, where = read_table(path, "a,b,c")
    assert list(columns) == ["a", "b", "c"]
    assert [list(row) for row in zip(*columns.values())] == rows
    assert all(len(fields) == len(rows) for fields in columns.values())
    assert where(0) == f"{path}, line 2"


def test_crlf_manifest_reads_as_lf_and_a_blank_line_is_a_bad_row(tmp_path):
    row = TABLES["manifest"][2]
    lines = [MANIFEST_HEADER, row, row.replace("e0,", "e1,", 1)]
    lf, crlf, blank = (tmp_path / f"{name}.csv"
                       for name in ("lf", "crlf", "blank"))
    lf.write_bytes("".join(f"{line}\n" for line in lines).encode())
    crlf.write_bytes("".join(f"{line}\r\n" for line in lines).encode())
    records = load_manifest(lf)
    assert [r.exam_id for r in records] == ["e0", "e1"]
    assert load_manifest(crlf) == records
    blank.write_text("\n".join([*lines[:2], "", lines[2]]) + "\n")
    with pytest.raises(FormatError) as exc:
        load_manifest(blank)
    assert str(exc.value) == f"{blank}, line 3: expected 18 fields"


def test_manifest_split_is_one_of_train_val_test(tmp_path):
    """A split that is not a split name would drop its exam from every
    population in silence; it is a bad field instead."""
    path = tmp_path / "manifest.csv"
    path.write_text(f"{MANIFEST_HEADER}\n"
                    f"{TABLES['manifest'][2].replace(',train,', ',tst,')}\n")
    with pytest.raises(FormatError) as exc:
        load_manifest(path)
    assert str(exc.value) == \
        f"{path}, line 2: split 'tst' is not one of train, val, test"
