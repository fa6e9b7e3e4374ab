"""Deterministic RNG substreams, and the one map over work items.

Every randomized stage derives its generator from (run seed, purpose tags),
so work items can be processed in any order or on any worker while still
producing identical bytes. ``_map_threads`` runs them on threads of the
calling process, each with one BLAS thread: ``--jobs`` of them for the
per-exam stages, and as many as OpenBLAS has (``_map_blas``) for the
validation pass's chunks and for an exam's four views, in an eval forward
and in its heatmaps. A map made inside a mapped task is the plain loop on
that task's thread, so ``--jobs 2`` keeps two threads in all.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np


def _tag_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf-8"))


def substream(seed: int, *tags) -> np.random.Generator:
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_tag_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@functools.cache
def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None."""
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob(
            "*openblas*"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
    return None


_worker = threading.local()      # .mapped is set on the map's own threads


def _map_threads(task, items, workers):
    """``[task(x) for x in items]`` on min(workers, usable cores, items)
    threads; at one thread, without numpy's OpenBLAS, or when called from
    a task of another map, that loop on the calling thread. OpenBLAS runs
    one thread each until all have joined, and the threads share one
    malloc arena. Results, and the first failing item's error, come in
    item order.

    Tasks share the nets they close over read-only: those nets are in
    eval mode before the map, so a task's forward writes nothing to them."""
    blas = _openblas()
    threads = min(workers, len(os.sched_getaffinity(0)), len(items)) \
        if blas and not getattr(_worker, "mapped", False) else 1
    if threads <= 1:
        return [task(x) for x in items]
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt:
        mallopt(-8, 1)                # M_ARENA_MAX: freed memory is shared
    old = blas[0]()
    blas[1](1)
    try:
        with ThreadPoolExecutor(threads, initializer=setattr,
                                initargs=(_worker, "mapped", True)) as pool:
            return list(pool.map(task, items))
    finally:
        blas[1](old)


def _map_blas(task, items):
    """``_map_threads`` onto as many threads as OpenBLAS runs."""
    blas = _openblas()
    return _map_threads(task, items, blas[0]() if blas else 1)
