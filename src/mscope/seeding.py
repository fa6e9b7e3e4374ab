"""Deterministic RNG substreams, and the maps over work items.

Every randomized stage derives its generator from (run seed, purpose tags),
so work items can be processed in any order or on any worker while still
producing identical bytes; ``_map_exams`` runs them on ``--jobs`` worker
processes, ``_map_threads`` on the process's BLAS threads.
"""

from __future__ import annotations

import ctypes
import functools
import os
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


def _map_exams(task, ctx, n, jobs, chunksize):
    """``[task(ctx, i) for i in range(n)]``, run in ``jobs`` worker
    processes when ``jobs > 1``. ``ctx`` reaches the workers through the
    pool's initializer, so every start method sees it."""
    if jobs == 1:
        return [task(ctx, i) for i in range(n)]
    from multiprocessing import Pool
    with Pool(jobs, initializer=_start_worker, initargs=(task, ctx)) as pool:
        return pool.map(_worker_task, range(n), chunksize=chunksize)


_WORKER = {}                    # set in each worker process by _start_worker


def _start_worker(task, ctx):
    _WORKER.update(task=task, ctx=ctx)


def _worker_task(idx):
    return _WORKER["task"](_WORKER["ctx"], idx)


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


def _map_threads(task, items):
    """``[task(x) for x in items]`` on as many threads as OpenBLAS has,
    capped at the usable cores and the items; at one thread, that loop.
    OpenBLAS runs one thread each until all have joined, and the threads
    share one malloc arena. Results, and the first failing item's error,
    come in item order."""
    blas = _openblas()
    old = blas[0]() if blas else 1
    threads = min(old, len(os.sched_getaffinity(0)), len(items))
    if threads <= 1:
        return [task(x) for x in items]
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt:
        mallopt(-8, 1)                # M_ARENA_MAX: freed memory is shared
    blas[1](1)
    try:
        with ThreadPoolExecutor(threads) as pool:
            return list(pool.map(task, items))
    finally:
        blas[1](old)
