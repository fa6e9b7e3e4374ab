"""Deterministic RNG substreams, and the one map over work items.

Every randomized stage derives its generator from (run seed, purpose tags),
so work items can be processed in any order or on any worker while still
producing identical bytes; ``_map_exams`` runs them on ``--jobs`` workers.
"""

from __future__ import annotations

import zlib

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
