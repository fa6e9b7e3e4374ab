import contextlib
import os
import threading
import time

import pytest

from mscope.seeding import _map_blas, _map_threads, _openblas

BLAS = _openblas()
two_cores = pytest.mark.skipif(
    BLAS is None or len(os.sched_getaffinity(0)) < 2,
    reason="the map runs one thread without numpy's OpenBLAS or a 2nd core")
CORES = len(os.sched_getaffinity(0))


@contextlib.contextmanager
def blas_at(threads):
    """numpy's OpenBLAS on ``threads`` threads inside, then as it was."""
    if BLAS is None:
        yield
        return
    get, put = BLAS
    old = get()
    put(threads)
    try:
        yield
    finally:
        put(old)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_gives_results_in_item_order(workers):
    def task(i):
        time.sleep(0.002 * (9 - i))            # later items finish first
        return i * i
    assert _map_threads(task, list(range(10)), workers) == \
        [i * i for i in range(10)]


@pytest.mark.parametrize("workers", [1, 2])
def test_map_raises_the_earliest_failing_items_error(workers):
    def task(i):
        if i == 1:
            time.sleep(0.05)                   # fails after item 2 does
            raise KeyError("item 1")
        if i == 2:
            raise ValueError("item 2")
        return i
    with pytest.raises(KeyError, match="item 1"):
        _map_threads(task, [0, 1, 2, 3], workers)


def test_one_blas_thread_maps_on_the_calling_thread():
    """One worker, the validation pass's at one BLAS thread or ``--jobs
    1`` at any, is the plain loop on the calling thread."""
    for blas_threads in (1, 2):
        with blas_at(blas_threads):
            ran_on = _map_threads(lambda _: threading.get_ident(),
                                  [0, 1, 2], 1)
        assert ran_on == [threading.get_ident()] * 3


@two_cores
def test_two_blas_threads_map_on_two_threads_of_one_blas_thread():
    """Each pair of items meets at a barrier, which only two threads at
    once can pass; inside, OpenBLAS runs one thread. Eight workers run on
    no more threads than there are usable cores."""
    barrier = threading.Barrier(2, timeout=30)

    def task(_):
        barrier.wait()
        return threading.get_ident(), BLAS[0]()
    for workers in (2, 8):
        with blas_at(2):
            ran_on, inside = zip(*_map_threads(task, list(range(16)),
                                               workers))
        assert 2 <= len(set(ran_on)) <= min(workers, CORES)
        assert threading.get_ident() not in ran_on
        assert set(inside) == {1}


@two_cores
@pytest.mark.parametrize("threads", [1, 2])
def test_openblas_gets_its_thread_count_back(threads):
    """After the map, also one that raised, OpenBLAS runs as many threads
    as before it."""
    def fail(i):
        raise ValueError(i)
    with blas_at(threads):
        assert _map_threads(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert BLAS[0]() == threads
        with pytest.raises(ValueError):
            _map_threads(fail, [0, 1, 2], 2)
        assert BLAS[0]() == threads



def _nested(inner_map):
    """An outer ``_map_blas`` of two items that meet at a barrier of as
    many threads as OpenBLAS runs, each running ``inner_map`` over three:
    [(outer item, its thread, [(inner item, its thread)])]."""
    barrier = threading.Barrier(BLAS[0]() if BLAS else 1, timeout=30)

    def inner(j):
        return j, threading.get_ident()

    def outer(i):
        barrier.wait()
        return i, threading.get_ident(), inner_map(inner, [0, 1, 2])
    return _map_blas(outer, [0, 1])


@two_cores
def test_a_map_inside_a_mapped_task_is_that_tasks_loop():
    """An exam's view map inside the ``--jobs`` exam map, or a forward's
    column map inside a validation chunk: each inner item runs on its
    outer item's thread, even when the inner map asks for two workers.
    Results come in item order, and OpenBLAS gets its count back."""
    with blas_at(2):
        got = _nested(lambda task, items: _map_threads(task, items, 2))
        assert BLAS[0]() == 2
    assert [i for i, _, _ in got] == [0, 1]
    for _, ran_on, inner_got in got:
        assert inner_got == [(j, ran_on) for j in range(3)]
    ran_on = {t for _, t, _ in got}
    assert len(ran_on) == 2 and threading.get_ident() not in ran_on


def test_nested_maps_at_one_blas_thread_run_on_the_calling_thread():
    with blas_at(1):
        got = _nested(_map_blas)
    main = threading.get_ident()
    assert got == [(i, main, [(j, main) for j in range(3)]) for i in (0, 1)]
