import os
import threading
import time

import pytest

from qdcascade import pool


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(pool, "WORKERS", 2)


def test_results_keep_item_order(two_workers):
    assert pool.parallel_map(lambda x: x * x, range(50)) == [x * x for x in range(50)]
    assert pool.parallel_map(lambda x: x, []) == []


def test_first_error_in_item_order_is_raised_and_later_items_skipped(two_workers):
    ran = []
    later_failed = threading.Event()

    def fn(x):
        ran.append(x)
        if x == 1:
            later_failed.wait(10)  # fails after item 2 when a pool thread took that one
            raise KeyError(x)
        if x == 2:
            later_failed.set()
            raise ValueError(x)
        return x

    with pytest.raises(KeyError):
        pool.parallel_map(fn, range(100))
    assert len(ran) < 100


def test_items_of_a_main_thread_call_run_on_the_pool(two_workers):
    names = pool.parallel_map(lambda _: threading.current_thread().name, range(20))
    assert all(name.startswith("qdcascade") for name in names)


def test_call_on_a_pool_thread_runs_its_own_items(two_workers):
    # the pool's other thread is idle, and still takes none of the items
    def name_after_a_sleep(_):
        time.sleep(0.005)
        return threading.current_thread().name

    def nested_call():
        return threading.current_thread().name, pool.parallel_map(name_after_a_sleep, range(20))

    caller, names = pool._pool().submit(nested_call).result(timeout=30)
    assert caller.startswith("qdcascade") and set(names) == {caller}


def test_one_worker_runs_every_item_on_the_caller(monkeypatch):
    monkeypatch.setattr(pool, "WORKERS", 1)
    names = pool.parallel_map(lambda _: threading.current_thread().name, range(20))
    assert set(names) == {threading.current_thread().name}


def test_pool_that_takes_no_work_leaves_it_to_the_caller(two_workers, monkeypatch):
    class ShutDown:
        def submit(self, *args):
            raise RuntimeError("cannot schedule new futures after interpreter shutdown")

    monkeypatch.setattr(pool, "_pool", ShutDown)
    names = pool.parallel_map(lambda _: threading.current_thread().name, range(20))
    assert set(names) == {threading.current_thread().name}


@pytest.mark.parametrize("affinity,cpu_count,workers", [
    ({0}, 8, 1),           # pinned to one CPU of an 8-CPU host
    ({0, 1, 2}, 64, 3),
    (set(range(16)), 16, 4),
    (None, 3, 3),          # no affinity call on this platform
    (None, None, 1),       # CPU count unknown
])
def test_worker_count_follows_cpu_affinity(monkeypatch, affinity, cpu_count, workers):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert pool._worker_count() == workers
