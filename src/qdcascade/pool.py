"""The package's one parallel map, on a shared thread pool.

numpy releases the interpreter lock in its RNG fills, ufuncs, sorts and
searches, so threads running numpy work overlap. ``parallel_map`` follows
one rule. A call made on a pool thread (a pipeline correlation task
calls the chunked correlator, and any caller on the pool may start an
autocorrelation run's pulse blocks) runs its own items, as does any call
with one worker or fewer than two items. So a pool thread never waits on
the pool, and nested calls cannot deadlock.

Any other caller, such as the main thread, hands every item to the pool
and waits. Its own work would cost more there: 12 closed-loop stream
imports and correlations took about 70,000 minor page faults on the main
thread against 12,000 on another thread, most likely glibc trimming the
main heap after each large task.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait


def _worker_count():
    """The CPUs this process may run on, at most 4."""
    if hasattr(os, "sched_getaffinity"):  # a pinned container sees fewer than the host
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus)


#: Threads that work on one call at once. At 1M pulses one pipeline task
#: peaks at about 23 MB (simulation and export) or about 13 MB (stream
#: import and correlation).
WORKERS = _worker_count()

_executor = None
_executor_lock = threading.Lock()
_local = threading.local()  # ``in_pool`` is set on the pool's own threads


def _mark_pool_thread():
    _local.in_pool = True


def _pool():
    """The process-wide pool of ``WORKERS`` threads, built on first use."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="qdcascade",
                                           initializer=_mark_pool_thread)
        return _executor


def parallel_map(fn, items):
    """``[fn(item) for item in items]``, on the pool's threads when the
    caller is not one of them.

    Results keep the order of ``items``. Once an item fails, items not yet
    started are skipped; the first exception, in item order, is raised
    here once every started item has finished. When the pool takes no
    work (interpreter shutdown), the caller runs the remaining items.
    """
    items = list(items)
    if WORKERS == 1 or len(items) < 2 or getattr(_local, "in_pool", False):
        return [fn(item) for item in items]
    failed = threading.Event()

    def run(item):
        if failed.is_set():  # skipped: the call raises that failure, not this None
            return None
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    pool = _pool()
    futures = []
    for item in items:
        try:
            futures.append(pool.submit(run, item))
        except RuntimeError:  # the pool is shut down: run the item here
            futures.append(Future())
            try:
                futures[-1].set_result(run(item))
            except BaseException as exc:  # re-raised below, first in item order
                futures[-1].set_exception(exc)
    wait(futures)
    return [future.result() for future in futures]
