"""The package's one parallel map: a shared thread pool whose threads help each other.

numpy releases the interpreter lock in its RNG fills, ufuncs, sorts and
searches, so threads running numpy work overlap. ``map_helped`` runs its
items on the threads of one process-wide pool. A call made from a pool
thread (a pipeline correlation task calls the chunked correlator, and any
caller on the pool may start an autocorrelation run's pulse blocks)
takes items itself, and idle pool threads help; it waits only on helpers
that have already started and cancels the rest, so it never waits on a
thread that is busy with an outer call: nested calls cannot deadlock.

Any other caller, such as the main thread, hands every item to the pool
and waits. Its own work would cost more there: 12 closed-loop stream
imports and correlations took about 70,000 minor page faults on the main
thread against 12,000 on another thread, most likely glibc trimming the
main heap after each large task.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def _worker_count():
    """The CPUs this process may run on, at most 4."""
    if hasattr(os, "sched_getaffinity"):  # a pinned container sees fewer than the host
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus)


#: Threads that work on one call at once. At 1M pulses one pipeline task
#: peaks at 34-37 MB (simulation and export) or 22-29 MB (stream import
#: and correlation).
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


class _Job:
    """The items of one call, taken in order by whichever thread is free."""

    def __init__(self, fn, items):
        self.fn = fn
        self.items = items
        self.results = [None] * len(items)
        self.errors = {}
        self.next = 0
        self.lock = threading.Lock()

    def drain(self):
        """Run items until none is left or one has failed."""
        while True:
            with self.lock:
                if self.errors or self.next == len(self.items):
                    return
                i = self.next
                self.next += 1
                fn, item = self.fn, self.items[i]
            try:
                self.results[i] = fn(item)
            except BaseException as exc:  # re-raised by the caller, first in item order
                with self.lock:
                    self.errors[i] = exc


def map_helped(fn, items):
    """``[fn(item) for item in items]`` on up to ``WORKERS`` pool threads.

    Results keep the order of ``items``. The first exception, in that
    order, is raised here once every started item has finished, and items
    not yet started are skipped. A pool thread runs items of its own call
    and cancels the helpers that no idle thread took. With
    ``WORKERS == 1``, or when the pool takes no work (interpreter
    shutdown), the caller runs every item.
    """
    job = _Job(fn, list(items))
    in_pool = getattr(_local, "in_pool", False)
    helpers = []
    if WORKERS > 1 and len(job.items) > 1:
        pool = _pool()
        for _ in range(min(WORKERS, len(job.items)) - in_pool):
            try:
                helpers.append(pool.submit(job.drain))
            except RuntimeError:  # the pool is shut down: run the rest here
                break
    try:
        if in_pool or not helpers:
            job.drain()
    finally:
        for helper in helpers:
            # a pool thread waits only on started helpers; other callers on all
            if not (in_pool and helper.cancel()):
                helper.result()
        results, errors = job.results, job.errors
        # a cancelled helper holds the job until a pool thread pops it from
        # the queue: it must not keep the items, the function (with the
        # arrays it closes over), the results or a traceback alive till then
        job.fn = job.items = job.results = job.errors = None
    if errors:
        raise errors[min(errors)]
    return results
