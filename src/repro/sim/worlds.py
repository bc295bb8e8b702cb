"""The world runner: every world-building job runs through one executor.

:func:`run_worlds` calls a world function on each item of a list, over
forked workers.  Worlds share no state, so a result never depends on
the process that ran it.  The function carries the world's
:func:`repro.sim.one_world` boundary; the runner adds none, since
boundaries do not nest.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
import time
from functools import partial
from typing import Callable, Sequence

from .. import obs
from .engine import Environment


def peak_rss_mib() -> float:
    """High-water resident memory of this process (``ru_maxrss``: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_timed(fn: Callable, item, forked_at: float = 0.0) -> tuple:
    """``fn(item)``; returns (its result, seconds, events, peak RSS MiB
    of the process that ran it).  A worker's peak counts the parent's
    up to the fork (``forked_at``), as it would in-process."""
    t0 = time.perf_counter()
    ev0 = Environment.lifetime_events_processed
    result = fn(item)
    events = Environment.lifetime_events_processed - ev0
    rss = max(forked_at, peak_rss_mib())
    return result, time.perf_counter() - t0, events, rss


_RUN_TIMED_CODE = _run_timed.__code__


def workers(n_items: int, most: int = 0) -> int:
    """How many processes :func:`run_worlds` runs ``n_items`` items
    over: one per CPU this process may use, at most ``most`` (0: no
    bound) and ``n_items``.  It is 1 (this process) where workers would
    hide work (an obs registry or timeline is installed, a profiler or
    tracer is attached, or the runner is wrapped, as perfbench's layer
    tracer wraps the program's functions) and where forking is unsafe
    or unavailable (another thread runs; no ``fork`` or CPU affinity)."""
    hooks = (obs.active_registry(), obs.active_timeline(),
             sys.getprofile(), sys.gettrace())
    wrapped = _run_timed.__code__ is not _RUN_TIMED_CODE
    if (any(h is not None for h in hooks) or wrapped
            or threading.active_count() > 1 or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), most or n_items,
                      n_items))


def run_worlds(fn: Callable, items: Sequence, most: int = 0) -> tuple:
    """``fn(item)`` for every item, over :func:`workers` forked
    processes, one item at a time in order; returns the results and,
    per item, (seconds, events, peak RSS MiB), both in item order.  No
    worker outlives the call, and an item's exception reaches the
    caller.  ``fn`` crosses to a worker, and each result back, by
    pickle, so ``fn`` is a module-level function or a ``partial`` of
    one."""
    n = workers(len(items), most)
    if n == 1:
        outcomes = [_run_timed(fn, item) for item in items]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        run = partial(_run_timed, fn, forked_at=peak_rss_mib())
        with ProcessPoolExecutor(
                n, mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(run, items, chunksize=1))
    return ([result for result, *_ in outcomes],
            [cost for _, *cost in outcomes])
