"""Shared plumbing for the fleet and optimizer runners.

**One reused worker pool.**  Both runners fan pickled tasks out with
:func:`map_tasks`, which runs them on a single, lazily created
:class:`~concurrent.futures.ProcessPoolExecutor` that lives for the
whole process: the first parallel call forks the workers and every later
call reuses them, so a frontier after a fleet (or a hundred fleets in a
row) pays the fork once instead of per call.  The pool is keyed by the
worker count: it is rebuilt only when a call asks for a different
``jobs``, and it is shut down at interpreter exit.  A call with
``jobs == 1`` or a single task runs in-process and never touches it.

A worker that dies (killed, out of memory, a crashing extension) breaks
the executor.  The call that hits it raises
:class:`~concurrent.futures.process.BrokenProcessPool`, the broken pool
is discarded, and the next call forks a fresh one — no call waits on a
dead worker.  With telemetry on, ``parallel.pool.created`` and
``parallel.pool.reused`` count how often a call forked a pool and how
often it found one warm.

**Atomic cache entries.**  :func:`write_atomic` is the write both
runners' on-disk caches use: a temporary file plus :func:`os.replace`,
so a reader sees either the old entry or the complete new one, never a
torn write.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, List, Optional, Sequence, TypeVar

from repro import obs

T = TypeVar("T")
R = TypeVar("R")

_lock = threading.Lock()
_pool: Optional[ProcessPoolExecutor] = None
_pool_jobs = 0


def pool(jobs: int) -> ProcessPoolExecutor:
    """The process-wide worker pool with ``jobs`` workers.

    Created on first use and reused by every later call with the same
    ``jobs``; a different worker count shuts the old pool down and
    forks a new one.
    """
    global _pool, _pool_jobs
    tel = obs.current()
    with _lock:
        if _pool is not None and _pool_jobs == jobs:
            tel.count("parallel.pool.reused")
            return _pool
        stale = _pool
        _pool = fresh = ProcessPoolExecutor(max_workers=jobs)
        _pool_jobs = jobs
    tel.count("parallel.pool.created")
    if stale is not None:
        stale.shutdown(wait=True)
    return fresh


def _discard(executor: ProcessPoolExecutor) -> None:
    """Drop ``executor`` if it is still the shared pool, and stop it."""
    global _pool
    with _lock:
        if _pool is executor:
            _pool = None
    executor.shutdown(wait=False, cancel_futures=True)


def shutdown() -> None:
    """Stop the shared pool, if any (registered to run at exit)."""
    global _pool
    with _lock:
        executor, _pool = _pool, None
    if executor is not None:
        executor.shutdown(wait=True)


def _forget_in_child() -> None:
    # A forked child inherits the parent's executor object but none of
    # its threads or workers; submitting to it would wait forever.
    global _pool, _lock
    _pool = None
    _lock = threading.Lock()


atexit.register(shutdown)
os.register_at_fork(after_in_child=_forget_in_child)


def map_tasks(
    fn: Callable[[T], R], payloads: Sequence[T], jobs: int
) -> List[R]:
    """``[fn(p) for p in payloads]``, on the shared pool when it pays.

    Runs in-process when ``jobs == 1`` or there is a single payload;
    otherwise maps over :func:`pool` and returns the results in payload
    order.  ``fn`` and the payloads must pickle.

    Raises:
        BrokenProcessPool: a worker died mid-call; the pool has been
            discarded and the next call starts a fresh one.
    """
    if jobs == 1 or len(payloads) == 1:
        return [fn(payload) for payload in payloads]
    executor = pool(jobs)
    try:
        return list(executor.map(fn, payloads))
    except BrokenProcessPool as exc:
        _discard(executor)
        raise BrokenProcessPool(
            "a worker process died; the pool was discarded and the next "
            "call starts a fresh one"
        ) from exc


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temporary file and ``os.replace``.

    Raises:
        OSError: the write failed (ENOSPC, EACCES, ...); the temporary
            file has been removed and ``path`` is untouched.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
