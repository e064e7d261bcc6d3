"""A process pool shared across parallel builds.

Spawning a ``ProcessPoolExecutor`` per build costs worker startup (fork +
interpreter warm-up) on every call — measurable against city-scale sweeps
and dominant for small ones.  This module keeps one lazily created
executor alive across builds:

* ``lease_pool(n)`` returns the shared executor when its size matches the
  request, creating it on first use.  A request for a *different* worker
  count returns ``None`` and the caller falls back to a per-build pool —
  resizing a live pool under other callers would be a correctness hazard
  for their in-flight maps.
* ``discard_pool()`` drops a broken executor so the next lease starts
  fresh (the pipeline calls it when a pool raises).
* ``close_pool()`` is the explicit operator shutdown; it is also installed
  as an ``atexit`` hook so worker processes never outlive the interpreter.

The pool is per-process module state guarded by a lock; worker processes
themselves never import this module's state (tasks travel by pickle).
"""

from __future__ import annotations

import atexit
import threading

__all__ = ["lease_pool", "close_pool", "discard_pool", "pool_stats"]

_lock = threading.Lock()
_pool = None
_pool_workers: "int | None" = None
_created = 0  # lifetime count of shared executors created (observability)
_atexit_registered = False


def lease_pool(max_workers: int):
    """The shared executor for ``max_workers``, or ``None`` on a size
    mismatch (caller should use a private per-build pool)."""
    global _pool, _pool_workers, _created, _atexit_registered
    with _lock:
        if _pool is not None:
            return _pool if _pool_workers == max_workers else None
        from concurrent.futures import ProcessPoolExecutor

        _pool = ProcessPoolExecutor(max_workers=max_workers)
        _pool_workers = max_workers
        _created += 1
        if not _atexit_registered:
            atexit.register(close_pool)
            _atexit_registered = True
        return _pool


def discard_pool() -> None:
    """Forget a (possibly broken) shared pool without waiting on it."""
    global _pool, _pool_workers
    with _lock:
        pool, _pool, _pool_workers = _pool, None, None
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def close_pool() -> None:
    """Shut down the shared pool (no-op when none is alive)."""
    global _pool, _pool_workers
    with _lock:
        pool, _pool, _pool_workers = _pool, None, None
    if pool is not None:
        pool.shutdown(wait=True)


def pool_stats() -> dict:
    """Observability snapshot: live worker count and executors created."""
    with _lock:
        return {
            "alive": _pool is not None,
            "workers": _pool_workers,
            "created": _created,
        }
