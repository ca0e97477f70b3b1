"""Executor abstraction: one ``map_stages`` call, three backends.

The Section-3 pipeline (per-interval cluster generation) and the
shard-parallel index build are embarrassingly parallel across
intervals and shards, but the right degree of parallelism depends on where
the code runs: a test wants deterministic in-process execution, a
notebook wants threads (no pickling), a batch job wants processes (the
work is pure-Python CPU).  This module hides that choice behind one
interface so every stage above it is written once:

* :class:`SerialExecutor` — in-process loop, zero overhead, the
  default and the equivalence oracle;
* :class:`ThreadExecutor` — a thread pool; useful for I/O-bound
  stages and as a pickling-free middle ground;
* :class:`ProcessExecutor` — a process pool; task functions and their
  arguments must pickle (module-level functions or
  :func:`functools.partial` over one).

``map_stages(fn, items)`` applies *fn* to every item and returns the
results **in item order** whatever the backend — callers rely on
positional correspondence (interval *i*'s clusters come back at index
*i*).  Items are shipped in chunks to amortize per-task IPC; chunking
never changes results, only batching.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence

# Submitting one future per item drowns small tasks in IPC; one future
# per worker serializes stragglers.  A few chunks per worker balances
# both (the classic chunksize heuristic of multiprocessing.Pool.map).
CHUNKS_PER_WORKER = 4


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None`` means serial (1); ``0`` means "all cores"; a positive
    count is taken as given.  Negative counts are an error.
    """
    if workers is None:
        return 1
    if workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    return workers


def default_chunk_size(num_items: int, workers: int) -> int:
    """Items per submitted chunk: a few chunks per worker."""
    return max(1, -(-num_items // (workers * CHUNKS_PER_WORKER)))


def _apply_chunk(fn: Callable[[Any], Any],
                 chunk: Sequence[Any]) -> List[Any]:
    """Run *fn* over one chunk (module-level so it pickles)."""
    return [fn(item) for item in chunk]


class Executor:
    """The contract every executor satisfies.

    ``map_stages(fn, items)`` returns ``[fn(item) for item in items]``
    — same results, same order, exceptions propagated — computed with
    whatever parallelism the backend provides.  ``workers`` reports
    the degree of parallelism (1 for serial).  Executors are context
    managers; ``close()`` releases any pool and is idempotent.
    """

    name = "executor"
    workers = 1

    def map_stages(self, fn: Callable[[Any], Any],
                   items: Iterable[Any],
                   chunk_size: Optional[int] = None) -> List[Any]:
        """``[fn(item) for item in items]``, possibly in parallel."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (no-op where there are none)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """In-process, single-threaded execution (the oracle backend)."""

    name = "serial"

    def map_stages(self, fn: Callable[[Any], Any],
                   items: Iterable[Any],
                   chunk_size: Optional[int] = None) -> List[Any]:
        """Apply *fn* to every item in-process, in order."""
        return [fn(item) for item in items]


class _PoolExecutor(Executor):
    """Shared chunking/ordering logic over a concurrent.futures pool.

    The pool is created lazily on first use and reused across
    ``map_stages`` calls (a streaming pipeline calls once per
    interval; re-forking per interval would swamp the join it
    parallelizes).
    """

    def __init__(self, workers: Optional[int] = None,
                 chunk_size: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers if workers is not None
                                       else 0)
        self.chunk_size = chunk_size
        self._pool = None
        self._closed = False

    def _make_pool(self):
        raise NotImplementedError

    def map_stages(self, fn: Callable[[Any], Any],
                   items: Iterable[Any],
                   chunk_size: Optional[int] = None) -> List[Any]:
        """Chunk *items*, run chunks on the pool, reassemble in
        submission (= item) order."""
        if self._closed:
            # Recreating the pool here would leak it: nothing would
            # ever close it again.  Match concurrent.futures'
            # submit-after-shutdown behaviour.
            raise RuntimeError(
                f"{type(self).__name__} used after close()")
        items = list(items)
        if not items:
            return []
        if self._pool is None:
            self._pool = self._make_pool()
        size = chunk_size or self.chunk_size \
            or default_chunk_size(len(items), self.workers)
        chunks = [items[start:start + size]
                  for start in range(0, len(items), size)]
        futures = [self._pool.submit(_apply_chunk, fn, chunk)
                   for chunk in chunks]
        results: List[Any] = []
        for future in futures:  # submission order == item order
            results.extend(future.result())
        return results

    def close(self) -> None:
        """Shut the pool down; later ``map_stages`` calls raise."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadExecutor(_PoolExecutor):
    """Thread-pool execution (no pickling; GIL-bound for pure CPU)."""

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.workers)


class ProcessExecutor(_PoolExecutor):
    """Process-pool execution; *fn* and items must pickle."""

    name = "process"

    def _make_pool(self):
        return ProcessPoolExecutor(max_workers=self.workers)


EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def make_executor(spec, workers: Optional[int] = None) -> Executor:
    """Build an executor from a name (``serial``/``thread``/
    ``process``) or pass an :class:`Executor` instance through."""
    if isinstance(spec, Executor):
        return spec
    try:
        cls = EXECUTORS[spec]
    except KeyError:
        raise ValueError(
            f"unknown executor {spec!r}; choose from "
            f"{sorted(EXECUTORS)}") from None
    if cls is SerialExecutor:
        return cls()
    return cls(workers=workers)


def executor_for(workers) -> Executor:
    """The executor for a worker request: an :class:`Executor`
    instance passes through; ``None``/``1`` is serial; anything more
    parallel is a process pool (the stages this repo fans out are
    pure-Python CPU, where threads cannot help)."""
    if isinstance(workers, Executor):
        return workers
    count = resolve_workers(workers)
    if count <= 1:
        return SerialExecutor()
    return ProcessExecutor(workers=count)


class open_executor:
    """Context manager resolving a ``workers`` argument to an executor.

    An :class:`Executor` instance is used as-is and **not** closed (its
    lifecycle belongs to the caller); an int/None request builds one
    with :func:`executor_for` and disposes of it on exit.  This is the
    idiom every ``workers=``-taking API in the repo uses.
    """

    def __init__(self, workers) -> None:
        self._owned = not isinstance(workers, Executor)
        self._executor = executor_for(workers)

    def __enter__(self) -> Executor:
        return self._executor

    def __exit__(self, *exc_info) -> None:
        if self._owned:
            self._executor.close()
