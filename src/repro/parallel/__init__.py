"""Parallel execution layer: executors behind one ``map_stages`` seam.

The per-partition database operators of this reproduction — Section-3
cluster generation per interval, index shard encoding per shard — are
embarrassingly parallel; this package
supplies the process/thread/serial executors they fan out on, and the
worker-resolution helpers the planner and CLI share.  See
:mod:`repro.parallel.executors` for the contract.
"""

from repro.parallel.executors import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_chunk_size,
    executor_for,
    make_executor,
    open_executor,
    resolve_workers,
)

__all__ = [
    "EXECUTORS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "default_chunk_size",
    "executor_for",
    "make_executor",
    "open_executor",
    "resolve_workers",
]
