"""The shard worker process of the distributed serving tier.

Each worker owns its *own* :class:`repro.index.ClusterIndexReader`
over a reopened index and answers partial queries for any partition
of the postings space.  Workers are deliberately symmetric — the
partition is a parameter of every call, not of the process — which
is what lets the coordinator hedge a straggling partial onto a
replica worker or re-dispatch after a crash and still merge a
byte-identical answer.

The wire protocol is tiny and batched (cf. the master/worker
message-passing shape of the MPI exemplars): the parent sends
``("batch", [(call_id, method, kwargs), ...])`` over a duplex
:mod:`multiprocessing.connection` pipe and the worker replies
``("result", [(call_id, ok, payload), ...])``.  A ``("stop",)``
sentinel, pipe EOF, or the coordinator process dying (detected by
reparenting) ends the loop.  On startup the worker sends
``("ready", pid)`` once its reader is open — or ``("fatal",
message)`` and exits, so a coordinator never respawns a worker into
a directory that cannot be served.
"""

import os
import time

from repro.distributed.partition import detach_cluster
from repro.index.format import shard_for
from repro.index.reader import ClusterIndexReader
from repro.text.stemmer import stem


def _shard_best(reader, keyword, interval, shard, num_shards):
    """This partition's best candidate for a refine/lookup query.

    The reader's own rule, restricted to the nodes this partition
    owns — in-process and scatter-gather rank candidates in one
    place."""
    node = reader.best_node(
        stem(keyword.lower()), interval,
        lambda node: shard_for(node[0], node[1], num_shards) == shard)
    if node is None:
        return None
    return (node, detach_cluster(reader.cluster(node)))


def _shard_paths_for(reader, keyword, shard, num_shards):
    """Stored-order (index, path) matches for this partition."""
    nodes = set(node for node in reader.postings_for(keyword)
                if shard_for(node[0], node[1], num_shards) == shard)
    if not nodes:
        return []
    return [(index, path)
            for index, path in enumerate(reader.paths())
            if nodes.intersection(path.nodes)]


def _clusters(reader, nodes):
    """Detached clusters behind *nodes* (absent nodes are skipped)."""
    out = []
    for node in nodes:
        node = tuple(node)
        if reader.has_node(node):
            out.append((node, detach_cluster(reader.cluster(node))))
    return out


def _stats(reader):
    """A worker's own counters, for debugging and benchmarks."""
    hits, misses, entries, capacity = reader.cache_info()
    return {
        "pid": os.getpid(),
        "generation": reader.generation,
        "intervals": reader.num_intervals,
        "cluster_hits": hits,
        "cluster_misses": misses,
        "bytes_scanned": reader.bytes_scanned,
    }


def _dispatch(reader, state, method, kwargs):
    """Route one partial call to its handler."""
    if method == "shard_best":
        return _shard_best(reader, **kwargs)
    if method == "shard_paths_for":
        return _shard_paths_for(reader, **kwargs)
    if method == "paths":
        return reader.paths()
    if method == "clusters":
        return _clusters(reader, **kwargs)
    if method == "refresh":
        return reader.refresh()
    if method == "stats":
        return _stats(reader)
    if method == "set_delay":
        state["delay"] = float(kwargs["seconds"])
        return True
    if method == "ping":
        return "pong"
    raise ValueError(f"unknown worker method {method!r}")


def worker_main(conn, directory, cluster_cache_size=1024):
    """Serve partial queries over *conn* until told to stop.

    The worker process's entry point: opens its own reader over
    *directory* (answering ``("ready", pid)`` on success, ``("fatal",
    message)`` on failure), then answers batches until the stop
    sentinel or pipe EOF.  A fault-injected delay (``set_delay``)
    makes the worker sleep before answering each later batch — the
    hook the benchmarks and fault tests use to create a straggler.
    """
    try:
        reader = ClusterIndexReader(directory,
                                    cache_size=cluster_cache_size)
    except Exception as exc:  # surfaced to the coordinator
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    state = {"delay": 0.0}
    # Forked siblings inherit copies of every pipe's coordinator end,
    # so a dead coordinator does not reliably EOF this connection —
    # reparenting (getppid() changes) is the signal that always fires.
    parent_pid = os.getppid()
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                if not conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        break
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            calls = message[1]
            if state["delay"] and not any(
                    method == "set_delay" for _, method, _ in calls):
                time.sleep(state["delay"])
            results = []
            for call_id, method, kwargs in calls:
                try:
                    payload = _dispatch(reader, state, method,
                                        kwargs)
                    results.append((call_id, True, payload))
                except Exception as exc:
                    results.append((call_id, False,
                                    f"{type(exc).__name__}: {exc}"))
            try:
                conn.send(("result", results))
            except (BrokenPipeError, OSError):
                break
    finally:
        reader.close()
        conn.close()
