"""Streaming ingestion: per-interval latency vs window size.

The serving-tier question Section 4.6 raises but the paper never
benchmarks: what does one interval cost as the sliding window (gap)
grows?  A synthetic cluster stream with persistent topics is replayed
through :class:`repro.core.online.StreamingAffinityPipeline` at
several gaps; per-interval link latency, the resident/stored state,
and the window join's candidate pairs (against the window × new pairs
an all-pairs loop compares) are recorded.

Asserted shapes: per-interval state stays bounded by the ``g + 1``
window however many intervals stream past (the eviction guarantee),
and the prefix-filter join examines no more candidate pairs than the
all-pairs loop would.

Runs under pytest alongside the other paper benchmarks, and — because
the CI smoke job has no pytest — standalone::

    PYTHONPATH=src python benchmarks/bench_streaming_ingest.py --smoke
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Optional

from repro.core.online import StreamingAffinityPipeline
from repro.graph.clusters import KeywordCluster
from repro.storage import MemoryStore

INTERVALS = 14
GAPS = [0, 1, 2]
CLUSTERS_PER_INTERVAL = 60
KEYWORDS_PER_CLUSTER = 8
VOCABULARY = 600
L, K, THETA = 3, 5, 0.1

SMOKE_SCALE = dict(intervals=6, n=20)


def synthetic_cluster_stream(intervals: int, n: int,
                             seed: int = 2007) -> List[List[KeywordCluster]]:
    """Per-interval keyword clusters with persistent topics: half of
    each interval's clusters drift mildly from the previous interval
    (stable stories), half are fresh noise."""
    rng = random.Random(seed)
    vocabulary = [f"kw{i}" for i in range(VOCABULARY)]
    stream: List[List[KeywordCluster]] = []
    previous: List[KeywordCluster] = []
    for _ in range(intervals):
        clusters: List[KeywordCluster] = []
        for j in range(n):
            if previous and j < n // 2:
                # Drift one keyword of a persistent topic
                # (deterministically: sets iterate in hash order, so
                # pick the smallest and re-draw on collision).
                keywords = set(previous[j].keywords)
                keywords.discard(min(keywords))
                replacement = rng.choice(vocabulary)
                while replacement in keywords:
                    replacement = rng.choice(vocabulary)
                keywords.add(replacement)
            else:
                keywords = set(rng.sample(vocabulary,
                                          KEYWORDS_PER_CLUSTER))
            clusters.append(KeywordCluster(frozenset(keywords)))
        stream.append(clusters)
        previous = clusters
    return stream


def run_ingest(record: Callable[[str, str, object], None],
               intervals: int = INTERVALS,
               n: int = CLUSTERS_PER_INTERVAL) -> None:
    """Replay the stream per gap; record latency and state bounds."""
    stream = synthetic_cluster_stream(intervals, n)
    for gap in GAPS:
        store = MemoryStore()
        pipeline = StreamingAffinityPipeline(l=L, k=K, gap=gap,
                                             theta=THETA, store=store)
        per_interval: List[float] = []
        max_store = 0
        all_pairs = 0
        for position, clusters in enumerate(stream):
            all_pairs += len(clusters) * sum(
                len(old) for old in stream[max(0, position - gap - 1):
                                           position])
            started = time.perf_counter()
            pipeline.add_interval(clusters)
            per_interval.append(time.perf_counter() - started)
            max_store = max(max_store, len(store))
            # Eviction bound: the store never holds more than the
            # window's g + 1 intervals of node state.
            assert len(store) <= (gap + 1) * n
            intervals_in_store = {node[0] for node in store}
            assert len(intervals_in_store) <= gap + 1
        candidates = pipeline.join_stats.candidate_pairs
        assert candidates <= all_pairs
        mean_ms = 1000 * sum(per_interval) / len(per_interval)
        worst_ms = 1000 * max(per_interval)
        record("Streaming ingest (per-interval latency)",
               f"g={gap} n={n} mean", f"{mean_ms:.2f}ms")
        record("Streaming ingest (per-interval latency)",
               f"g={gap} n={n} worst", f"{worst_ms:.2f}ms")
        record("Streaming ingest (join work)",
               f"g={gap} n={n} candidate pairs",
               f"{candidates} (all pairs {all_pairs})")
        record("Streaming ingest (bounded state)",
               f"g={gap} n={n} max store keys",
               f"{max_store} (cap {(gap + 1) * n})")


def test_streaming_ingest_latency(series) -> None:
    """Benchmark entry point under pytest (records paper-series
    rows; the eviction bound asserts inside the replay)."""
    run_ingest(series)


def test_streaming_latency_grows_with_gap() -> None:
    """A larger window means more candidate intervals per ingest:
    total link work for g=2 must exceed g=1 on the same stream.  Both
    windows are past the join cutoff, so both gaps run the indexed
    join — at g=0 the all-pairs loop would be measured instead."""
    stream = synthetic_cluster_stream(INTERVALS, CLUSTERS_PER_INTERVAL)
    totals = {}
    for gap in (1, 2):
        pipeline = StreamingAffinityPipeline(l=L, k=K, gap=gap,
                                             theta=THETA)
        started = time.perf_counter()
        for clusters in stream:
            pipeline.add_interval(clusters)
        totals[gap] = time.perf_counter() - started
        assert pipeline.join_stats.candidate_pairs > 0
    assert totals[2] > totals[1]


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone smoke mode for CI (no pytest required)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small shapes for CI smoke runs")
    args = parser.parse_args(argv)
    rows: List[str] = []

    def record(experiment: str, label: str, value) -> None:
        rows.append(f"{experiment}: {label:<32} {value}")

    if args.smoke:
        run_ingest(record, **SMOKE_SCALE)
    else:
        run_ingest(record)
    for row in rows:
        print(row)
    print("streaming ingest benchmark: state bounds held")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
