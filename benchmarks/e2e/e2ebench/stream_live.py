"""Workload ``stream_live``: writes beside reads, one interval at a time.

Blog-shaped posts from ``BlogosphereGenerator`` are fed an interval
at a time to ``StreamingDocumentPipeline(l=3, k=5, gap=1,
index_dir=..., flush_intervals=4)`` with the default merge policy
inline.  One operation is an interval: ``add_documents`` starts,
a ``ClusterQueryService`` on the same directory ``refresh()``-es, and
a refine that reflects the new interval is answered.  Twenty fixed
refine/lookup/paths queries follow each interval as read load.
Single-threaded and deterministic.

Same Section-3/4 layers as ``batch_corpus`` but through the
streaming front end with a bounded window, plus the index write path
(append, seal, size-tiered merge) racing the read path (refresh,
caches cold after every generation).  This is the workload that
judges "one ingestion pipeline, not two" and any index write or
merge change; merges are the periodic spike ``op_p90_ms`` shows and
``op_p50_ms`` hides.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

import repro.index.writer as index_writer
from repro.index.format import load_manifest
from repro.index.merge import segment_bytes
from repro.pipeline import find_stable_clusters
from repro.service import ClusterQueryService
from repro.streaming import StreamingDocumentPipeline
from repro.text.documents import IntervalCorpus
from repro.text.stemmer import stem

from e2ebench import gen
from e2ebench.harness import (
    Measured,
    Traced,
    Workload,
    directory_bytes,
    hit_rate,
    timed_refine,
)
from e2ebench.spans import ROOT, Tracer, median_us, percentile, spanned
from e2ebench.stages import StageCounts, generate_clusters

FULL = dict(vocabulary=3000, background=300, horizon=400,
            buffered=32, prefix=8)
SMOKE = dict(vocabulary=800, background=80, horizon=100,
             buffered=6, prefix=4)
QUERY = dict(l=3, k=5, gap=1)
FLUSH_INTERVALS = 4
QUERIES_PER_INTERVAL = 20
# Enough for the merge policy to fire at least once (5 sealed segments).
MIN_INTERVALS = 24


class _Run:
    """One pass of the stream through a pipeline and a live reader."""

    def __init__(self, workload: "StreamLive", index_dir: str,
                 posts: gen.PostStream,
                 tracer: Optional[Tracer]) -> None:
        scale = workload.scale
        self.tracer = tracer
        self.queries = workload.queries
        self.index_dir = index_dir
        self.posts = posts
        self.pipeline = StreamingDocumentPipeline(
            index_dir=index_dir, flush_intervals=FLUSH_INTERVALS,
            **QUERY)
        self.service = ClusterQueryService(index_dir)
        self.prefix = scale["prefix"]
        self.prefix_documents: List[list] = []
        self.prefix_paths: list = []
        self.clusters: List[list] = []
        self.ops: List[float] = []
        self.busy = 0.0
        self.posts_fed = 0
        self.failed = 0
        self.counts = StageCounts()
        self.refines: Dict[str, List[float]] = {"hit": [], "miss": []}
        self.merge_in = 0
        self.merge_out = 0

    def close(self) -> None:
        """Close the reader and the pipeline (finalizing the index)."""
        self.service.close()
        self.pipeline.close()

    # ------------------------------------------------------------------
    # One interval
    # ------------------------------------------------------------------

    def _ingest(self, documents: list, interval: int):
        if self.tracer is None:
            return self.pipeline.add_documents(documents)
        with self.tracer.span("streaming.add"):
            clusters = generate_clusters(self.tracer, documents,
                                         interval, self.counts)
            with self.tracer.span("streaming.link"):
                report = self.pipeline.add_clusters(clusters)
        report.num_documents = len(documents)
        return report

    def step(self) -> None:
        """Feed the next interval, time it, query, then check."""
        documents = self.posts.next_interval()
        interval = self.pipeline.num_intervals
        tracer = self.tracer
        started = time.perf_counter()
        with spanned(tracer, ROOT, op=interval):
            report = self._ingest(documents, interval)
            with spanned(tracer, "index.refresh"):
                self.service.refresh()
            keyword = self._probe_keyword(interval, report)
            if keyword is not None:
                with spanned(tracer, "service.refine"):
                    answer = self.service.refine(keyword, interval)
        done = time.perf_counter()
        self._queries(interval)
        self.ops.append(done - started)
        self.busy += time.perf_counter() - started
        self.posts_fed += len(documents)

        stored = [self.pipeline.cluster_for((interval, j))
                  for j in range(report.num_clusters)]
        self.clusters.append(stored)
        bad = self.service.num_intervals != interval + 1
        bad |= stored != self.service.reader.clusters_at(interval)
        if keyword is not None:
            bad |= answer is None or answer.query_stem != keyword
        self.failed += bad
        if interval < self.prefix:
            self.prefix_documents.append(documents)
        if interval == self.prefix - 1:
            self.prefix_paths = self.pipeline.top_k()

    def _probe_keyword(self, interval: int, report) -> Optional[str]:
        """A keyword of the new interval's first cluster that the
        query side's stemmer leaves as it is (Porter stemming is not
        idempotent on every stem), or None."""
        if not report.num_clusters:
            return None
        first = self.pipeline.cluster_for((interval, 0))
        return min((w for w in first.keywords if stem(w) == w),
                   default=None)

    def _queries(self, interval: int) -> None:
        """The fixed read load that follows every interval."""
        service, tracer = self.service, self.tracer
        at = interval * QUERIES_PER_INTERVAL
        for n in range(at, at + QUERIES_PER_INTERVAL):
            kind, keyword, back = self.queries[n % len(self.queries)]
            target = max(0, interval - back)
            if kind == "paths":
                with spanned(tracer, "service.paths", op=n):
                    service.paths_for(keyword)
            elif kind == "lookup":
                with spanned(tracer, "service.lookup", op=n):
                    service.lookup(keyword, target)
            elif tracer is None:
                service.refine(keyword, target)
            else:
                took, hit = timed_refine(service, keyword, target)
                self.refines["hit" if hit else "miss"].append(took)

    def on_merge(self, args: tuple, merged: Dict[str, Any]) -> None:
        """Count one ``rewrite_segments`` call's bytes in and out."""
        self.merge_in += sum(segment_bytes(meta) for meta in args[1])
        self.merge_out += segment_bytes(merged)

    # ------------------------------------------------------------------
    # After the last interval
    # ------------------------------------------------------------------

    def final_failures(self) -> int:
        """Close the index and check what it and the stream hold."""
        final = self.pipeline.top_k()
        self.close()
        failed = 0
        with ClusterQueryService(self.index_dir) as closed:
            failed += closed.stable_paths() != final
            failed += not closed.complete
        corpus = IntervalCorpus()
        for documents in self.prefix_documents:
            corpus.extend(documents)
        batch = find_stable_clusters(corpus, **QUERY)
        failed += batch.paths != self.prefix_paths
        failed += batch.interval_clusters \
            != self.clusters[:self.prefix]
        return failed


class StreamLive(Workload):
    """See the module docstring."""

    name = "stream_live"

    def setup(self) -> None:
        self.scale = SMOKE if self.smoke else FULL
        self.posts = self._new_posts()
        self.posts.buffer(self.scale["buffered"])
        rng = random.Random(self.seed)
        words = [w for event in self.posts.schedule.events
                 for w in event.keywords]
        self.queries: List[Tuple[str, str, int]] = [
            (rng.choice(("refine",) * 6 + ("lookup",) * 3
                        + ("paths",)),
             rng.choice(words), rng.choice((0, 0, 0, 1, 2, 5)))
            for _ in range(10 * QUERIES_PER_INTERVAL)]
        self.run: Optional[_Run] = None

    def _new_posts(self) -> gen.PostStream:
        return gen.PostStream(
            self.seed, self.scale["vocabulary"],
            self.scale["background"], self.scale["horizon"])

    def teardown(self) -> None:
        if self.run is not None:
            self.run.close()
            self.run = None

    def _timed_pass(self, seconds: float) -> _Run:
        """Stream the set-up's posts, untraced, for *seconds*."""
        run = self.run = _Run(self, self.path("index"), self.posts,
                              None)
        deadline = time.perf_counter() + seconds
        while len(run.ops) < MIN_INTERVALS \
                or time.perf_counter() < deadline:
            run.step()
        return run

    def measure(self, seconds: float) -> Measured:
        run = self._timed_pass(seconds)
        failed = run.failed + run.final_failures()
        return Measured(op_seconds=run.ops, items=run.posts_fed,
                        wall_seconds=run.busy,
                        attempted=len(run.ops) + 4, failed=failed)

    def trace(self, seconds: float, tracer: Tracer) -> Traced:
        plain = self._timed_pass(seconds / 2)
        failed = plain.failed + plain.final_failures()
        ops = len(plain.ops)

        # The same intervals again, stage by stage under spans.
        run = self.run = _Run(self, self.path("traced"),
                              self._new_posts(), tracer)
        linker, writer = run.pipeline.linker, run.pipeline.index_writer
        with tracer.wrapped(linker, "add_interval",
                            "affinity.stream_join"), \
                tracer.wrapped(linker.stream, "add_interval",
                               "core.online"), \
                tracer.wrapped(writer, "append_interval",
                               "index.append"), \
                tracer.wrapped(writer, "set_paths",
                               "index.set_paths"), \
                tracer.wrapped(index_writer, "rewrite_segments",
                               "index.merge", on_call=run.on_merge), \
                tracer.wrapped(run.service.reader, "lookup",
                               "index.lookup"):
            while len(run.ops) < ops:
                run.step()
            # Faithful only if the re-driven stages gave the same
            # answers as the composed add_documents.
            failed += run.clusters != plain.clusters
            failed += run.pipeline.top_k() != plain.pipeline.top_k()
            stats = run.service.stats()
            work = sum(run.pipeline.stats.counters().values())
            paths = len(run.pipeline.top_k())
            failed += run.failed + run.final_failures()
        joins = linker.join_stats
        reports = run.pipeline.reports

        index_bytes = directory_bytes(run.index_dir)
        stored = sum(len(c) for c in run.clusters)
        layers = tracer.stage_seconds(ops)
        # The in-operation refine is reported with the other
        # queries, in microseconds.
        layers.pop("service.refine_s", None)
        layers.update(run.counts.layers(ops))
        layers.update({
            "vocab.size": reports[-1].vocab_size,
            "streaming.window_nodes": sum(
                r.num_clusters for r in reports[-(QUERY["gap"] + 1):]),
            "affinity.candidate_pairs": joins.candidate_pairs,
            "affinity.verified_pairs": joins.verified_pairs,
            "affinity.result_pairs": joins.result_pairs,
            "affinity.verify_yield":
                joins.result_pairs / max(1, joins.verified_pairs),
            "affinity.edges": sum(r.num_edges for r in reports),
            "core.solver_work": work,
            "core.paths": paths,
            "index.merges": len(tracer.durations("index.merge")),
            "index.merge_bytes_rewritten": run.merge_out,
            # Every byte that went to disk: what the live logs hold,
            # plus what merges read back and wrote again.
            "index.bytes_written":
                writer.bytes_written + run.merge_in,
            "index.segments":
                len(load_manifest(run.index_dir)["segments"]),
            "index.bytes": index_bytes,
            "index.bytes_per_cluster": index_bytes / max(1, stored),
            "index.lookup_us":
                median_us(tracer.durations("index.lookup")),
            "index.bytes_scanned": stats["bytes_scanned"],
            "index.cluster_hit_rate": hit_rate(
                stats["cluster_hits"], stats["cluster_misses"]),
            "service.refine_hit_us": median_us(run.refines["hit"]),
            "service.refine_miss_us": median_us(run.refines["miss"]),
            "service.lookup_us":
                median_us(tracer.durations("service.lookup")),
            "service.paths_us":
                median_us(tracer.durations("service.paths")),
            "service.hot_hit_rate": hit_rate(
                stats["refiner_hits"], stats["refiner_misses"]),
            "trace.ops": ops,
            "trace.coverage_share": tracer.coverage(),
            "trace.overhead_share":
                percentile(run.ops, 50) / percentile(plain.ops, 50)
                - 1,
        })
        return Traced(layers=layers, attempted=2 * (ops + 4) + 2,
                      failed=failed)
