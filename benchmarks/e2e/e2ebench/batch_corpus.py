"""Workload ``batch_corpus``: raw DBLP-shaped XML file to a served index.

One operation is the whole batch path a user pays for: ``DBLPAdapter``
-> ``IntervalCorpus.from_adapter`` -> ``find_stable_clusters(l=3,
k=5, gap=1, index_dir=...)`` -> reopen with ``ClusterQueryService``.
It repeats on the same file until the time budget is spent.
Section 3 (co-occurrence count and prune) does most of the work;
the window join, solvers and index see a handful of clusters per
interval and do almost none.
"""

from __future__ import annotations

import time
from typing import Any, List, Tuple

from repro.core.stability import build_cluster_graph
from repro.corpus import DBLPAdapter
from repro.engine import StableQuery, explain, get_solver, solve_report
from repro.index import ClusterIndexWriter
from repro.index.format import load_manifest
from repro.pipeline import find_stable_clusters
from repro.service import ClusterQueryService
from repro.text.documents import IntervalCorpus
from repro.text.stemmer import stem
from repro.vocab import Vocabulary

from e2ebench import gen
from e2ebench.harness import (
    Measured,
    Traced,
    Workload,
    directory_bytes,
)
from e2ebench.spans import ROOT, Tracer, percentile
from e2ebench.stages import StageCounts, generate_clusters

FULL = dict(records=24000, intervals=24, vocabulary=20000, topics=40)
SMOKE = dict(records=2400, intervals=8, vocabulary=4000, topics=12)
QUERY = dict(l=3, k=5, gap=1)
MIN_REPETITIONS = 3


class BatchCorpus(Workload):
    """See the module docstring."""

    name = "batch_corpus"

    def setup(self) -> None:
        scale = SMOKE if self.smoke else FULL
        self.plan = gen.write_dblp_xml(
            self.path("dblp.xml"), self.seed, **scale)
        self.stems = gen.topic_stems(self.plan.topics, stem)

    # ------------------------------------------------------------------
    # The operation, as a user runs it and re-driven stage by stage
    # ------------------------------------------------------------------

    def _as_composed(self, index_dir: str) -> Tuple[Any, Any, List]:
        adapter = DBLPAdapter(self.plan.path)
        corpus = IntervalCorpus.from_adapter(adapter)
        result = find_stable_clusters(corpus, index_dir=index_dir,
                                      **QUERY)
        with ClusterQueryService(index_dir) as service:
            reopened = service.stable_paths()
        return adapter.report, result, reopened

    def _redriven(self, tracer: Tracer, index_dir: str, op: int,
                  counts: StageCounts) -> Tuple[Any, List, List, Any]:
        """The stages ``find_stable_clusters`` composes, under spans."""
        with tracer.span(ROOT, op=op):
            adapter = DBLPAdapter(self.plan.path)
            with tracer.span("corpus.load"):
                corpus = IntervalCorpus.from_adapter(
                    tracer.timed_iter("corpus.parse", adapter))
            vocab = Vocabulary()
            interval_clusters = []
            for interval in corpus.interval_indices:
                clusters = generate_clusters(
                    tracer, corpus.documents(interval), interval,
                    counts)
                with tracer.span("vocab.rebind"):
                    interval_clusters.append(
                        [c.rebind(vocab) for c in clusters])
            with tracer.span("affinity.join"):
                graph = build_cluster_graph(interval_clusters,
                                            gap=QUERY["gap"])
            query = StableQuery(problem="kl", **QUERY)
            with tracer.span("engine.plan"):
                plan = explain(graph, query)
            solver = get_solver(plan.solver)
            with tracer.span("engine.solve"), tracer.wrapped(
                    solver, "solve", f"core.{plan.solver}"):
                report = solve_report(graph, query,
                                      execution_plan=plan)
            report.plan.vocab_size = len(vocab)
            with tracer.span("index.write"):
                ClusterIndexWriter.write_run(
                    index_dir, interval_clusters, report.paths,
                    vocab=vocab, query=query, plan=report.plan)
            with tracer.span("index.open"):
                with ClusterQueryService(index_dir) as service:
                    reopened = service.stable_paths()
        return adapter.report, interval_clusters, reopened, report

    # ------------------------------------------------------------------
    # Checks (outside the timed regions)
    # ------------------------------------------------------------------

    def _failures(self, ingest, paths, payload, reopened) -> int:
        """How many of this operation's output checks failed."""
        plan = self.plan
        failed = 0
        failed += (ingest.parsed, ingest.repaired, ingest.skipped,
                   ingest.malformed) != (plan.accepted, plan.repaired,
                                         plan.skipped, plan.malformed)
        failed += list(reopened) != list(paths)
        failed += not paths
        for path in paths:
            failed += not self._follows_one_topic(path, payload)
        return failed

    def _follows_one_topic(self, path, payload) -> bool:
        """Every cluster on *path* is mostly one planted topic's
        words (a background word can join by chance), the same topic
        all along, in intervals the topic was planted in."""
        topics = set()
        for node in path.nodes:
            words = payload(node).keywords
            planted = [self.stems[w] for w in words
                       if w in self.stems]
            if 2 * len(planted) <= len(words):
                return False
            topics.update(topic.name for topic in planted)
        if len(topics) != 1:
            return False
        topic = next(t for t in self.plan.topics
                     if t.name in topics)
        return all(node[0] in topic.intervals for node in path.nodes)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def measure(self, seconds: float) -> Measured:
        index_dir = self.path("index")
        ops: List[float] = []
        failed = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline \
                or len(ops) < MIN_REPETITIONS:
            started = time.perf_counter()
            ingest, result, reopened = self._as_composed(index_dir)
            ops.append(time.perf_counter() - started)
            failed += bool(self._failures(
                ingest, result.paths, result.cluster_graph.payload,
                reopened))
        return Measured(op_seconds=ops,
                        items=self.plan.accepted * len(ops),
                        wall_seconds=sum(ops),
                        attempted=len(ops), failed=failed)

    def trace(self, seconds: float, tracer: Tracer) -> Traced:
        index_dir = self.path("index")
        counts = StageCounts()
        composed: List[float] = []
        failed = 0
        deadline = time.perf_counter() + seconds
        while not composed or time.perf_counter() < deadline:
            started = time.perf_counter()
            ingest, result, reopened = self._as_composed(index_dir)
            composed.append(time.perf_counter() - started)
            ingest, clusters, reopened, report = self._redriven(
                tracer, index_dir, len(composed) - 1, counts)
            # The decomposition is faithful only if it computes what
            # the composed call computed.
            failed += (report.paths != result.paths
                       or clusters != result.interval_clusters
                       or list(reopened) != list(result.paths))
            failed += bool(self._failures(
                ingest, report.paths, result.cluster_graph.payload,
                reopened))
        ops = len(composed)
        traced = tracer.durations(ROOT)
        layers = tracer.stage_seconds(ops)
        layers.update(counts.layers(ops))
        stage_sum = sum(traced) / ops - tracer.self_times()[ROOT] / ops
        stored = sum(len(c) for c in clusters)
        index_bytes = directory_bytes(index_dir)
        layers.update({
            "corpus.records": ingest.total_records,
            "corpus.repaired": ingest.repaired,
            "corpus.skipped": ingest.skipped,
            "corpus.malformed": ingest.malformed,
            "vocab.size": report.plan.vocab_size,
            "affinity.edges": result.cluster_graph.num_edges,
            "core.solver_work": sum(report.stats.counters().values()),
            "core.paths": len(report.paths),
            "pipeline.glue_s": percentile(composed, 50) - stage_sum,
            "index.segments": len(load_manifest(index_dir)["segments"]),
            "index.bytes": index_bytes,
            "index.bytes_per_cluster": index_bytes / max(1, stored),
            "trace.ops": ops,
            "trace.coverage_share": tracer.coverage(),
            "trace.overhead_share":
                percentile(traced, 50) / percentile(composed, 50) - 1,
        })
        return Traced(layers=layers, attempted=2 * ops, failed=failed)
