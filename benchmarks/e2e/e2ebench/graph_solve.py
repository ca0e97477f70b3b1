"""Workload ``graph_solve``: cluster-level inputs, no documents.

One operation is a round of forty solver queries over fixed inputs:

(a) a drifting-topic cluster stream -> ``build_cluster_graph`` at gap
    0 and 1 -> ``solve_report(solver="auto")`` for Problem 1 at
    ``l=4`` (both gaps) and full length (gap 1); on a third of the
    stream at gap 0, Problem 1 at full length — where the planner
    picks TA, whose probe count swings eight-fold with the seed on
    the whole stream — and Problem 2 at ``lmin=3`` (which took over
    100 s on the whole stream);
(b) the paper's Section-5.2 generator ``synthetic_cluster_graph``:
    one graph solved by ``bfs`` at ``l=4`` and full length, and
    sixteen small ones solved at full length by ``dfs`` and by
    ``bfs``.  Sixteen, because DFS's pruning makes its time on one
    random graph swing by a factor of five from seed to seed, while
    the sum over sixteen is steady to 3 %; full length only, because
    DFS on sub-paths took 6.5 s where BFS took 0.15 s and swings as
    widely;
(c) the stream of (a) replayed through
    ``StreamingAffinityPipeline.add_interval`` + ``top_k()``.

The window join and the solvers do all the work and ``corpus`` /
``text`` / ``cooccur`` none, so a join or solver change shows here
and must not move ``batch_corpus``.  (c) uses the same layers as (a)
incrementally, with the streaming similarity-join cutoff engaged
where (a) compares all pairs — a gain for one that costs the other
shows.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.online import StreamingAffinityPipeline
from repro.core.stability import build_cluster_graph
from repro.datagen.synthetic_graph import synthetic_cluster_graph
from repro.engine import StableQuery, explain, get_solver, solve_report

from e2ebench import gen
from e2ebench.harness import Measured, Traced, Workload
from e2ebench.spans import ROOT, Tracer, percentile, spanned, wrapped

FULL = dict(intervals=14, per_interval=90, pool=600,
            synthetic=dict(m=8, n=60, d=3, g=1),
            reduced=dict(m=8, n=12, d=2, g=1))
# 50 per interval: the smallest at which the streaming join engages.
SMOKE = dict(intervals=8, per_interval=50, pool=300,
             synthetic=dict(m=6, n=30, d=2, g=1),
             reduced=dict(m=6, n=8, d=2, g=1))
REDUCED_GRAPHS = 16
K = 5
MIN_ROUNDS = 3


def same_paths(left, right, nodes: bool = True) -> bool:
    """Equal answers: weights to nine places, and (optionally) nodes.

    Solvers may differ in the last ulp of a weight."""
    if len(left) != len(right):
        return False
    return all(round(a.weight, 9) == round(b.weight, 9)
               and (not nodes or a.nodes == b.nodes)
               for a, b in zip(left, right))


class GraphSolve(Workload):
    """See the module docstring."""

    name = "graph_solve"

    def setup(self) -> None:
        scale = SMOKE if self.smoke else FULL
        self.stream = gen.cluster_stream(
            self.seed, scale["intervals"], scale["per_interval"],
            scale["pool"])
        # A stream of its own, a third the size: slicing the big one
        # would cut its lineages.
        self.reduced_stream = gen.cluster_stream(
            self.seed + 1, scale["intervals"],
            scale["per_interval"] // 3, scale["pool"])
        self.synthetic = synthetic_cluster_graph(
            seed=self.seed, **scale["synthetic"])
        self.reduced = [
            synthetic_cluster_graph(seed=self.seed * 100 + n,
                                    **scale["reduced"])
            for n in range(REDUCED_GRAPHS)]
        self.gap = scale["synthetic"]["g"]
        # Small and dense enough for the brute-force oracle.
        self.oracle_stream = gen.cluster_stream(self.seed, 5, 12, 60)

    # ------------------------------------------------------------------
    # One round of queries
    # ------------------------------------------------------------------

    def _solve(self, tracer, graph, query, solver="auto"):
        if tracer is None:
            return solve_report(graph, query, solver=solver)
        with tracer.span("engine.solve"):
            # Plan first, so the chosen solver's own call can carry
            # a span of its own inside engine.solve.
            plan = None
            if solver == "auto":
                with tracer.span("engine.plan"):
                    plan = explain(graph, query)
            name = plan.solver if plan else solver
            with tracer.wrapped(get_solver(name), "solve",
                                f"core.{name}"):
                return solve_report(graph, query, solver=solver,
                                    execution_plan=plan)

    def _round(self, tracer: Optional[Tracer], op: int
               ) -> Tuple[Dict[str, list], Dict[str, float]]:
        """Run every query once; answers by label, and counts."""
        answers: Dict[str, list] = {}
        counts = {"work": 0, "edges": 0}

        def ask(label, graph, query, solver="auto"):
            report = self._solve(tracer, graph, query, solver)
            answers[label] = report.paths
            counts["work"] += sum(report.stats.counters().values())

        with spanned(tracer, ROOT, op=op):
            for gap, lengths in ((0, (4,)), (1, (4, None))):
                with spanned(tracer, "affinity.join"):
                    graph = build_cluster_graph(self.stream, gap=gap)
                counts["edges"] += graph.num_edges
                for l in lengths:
                    ask(f"a.gap{gap}.l{l}", graph,
                        StableQuery(problem="kl", l=l, k=K, gap=gap))
            with spanned(tracer, "affinity.join"):
                graph = build_cluster_graph(self.reduced_stream, gap=0)
            ask("a.reduced.lNone", graph,
                StableQuery(problem="kl", l=None, k=K, gap=0))
            ask("a.reduced.normalized", graph,
                StableQuery(problem="normalized", lmin=3, k=K, gap=0))

            for l in (4, None):
                ask(f"b.bfs.l{l}", self.synthetic,
                    StableQuery(problem="kl", l=l, k=K, gap=self.gap),
                    "bfs")
            full = StableQuery(problem="kl", l=None, k=K, gap=self.gap)
            for n, graph in enumerate(self.reduced):
                for solver in ("dfs", "bfs"):
                    ask(f"b.reduced{n}.{solver}", graph, full, solver)

            pipeline = StreamingAffinityPipeline(l=4, k=K, gap=1)
            with wrapped(tracer, pipeline.stream, "add_interval",
                         "core.online"):
                for clusters in self.stream:
                    with spanned(tracer, "affinity.stream_join"):
                        pipeline.add_interval(clusters)
            answers["c.stream"] = pipeline.top_k()
        joins = pipeline.join_stats
        counts.update(candidate_pairs=joins.candidate_pairs,
                      verified_pairs=joins.verified_pairs,
                      result_pairs=joins.result_pairs)
        return answers, counts

    # ------------------------------------------------------------------
    # Checks (outside the timed regions)
    # ------------------------------------------------------------------

    @staticmethod
    def _failures(answers: Dict[str, list]) -> int:
        """Queries of one round whose answer fails its cross-check."""
        failed = sum(1 for paths in answers.values() if not paths)
        for n in range(REDUCED_GRAPHS):
            failed += not same_paths(answers[f"b.reduced{n}.bfs"],
                                     answers[f"b.reduced{n}.dfs"],
                                     nodes=False)
        failed += not same_paths(answers["c.stream"],
                                 answers["a.gap1.l4"])
        return failed

    def _oracle_failures(self) -> int:
        """``auto`` against ``bruteforce`` on a reduced instance."""
        graph = build_cluster_graph(self.oracle_stream, gap=1)
        failed = 0
        for query in (StableQuery(problem="kl", l=3, k=K, gap=1),
                      StableQuery(problem="kl", l=None, k=K, gap=1)):
            failed += not same_paths(
                solve_report(graph, query).paths,
                solve_report(graph, query, solver="bruteforce").paths)
        return failed

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def measure(self, seconds: float) -> Measured:
        ops: List[float] = []
        failed = self._oracle_failures()
        queries = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(ops) < MIN_ROUNDS:
            started = time.perf_counter()
            answers, _ = self._round(None, len(ops))
            ops.append(time.perf_counter() - started)
            queries += len(answers)
            failed += self._failures(answers)
        return Measured(op_seconds=ops, items=queries,
                        wall_seconds=sum(ops),
                        attempted=queries + 2, failed=failed)

    def trace(self, seconds: float, tracer: Tracer) -> Traced:
        plain: List[float] = []
        failed = self._oracle_failures()
        queries = 0
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            started = time.perf_counter()
            expected, _ = self._round(None, len(plain))
            plain.append(time.perf_counter() - started)
            answers, counts = self._round(tracer, len(plain) - 1)
            queries += len(answers)
            failed += self._failures(answers)
            failed += any(not same_paths(answers[label], paths)
                          for label, paths in expected.items())
        ops = len(plain)
        layers = tracer.stage_seconds(ops)
        layers.update({
            "affinity.edges": counts["edges"],
            "affinity.candidate_pairs": counts["candidate_pairs"],
            "affinity.verified_pairs": counts["verified_pairs"],
            "affinity.result_pairs": counts["result_pairs"],
            "affinity.verify_yield":
                counts["result_pairs"]
                / max(1, counts["verified_pairs"]),
            "core.solver_work": counts["work"],
            "core.paths": sum(len(p) for p in answers.values()),
            "trace.ops": ops,
            "trace.coverage_share": tracer.coverage(),
            "trace.overhead_share":
                percentile(tracer.durations(ROOT), 50)
                / percentile(plain, 50) - 1,
        })
        return Traced(layers=layers, attempted=queries + 2,
                      failed=failed)
