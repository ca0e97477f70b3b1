"""Unified engine layer: query validation, solver agreement, planning.

The property-style tests assert the acceptance bar of the engine
refactor: every registered solver, invoked through the one
``StableQuery`` API, returns the same top-k paths as the brute-force
oracle on randomized synthetic graphs; and the cost-based planner
flips BFS -> block-nested BFS -> DFS+disk as the memory budget
shrinks.
"""

import pytest

from repro.core import (
    SolverStats,
    bruteforce_normalized,
    bruteforce_topk,
)
from repro.core.online import StreamingStableClusters
from repro.datagen import synthetic_cluster_graph
from repro.engine import (
    GraphStats,
    StableQuery,
    apply_serving_dimension,
    estimate_annotation_bytes,
    estimate_window_bytes,
    explain,
    get_solver,
    plan,
    plan_streaming,
    solve,
    solve_report,
    solver_names,
    split_serving_budget,
)


def assert_same_paths(got, expected, context=""):
    """Node tuples exactly equal; weights equal up to float noise
    (solvers sum edge weights in different orders)."""
    assert [p.nodes for p in got] == [p.nodes for p in expected], context
    for a, b in zip(got, expected):
        assert a.weight == pytest.approx(b.weight), context


class TestStableQuery:
    def test_defaults_are_valid(self):
        query = StableQuery()
        assert query.problem == "kl"
        assert query.l is None  # full paths

    @pytest.mark.parametrize("kwargs", [
        {"problem": "nope"},
        {"k": 0},
        {"gap": -1},
        {"l": 0},
        {"lmin": 0},
        {"problem": "normalized"},          # needs lmin (or l)
        {"problem": "normalized", "lmin": 2, "diverse": True},
        {"diverse_policy": "zigzag"},
        {"diverse_pool_factor": 0},
        {"memory_budget": 0},
    ])
    def test_invalid_queries_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StableQuery(**kwargs)

    def test_length_for_resolves_full_paths(self):
        assert StableQuery(l=None).length_for(7) == 6
        assert StableQuery(l=3).length_for(7) == 3
        assert StableQuery(problem="normalized",
                           lmin=2).length_for(7) == 2

    def test_is_full_paths(self):
        assert StableQuery(l=None).is_full_paths(5)
        assert StableQuery(l=4).is_full_paths(5)
        assert not StableQuery(l=3).is_full_paths(5)
        assert not StableQuery(problem="normalized",
                               lmin=4).is_full_paths(5)

    def test_with_k_copies(self):
        query = StableQuery(l=2, k=3)
        assert query.with_k(30).k == 30
        assert query.k == 3


class TestRegistry:
    def test_all_five_solvers_registered(self):
        assert solver_names() == [
            "bfs", "bruteforce", "dfs", "normalized", "ta"]

    def test_unknown_solver_raises(self):
        with pytest.raises(ValueError, match="unknown solver"):
            get_solver("quantum")

    def test_unified_stats_protocol(self):
        for name in solver_names():
            stats = get_solver(name).new_stats()
            assert isinstance(stats, SolverStats)
            counters = stats.counters()
            assert all(value == 0 for value in counters.values())
            assert isinstance(stats.summary(), str)

    def test_supports_rejects_wrong_problem(self):
        normalized = StableQuery(problem="normalized", lmin=2)
        assert get_solver("bfs").supports(normalized, 5) is not None
        assert get_solver("normalized").supports(normalized, 5) is None
        partial = StableQuery(problem="kl", l=2)
        assert get_solver("ta").supports(partial, 5) is not None
        assert get_solver("ta").supports(
            StableQuery(problem="kl", l=4), 5) is None

    def test_forcing_unsupported_solver_raises(self):
        graph = synthetic_cluster_graph(m=4, n=5, d=2, seed=1)
        with pytest.raises(ValueError, match="full-path"):
            solve(graph, StableQuery(problem="kl", l=1, k=2),
                  solver="ta")


class TestSolverAgreement:
    """Every solver == brute-force oracle, randomized graphs."""

    SEEDS = range(6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kl_partial_length_agreement(self, seed):
        gap = seed % 2
        graph = synthetic_cluster_graph(m=5, n=7, d=2, g=gap,
                                        seed=seed)
        query = StableQuery(problem="kl", l=3, k=5, gap=gap)
        oracle = bruteforce_topk(graph, l=3, k=5)
        for name in ("bfs", "dfs", "bruteforce"):
            assert_same_paths(solve(graph, query, solver=name), oracle,
                              f"solver={name} seed={seed}")
        assert_same_paths(solve(graph, query), oracle,
                          f"solver=auto seed={seed}")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kl_full_path_agreement(self, seed):
        gap = seed % 2
        graph = synthetic_cluster_graph(m=4, n=6, d=2, g=gap,
                                        seed=seed + 50)
        query = StableQuery(problem="kl", l=None, k=4, gap=gap)
        oracle = bruteforce_topk(graph, l=3, k=4)
        for name in ("bfs", "dfs", "ta", "bruteforce"):
            assert_same_paths(solve(graph, query, solver=name), oracle,
                              f"solver={name} seed={seed}")
        assert_same_paths(solve(graph, query), oracle,
                          f"solver=auto seed={seed}")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_normalized_agreement(self, seed):
        graph = synthetic_cluster_graph(m=4, n=5, d=2, seed=seed + 90)
        query = StableQuery(problem="normalized", lmin=2, k=4,
                            exact=True)
        oracle = bruteforce_normalized(graph, lmin=2, k=4)
        for name in ("normalized", "bruteforce"):
            assert_same_paths(solve(graph, query, solver=name), oracle,
                              f"solver={name} seed={seed}")
        # Pruned (default) mode still matches the oracle's top-1.
        pruned = solve(graph, StableQuery(problem="normalized",
                                          lmin=2, k=4))
        assert pruned[0].nodes == oracle[0].nodes

    def test_block_nested_plan_matches_oracle(self):
        graph = synthetic_cluster_graph(m=5, n=10, d=3, seed=11)
        oracle = bruteforce_topk(graph, l=3, k=5)
        query = StableQuery(problem="kl", l=3, k=5,
                            memory_budget=16 * 1024)
        report = solve_report(graph, query)
        assert report.plan.solver == "bfs"
        assert report.plan.window_block_nodes is not None
        assert report.stats.counters()["window_passes"] > \
            graph.num_intervals
        assert_same_paths(report.paths, oracle)

    def test_dfs_sharded_plan_matches_oracle(self):
        graph = synthetic_cluster_graph(m=5, n=10, d=3, seed=12)
        oracle = bruteforce_topk(graph, l=4, k=5)
        query = StableQuery(problem="kl", l=4, k=5)
        execution = plan(query,
                         GraphStats(num_intervals=5,
                                    max_interval_nodes=40000,
                                    avg_out_degree=3.0, gap=0),
                         memory_budget=4 * 1024)
        assert execution.solver == "dfs"
        assert execution.backend == "sharded"
        report = solve_report(graph, query, execution_plan=execution)
        assert_same_paths(report.paths, oracle)

    def test_diverse_query_through_engine(self):
        graph = synthetic_cluster_graph(m=4, n=8, d=3, seed=13)
        query = StableQuery(problem="kl", l=3, k=3, diverse=True)
        paths = solve(graph, query)
        starts = [p.start for p in paths]
        ends = [p.end for p in paths]
        assert len(set(starts)) == len(starts)
        assert len(set(ends)) == len(ends)


class TestPlanner:
    GS = GraphStats(num_intervals=10, max_interval_nodes=1000,
                    avg_out_degree=5.0, gap=1, num_nodes=10000,
                    num_edges=50000)

    def _query(self, **kwargs):
        kwargs.setdefault("problem", "kl")
        kwargs.setdefault("l", 5)
        kwargs.setdefault("k", 10)
        return StableQuery(**kwargs)

    def test_unbounded_budget_picks_bfs_in_memory(self):
        execution = plan(self._query(), self.GS)
        assert execution.solver == "bfs"
        assert execution.backend == "memory"
        assert execution.window_block_nodes is None

    def test_planner_flips_bfs_to_block_nested_to_dfs(self):
        """The satellite requirement: shrinking budgets change the
        plan from plain BFS to block-nested BFS to disk-backed DFS."""
        window = estimate_window_bytes(self._query(), self.GS)
        roomy = plan(self._query(), self.GS, memory_budget=window * 2)
        assert (roomy.solver, roomy.window_block_nodes) == ("bfs", None)

        squeezed = plan(self._query(), self.GS,
                        memory_budget=window // 4)
        assert squeezed.solver == "bfs"
        assert squeezed.window_block_nodes is not None
        assert squeezed.backend == "disk"

        starved = plan(self._query(), self.GS,
                       memory_budget=window // 1000)
        assert starved.solver == "dfs"
        assert starved.backend in ("disk", "sharded")

    def test_block_size_shrinks_with_budget(self):
        window = estimate_window_bytes(self._query(), self.GS)
        bigger = plan(self._query(), self.GS, memory_budget=window // 2)
        smaller = plan(self._query(), self.GS,
                       memory_budget=window // 8)
        assert bigger.window_block_nodes > smaller.window_block_nodes

    def test_huge_annotation_volume_shards_the_store(self):
        giant = GraphStats(num_intervals=20,
                           max_interval_nodes=100000,
                           avg_out_degree=8.0, gap=2)
        execution = plan(self._query(l=10), giant,
                         memory_budget=64 * 1024)
        assert execution.solver == "dfs"
        assert execution.backend == "sharded"
        assert execution.num_shards > 1
        # Sharded plans carry the auto-compaction threshold the
        # engine hands to open_store.
        assert execution.compact_garbage_bytes is not None

    def test_annotation_volume_scales_window_by_intervals(self):
        # DFS annotates all m intervals, not just the g+1 resident
        # ones, so the sharding decision uses the scaled estimate.
        query = self._query()
        window = estimate_window_bytes(query, self.GS)
        annotations = estimate_annotation_bytes(query, self.GS)
        m, g = self.GS.num_intervals, self.GS.gap
        assert annotations == int(window * m / (g + 1))

    def test_forced_bfs_honours_memory_budget(self):
        graph = synthetic_cluster_graph(m=5, n=10, d=3, seed=14)
        query = StableQuery(problem="kl", l=3, k=5,
                            memory_budget=16 * 1024)
        report = solve_report(graph, query, solver="bfs")
        assert report.plan.window_block_nodes is not None
        assert report.plan.estimated_window_bytes > 0
        assert_same_paths(report.paths,
                          bruteforce_topk(graph, l=3, k=5))

    def test_small_full_path_query_goes_to_ta(self):
        small = GraphStats(num_intervals=4, max_interval_nodes=10,
                           avg_out_degree=2.0, gap=0)
        execution = plan(self._query(l=None), small)
        assert execution.solver == "ta"

    def test_large_full_path_query_avoids_ta(self):
        execution = plan(self._query(l=None), self.GS)
        assert execution.solver != "ta"

    def test_normalized_query_uses_normalized_engine(self):
        execution = plan(StableQuery(problem="normalized", lmin=3),
                         self.GS)
        assert execution.solver == "normalized"

    def test_estimate_grows_with_shape(self):
        base = estimate_window_bytes(self._query(), self.GS)
        wider = GraphStats(num_intervals=10, max_interval_nodes=2000,
                           avg_out_degree=5.0, gap=1)
        gappier = GraphStats(num_intervals=10, max_interval_nodes=1000,
                             avg_out_degree=5.0, gap=3)
        assert estimate_window_bytes(self._query(), wider) > base
        assert estimate_window_bytes(self._query(), gappier) > base
        assert estimate_window_bytes(self._query(k=20), self.GS) > base

    def test_explain_renders_decision(self):
        graph = synthetic_cluster_graph(m=4, n=6, d=2, seed=3)
        execution = explain(graph, StableQuery(problem="kl", l=2, k=3))
        text = execution.explain()
        assert "execution plan" in text
        assert "solver:" in text
        assert "window:" in text
        assert "budget:" in text
        assert execution.solver in text

    def test_graph_stats_from_graph(self):
        graph = synthetic_cluster_graph(m=3, n=4, d=2, g=1, seed=2)
        measured = GraphStats.from_graph(graph)
        assert measured.num_intervals == 3
        assert measured.max_interval_nodes == 4
        assert measured.num_nodes == 12
        assert measured.num_edges == graph.num_edges
        assert measured.gap == 1


class TestStreamingFromQuery:
    def test_streaming_matches_offline_engine(self):
        graph = synthetic_cluster_graph(m=5, n=6, d=2, seed=21)
        query = StableQuery(problem="kl", l=3, k=4)
        stream = StreamingStableClusters.from_query(query)
        for i in range(graph.num_intervals):
            nodes = graph.nodes_at(i)
            edges = []
            for local_index, node in enumerate(nodes):
                for parent, weight in graph.parents(node):
                    edges.append((parent, local_index, weight))
            stream.add_interval(len(nodes), edges)
        assert_same_paths(stream.top_k(), solve(graph, query))

    def test_full_path_query_cannot_stream(self):
        with pytest.raises(ValueError, match="full-path"):
            StreamingStableClusters.from_query(StableQuery(l=None))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_request_cannot_stream(self, workers):
        """Streaming runs serially: a workers request is refused,
        never silently ignored."""
        query = StableQuery(problem="kl", l=3, k=4, workers=workers)
        with pytest.raises(ValueError, match="serially"):
            StreamingStableClusters.from_query(query)
        with pytest.raises(ValueError, match="serially"):
            plan_streaming(query, TestPlanner.GS)


class TestServingDimension:
    GS = GraphStats(num_intervals=10, max_interval_nodes=1000,
                    avg_out_degree=5.0, gap=1)

    def test_split_without_budget_uses_defaults(self):
        from repro.engine.planner import (
            SERVING_DEFAULT_CLUSTERS,
            SERVING_DEFAULT_HOT,
            SERVING_DEFAULT_INFLIGHT,
        )
        assert split_serving_budget(None) == (
            SERVING_DEFAULT_HOT, SERVING_DEFAULT_CLUSTERS,
            SERVING_DEFAULT_INFLIGHT)

    def test_split_shares_the_budget_40_40_20(self):
        from repro.engine.planner import (
            SERVING_ANSWER_BYTES,
            SERVING_CLUSTER_BYTES,
            SERVING_REQUEST_BYTES,
        )
        budget = 10 * 1024 * 1024
        hot, clusters, inflight = split_serving_budget(budget)
        assert hot == int(budget * 0.4 // SERVING_ANSWER_BYTES)
        assert clusters == int(budget * 0.4 // SERVING_CLUSTER_BYTES)
        # The admission share is computed as 1 - 0.4 - 0.4 (which
        # is 0.1999... in floats), not a literal 0.2.
        assert inflight == int(
            budget * (1.0 - 0.4 - 0.4) // SERVING_REQUEST_BYTES)

    def test_split_clamps_to_floors_and_ceilings(self):
        from repro.engine.planner import (
            SERVING_MAX_INFLIGHT,
            SERVING_MIN_ENTRIES,
            SERVING_MIN_INFLIGHT,
        )
        hot, clusters, inflight = split_serving_budget(1)
        assert hot == clusters == SERVING_MIN_ENTRIES
        assert inflight == SERVING_MIN_INFLIGHT
        _, _, inflight = split_serving_budget(10 ** 12)
        assert inflight == SERVING_MAX_INFLIGHT

    def test_apply_serving_dimension_annotates_the_plan(self):
        execution = plan(StableQuery(problem="kl", l=2, k=3), self.GS)
        apply_serving_dimension(execution,
                                memory_budget=4 * 1024 * 1024)
        hot, clusters, inflight = split_serving_budget(4 * 1024 * 1024)
        assert execution.serving_hot_entries == hot
        assert execution.serving_cluster_entries == clusters
        assert execution.serving_max_inflight == inflight
        text = execution.explain()
        assert "serving:" in text
        assert "40/40/20" in text

    def test_apply_without_budget_reports_defaults(self):
        execution = plan(StableQuery(problem="kl", l=2, k=3), self.GS)
        execution.memory_budget = None
        apply_serving_dimension(execution)
        assert any("constructor-default" in reason
                   for reason in execution.reasons)
        assert "serving:" in execution.explain()
