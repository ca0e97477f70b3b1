"""Differential tests: BFS, DFS, TA and streaming vs brute force.

The ranking order (weight, then node tuple) is total, so every correct
algorithm must return the *identical* top-k list.  Edge weights in the
random strategies are dyadic rationals (multiples of 1/64) so that
floating-point sums are exact regardless of the order an algorithm
accumulates them in — BFS appends forward, DFS prepends backward.

The paper's worked examples are pinned exactly: the Figure 5 graph
with the Section 4.2 BFS walkthrough (k=2, l=2 answer
{c13c22c31, c13c22c33}) and the Table 2 DFS execution (k=1 answer
{c13c22c33}, with c22 pruned on first arrival).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusterGraph,
    DFSStats,
    bfs_stable_clusters,
    bruteforce_normalized,
    bruteforce_topk,
    count_paths,
    dfs_stable_clusters,
    enumerate_paths,
    normalized_stable_clusters,
    ta_stable_clusters,
)
from repro.core.online import StreamingStableClusters
from repro.datagen import synthetic_cluster_graph
from tests.test_core_cluster_graph import paper_example_graph


# ----------------------------------------------------------------------
# Random cluster-graph strategy (dyadic weights for exact float sums)
# ----------------------------------------------------------------------

def _dyadic():
    return st.integers(min_value=1, max_value=64).map(lambda i: i / 64)


@st.composite
def cluster_graphs(draw, max_m=6, max_n=4, max_gap=2, weights=None):
    weights = weights if weights is not None else _dyadic()
    m = draw(st.integers(min_value=2, max_value=max_m))
    gap = draw(st.integers(min_value=0, max_value=max_gap))
    graph = ClusterGraph(m, gap=gap)
    nodes = []
    for i in range(m):
        count = draw(st.integers(min_value=1, max_value=max_n))
        nodes.append([graph.add_node(i) for _ in range(count)])
    for i in range(m):
        for j in range(i + 1, min(i + gap + 2, m)):
            for a in nodes[i]:
                for b in nodes[j]:
                    if draw(st.booleans()):
                        graph.add_edge(a, b, draw(weights))
    graph.sort_children_by_weight()
    return graph


def _as_tuples(paths):
    return [(p.weight, p.nodes) for p in paths]


# ----------------------------------------------------------------------
# Paper worked examples
# ----------------------------------------------------------------------

class TestPaperExample:
    def test_bfs_topk_paper_answer(self):
        graph = paper_example_graph()
        paths = bfs_stable_clusters(graph, l=2, k=2)
        names = [p.nodes for p in paths]
        # c13c22c33 (w=1.7) then c13c22c31 (w=1.5); ids are 0-based.
        assert names == [((0, 2), (1, 1), (2, 2)),
                         ((0, 2), (1, 1), (2, 0))]
        assert paths[0].weight == pytest.approx(1.7)
        assert paths[1].weight == pytest.approx(1.5)

    def test_dfs_topk_matches_table2(self):
        graph = paper_example_graph()
        stats = DFSStats()
        paths = dfs_stable_clusters(graph, l=2, k=1, stats=stats)
        assert [p.nodes for p in paths] == [((0, 2), (1, 1), (2, 2))]
        assert paths[0].weight == pytest.approx(1.7)
        # Table 2 shows pruning firing (c22 on its first arrival).
        assert stats.prunes >= 1

    def test_ta_matches_on_paper_graph(self):
        graph = paper_example_graph()
        expected = bruteforce_topk(graph, l=2, k=2)
        assert _as_tuples(ta_stable_clusters(graph, k=2)) == \
            _as_tuples(expected)

    def test_bfs_single_edge_heaps_match_section42(self):
        """The h^1 heaps of interval 2 from the worked example."""
        graph = paper_example_graph()
        paths = bfs_stable_clusters(graph, l=1, k=2)
        # Best two single-edge paths overall: c11c32 (0.9, length 2 —
        # excluded, it has length 2) ... l=1 keeps only length-1 edges:
        # c22c33 (0.9), c13c22 (0.8).
        assert [p.weight for p in paths] == pytest.approx([0.9, 0.8])


# ----------------------------------------------------------------------
# Fixed-shape regression cases
# ----------------------------------------------------------------------

class TestSmallShapes:
    def test_no_paths_when_l_too_large(self):
        graph = paper_example_graph()
        assert bfs_stable_clusters(graph, l=5, k=3) == []
        assert dfs_stable_clusters(graph, l=5, k=3) == []

    def test_single_interval_graph(self):
        graph = ClusterGraph(1)
        graph.add_node(0)
        assert bfs_stable_clusters(graph, l=1, k=1) == []
        assert dfs_stable_clusters(graph, l=1, k=1) == []
        assert ta_stable_clusters(graph, k=1) == []

    def test_graph_with_no_edges(self):
        graph = ClusterGraph(3, gap=1)
        for i in range(3):
            graph.add_node(i)
        assert bfs_stable_clusters(graph, l=2, k=3) == []
        assert dfs_stable_clusters(graph, l=2, k=3) == []
        assert ta_stable_clusters(graph, k=3) == []

    def test_invalid_parameters(self):
        graph = paper_example_graph()
        with pytest.raises(ValueError):
            bfs_stable_clusters(graph, l=0, k=1)
        with pytest.raises(ValueError):
            dfs_stable_clusters(graph, l=1, k=0)
        with pytest.raises(ValueError):
            ta_stable_clusters(graph, k=0)

    def test_k_larger_than_path_count(self):
        graph = paper_example_graph()
        total = count_paths(graph, 2)
        paths = bfs_stable_clusters(graph, l=2, k=100)
        assert len(paths) == total

    def test_gap_only_path(self):
        # Single edge spanning a gap is a length-2 path.
        graph = ClusterGraph(3, gap=1)
        a = graph.add_node(0)
        graph.add_node(1)
        b = graph.add_node(2)
        graph.add_edge(a, b, 0.5)
        for algo_paths in (bfs_stable_clusters(graph, l=2, k=1),
                           dfs_stable_clusters(graph, l=2, k=1),
                           ta_stable_clusters(graph, k=1)):
            assert _as_tuples(algo_paths) == [(0.5, (a, b))]


# ----------------------------------------------------------------------
# Property-based differential tests
# ----------------------------------------------------------------------

class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(cluster_graphs(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=5))
    def test_bfs_matches_bruteforce(self, graph, k, l):
        expected = bruteforce_topk(graph, l=l, k=k)
        assert _as_tuples(bfs_stable_clusters(graph, l=l, k=k)) == \
            _as_tuples(expected)

    @settings(max_examples=80, deadline=None)
    @given(cluster_graphs(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=5))
    def test_dfs_pruned_matches_bruteforce(self, graph, k, l):
        expected = bruteforce_topk(graph, l=l, k=k)
        assert _as_tuples(dfs_stable_clusters(graph, l=l, k=k,
                                              prune=True)) == \
            _as_tuples(expected)

    @settings(max_examples=40, deadline=None)
    @given(cluster_graphs(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=5))
    def test_dfs_unpruned_matches_bruteforce(self, graph, k, l):
        expected = bruteforce_topk(graph, l=l, k=k)
        assert _as_tuples(dfs_stable_clusters(graph, l=l, k=k,
                                              prune=False)) == \
            _as_tuples(expected)

    @settings(max_examples=60, deadline=None)
    @given(cluster_graphs(max_m=5), st.integers(min_value=1, max_value=4))
    def test_ta_matches_bruteforce_full_paths(self, graph, k):
        l = graph.num_intervals - 1
        expected = bruteforce_topk(graph, l=l, k=k)
        assert _as_tuples(ta_stable_clusters(graph, k=k)) == \
            _as_tuples(expected)

    @settings(max_examples=40, deadline=None)
    @given(cluster_graphs(), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4))
    def test_streaming_matches_offline(self, graph, k, l):
        offline = bfs_stable_clusters(graph, l=l, k=k)
        assert _as_tuples(_stream_topk(graph, l, k)) == \
            _as_tuples(offline)


def _stream_topk(graph, l, k):
    stream = StreamingStableClusters(l=l, k=k, gap=graph.gap)
    for i in range(graph.num_intervals):
        stream.add_interval(
            graph.interval_size(i),
            [(parent, node[1], weight) for node in graph.nodes_at(i)
             for parent, weight in graph.parents(node)])
    return stream.top_k()


class TestDifferentialOnTies:
    """Weights quantised to four values, so most heap decisions are
    ties on the weight and fall to the node tuple.  The solvers bound
    a candidate on its weight *before* building it; a candidate equal
    in weight to a heap's minimum must still be built and compared on
    nodes, or these answers diverge from the oracle's."""

    graphs = cluster_graphs(
        max_m=5, weights=st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    lengths = st.sampled_from([1, 2, None])  # None: full paths
    ks = st.sampled_from([1, 3, 5])

    @settings(max_examples=120, deadline=None)
    @given(graphs, lengths, ks)
    def test_problem1_solvers_agree_on_weights_and_nodes(
            self, graph, l, k):
        full = graph.num_intervals - 1
        l = full if l is None else l
        expected = _as_tuples(bruteforce_topk(graph, l=l, k=k))
        assert _as_tuples(bfs_stable_clusters(graph, l=l, k=k)) == \
            expected
        assert _as_tuples(bfs_stable_clusters(
            graph, l=l, k=k, window_block_nodes=2)) == expected
        for prune in (True, False):
            assert _as_tuples(dfs_stable_clusters(
                graph, l=l, k=k, prune=prune)) == expected
        if l == full:
            assert _as_tuples(ta_stable_clusters(graph, k=k)) == \
                expected
        assert _as_tuples(_stream_topk(graph, l, k)) == expected

    @settings(max_examples=80, deadline=None)
    @given(graphs, st.sampled_from([1, 2]), ks)
    def test_problem2_matches_bruteforce(self, graph, lmin, k):
        def ranked(paths):
            return [(p.stability, p.nodes) for p in paths]

        expected = ranked(bruteforce_normalized(graph, lmin=lmin, k=k))
        assert ranked(normalized_stable_clusters(
            graph, lmin=lmin, k=k, exact=True)) == expected
        # Theorem-1 pruning guarantees the top-1 exactly.
        assert ranked(normalized_stable_clusters(
            graph, lmin=lmin, k=1)) == expected[:1]


# ----------------------------------------------------------------------
# Cross-checks on the Section 5.2 generator
# ----------------------------------------------------------------------

class TestOnSyntheticGraphs:
    @pytest.mark.parametrize("m,n,d,g,l", [
        (4, 5, 2, 0, 3),
        (5, 4, 2, 1, 3),
        (6, 3, 2, 2, 4),
        (5, 4, 3, 1, 2),
    ])
    def test_all_algorithms_agree(self, m, n, d, g, l):
        graph = synthetic_cluster_graph(m=m, n=n, d=d, g=g, seed=42)
        bfs = bfs_stable_clusters(graph, l=l, k=5)
        dfs = dfs_stable_clusters(graph, l=l, k=5)
        # Continuous uniform weights: compare with a tolerance on
        # weights and exact node sequences modulo float ties.
        assert [p.nodes for p in bfs] == [p.nodes for p in dfs]
        assert [p.weight for p in dfs] == \
            pytest.approx([p.weight for p in bfs])

    def test_ta_agrees_on_full_paths(self):
        graph = synthetic_cluster_graph(m=4, n=4, d=2, g=0, seed=7)
        bfs = bfs_stable_clusters(graph, l=3, k=5)
        ta = ta_stable_clusters(graph, k=5)
        assert [p.nodes for p in ta] == [p.nodes for p in bfs]

    def test_enumerate_paths_respects_bounds(self):
        graph = synthetic_cluster_graph(m=4, n=3, d=2, g=1, seed=3)
        for path in enumerate_paths(graph, min_length=2, max_length=3):
            assert 2 <= path.length <= 3
