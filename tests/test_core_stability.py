"""Unit tests for cluster-graph construction (Section 4.1)."""

import random

import pytest

from repro.affinity import JoinStats, dice, window_affinity_edges
from repro.core.stability import build_cluster_graph
from repro.graph import KeywordCluster


def clusters_timeline():
    """Three intervals with one persistent story and some one-offs."""
    story = frozenset({"somalia", "mogadishu", "islamist"})
    return [
        [KeywordCluster(story), KeywordCluster(frozenset({"a", "b"}))],
        [KeywordCluster(story | {"kamboni"}),
         KeywordCluster(frozenset({"x", "y"}))],
        [KeywordCluster(story)],
    ]


def drifting_timeline(intervals, per_interval, size=8, pool=600,
                      seed=14):
    """Every other cluster continues the previous interval's cluster
    at its position with one to three keywords replaced; the rest are
    fresh draws (the end-to-end benchmark's stream shape)."""
    rng = random.Random(seed)
    names = [f"kw{rank}" for rank in range(pool)]
    timeline, previous = [], []
    for interval in range(intervals):
        current = []
        for n in range(per_interval):
            keywords = rng.sample(names, size)
            if previous and n % 2 == 0:
                kept = rng.sample(previous[n], size - rng.randint(1, 3))
                keywords = (kept + [w for w in keywords
                                    if w not in kept])[:size]
            current.append(keywords)
        previous = current
        timeline.append([
            KeywordCluster(frozenset(keywords), interval=interval,
                           edges=tuple((a, b, 0.5) for a, b in
                                       zip(sorted(keywords),
                                           sorted(keywords)[1:])))
            for keywords in rng.sample(current, len(current))])
    return timeline


class TestBuildClusterGraph:
    def test_basic_structure(self):
        graph = build_cluster_graph(clusters_timeline(), gap=0)
        assert graph.num_intervals == 3
        assert graph.interval_size(0) == 2
        assert graph.interval_size(2) == 1

    def test_story_edges_exist(self):
        graph = build_cluster_graph(clusters_timeline(), gap=0)
        # story_0 -> story_1 (Jaccard 3/4) and story_1 -> story_2.
        children = dict(graph.children((0, 0)))
        assert (1, 0) in children
        assert children[(1, 0)] == pytest.approx(3 / 4)

    def test_unrelated_clusters_not_linked(self):
        graph = build_cluster_graph(clusters_timeline(), gap=0)
        assert graph.children((0, 1)) == []

    def test_theta_filters(self):
        graph = build_cluster_graph(clusters_timeline(), theta=0.9,
                                    gap=0)
        # Jaccard 0.75 < 0.9: no edges survive.
        assert graph.num_edges == 0

    def test_gap_adds_skip_edges(self):
        no_gap = build_cluster_graph(clusters_timeline(), gap=0)
        gapped = build_cluster_graph(clusters_timeline(), gap=1)
        assert gapped.num_edges > no_gap.num_edges
        children = dict(gapped.children((0, 0)))
        assert (2, 0) in children  # interval 0 -> 2 skip edge

    def test_payloads_are_the_clusters(self):
        timeline = clusters_timeline()
        graph = build_cluster_graph(timeline, gap=0)
        assert graph.payload((1, 0)) is timeline[1][0]

    def test_intersection_affinity_is_normalized(self):
        graph = build_cluster_graph(clusters_timeline(),
                                    affinity="intersection", gap=0)
        weights = [w for _, _, w in graph.edges()]
        assert weights
        assert all(0 < w <= 1.0 for w in weights)
        assert max(weights) == pytest.approx(1.0)

    def test_callable_affinity(self):
        def overlap_fraction(a, b):
            return len(a.keywords & b.keywords) / 10.0

        graph = build_cluster_graph(clusters_timeline(),
                                    affinity=overlap_fraction,
                                    theta=0.05, gap=0)
        assert graph.num_edges > 0

    def test_simjoin_path_equals_allpairs(self):
        timeline = clusters_timeline()
        plain = build_cluster_graph(timeline, use_simjoin=False)
        joined = build_cluster_graph(timeline, use_simjoin=True)
        assert sorted(plain.edges()) == sorted(joined.edges())

    def test_forced_join_requires_jaccard_like_the_stream(self):
        """The batch builder used to fall back to all-pairs silently
        where the window join raises; both raise the same error now."""
        timeline = clusters_timeline()
        with pytest.raises(ValueError) as batch:
            build_cluster_graph(timeline, affinity="dice",
                                use_simjoin=True)
        with pytest.raises(ValueError) as stream:
            window_affinity_edges([([(0, 0), (0, 1)], timeline[0])],
                                  timeline[1], measure=dice,
                                  use_simjoin=True)
        assert str(batch.value) == str(stream.value)
        assert "jaccard" in str(batch.value)
        # Unforced, a non-Jaccard measure still compares all pairs.
        assert build_cluster_graph(timeline, affinity="dice").num_edges

    def test_default_join_equals_allpairs_edge_for_edge(self):
        """At the shared cutoff a 90-cluster interval pair engages the
        join by default; the graph must not change by an edge, a
        weight, or the order parents are listed in."""
        timeline = drifting_timeline(intervals=14, per_interval=90)
        stats = JoinStats()
        default = build_cluster_graph(timeline, gap=1, join_stats=stats)
        plain = build_cluster_graph(timeline, gap=1, use_simjoin=False)
        assert default.num_edges == plain.num_edges > 0
        for node in plain.nodes():
            assert default.parents(node) == plain.parents(node)
            assert default.children(node) == plain.children(node)
        assert stats.candidate_pairs >= stats.verified_pairs > 0
        assert stats.result_pairs >= default.num_edges

    def test_allpairs_token_set_hoist_keeps_weights(self):
        """The all-pairs loop resolves token sets once per interval
        pair for the set-overlap measures; weights are the measure's
        own, cluster by cluster."""
        from repro.affinity import get_measure
        timeline = drifting_timeline(intervals=3, per_interval=12)
        for name in ("jaccard", "dice", "overlap", "weighted_jaccard"):
            measure = get_measure(name)
            graph = build_cluster_graph(timeline, affinity=name,
                                        use_simjoin=False)
            assert graph.num_edges > 0
            for parent, child, weight in graph.edges():
                assert weight == measure(graph.payload(parent),
                                         graph.payload(child))

    def test_empty_interval_allowed(self):
        timeline = clusters_timeline()
        timeline.insert(1, [])
        graph = build_cluster_graph(timeline, gap=1)
        # The story can still bridge the empty interval via the gap.
        children = dict(graph.children((0, 0)))
        assert (2, 0) in children

    def test_validation(self):
        with pytest.raises(ValueError):
            build_cluster_graph([])
        with pytest.raises(ValueError):
            build_cluster_graph(clusters_timeline(), theta=0.0)
        with pytest.raises(ValueError):
            build_cluster_graph(clusters_timeline(), affinity="nope")

    def test_children_sorted_by_weight(self):
        timeline = [
            [KeywordCluster(frozenset({"a", "b", "c", "d"}))],
            [KeywordCluster(frozenset({"a", "b", "c", "d"})),
             KeywordCluster(frozenset({"a", "b"}))],
        ]
        graph = build_cluster_graph(timeline, gap=0)
        weights = [w for _, w in graph.children((0, 0))]
        assert weights == sorted(weights, reverse=True)
