"""Unit tests for cluster-graph construction (Section 4.1)."""

import random

import pytest

from repro.affinity import (
    SIMJOIN_CUTOFF,
    JoinStats,
    dice,
    intersection_size,
    jaccard,
)
from repro.core.online import StreamingAffinityPipeline
from repro.core.stability import build_cluster_graph
from repro.graph import KeywordCluster
from repro.vocab import Vocabulary


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
                      seed=14, interned=False):
    """Every other cluster continues the previous interval's cluster
    at its position with one to three keywords replaced; the rest are
    fresh draws (the end-to-end benchmark's stream shape).  With
    *interned* every cluster is bound to one shared vocabulary."""
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
    if interned:
        vocab = Vocabulary()
        vocab.intern_sorted(names)
        timeline = [[KeywordCluster(
            tokens=sorted(vocab.id_of(w) for w in cluster.keywords),
            interval=cluster.interval, vocab=vocab)
            for cluster in clusters] for clusters in timeline]
    return timeline


def all_pairs_oracle(timeline, measure, theta, gap):
    """Section 4.1 written out: every cluster pair at most g + 1
    intervals apart, kept above θ, weights divided by their maximum
    when it exceeds 1; parents listed oldest first, children by
    descending weight."""
    raw = [((i, a), (j, b), measure(old, new))
           for j in range(len(timeline))
           for i in range(max(0, j - gap - 1), j)
           for a, old in enumerate(timeline[i])
           for b, new in enumerate(timeline[j])]
    raw = [edge for edge in raw if edge[2] > theta]
    top = max([weight for _, _, weight in raw], default=1.0)
    scale = 1.0 / top if top > 1.0 else 1.0
    parents, children = {}, {}
    for parent, child, weight in raw:
        weight = min(weight * scale, 1.0)
        parents.setdefault(child, []).append((parent, weight))
        children.setdefault(parent, []).append((child, weight))
    for edges in children.values():
        edges.sort(key=lambda edge: (-edge[1], edge[0]))
    return parents, children


def streamed_edges(timeline, measure, theta, gap):
    """Every ``(parent, child, weight)`` the streaming pipeline hands
    its maintainer, interval by interval."""
    pipeline = StreamingAffinityPipeline(l=1, k=1, gap=gap,
                                         affinity=measure, theta=theta)
    emitted, add_interval = [], pipeline.stream.add_interval

    def record(num_clusters, edges):
        interval = pipeline.stream._next_interval
        emitted.extend((parent, (interval, b), weight)
                       for parent, b, weight in edges)
        return add_interval(num_clusters, edges)

    pipeline.stream.add_interval = record
    for clusters in timeline:
        pipeline.add_interval(clusters)
    return emitted


class TestBatchStreamOracleDifferential:
    """One window join builds every graph: the batch builder equals
    the all-pairs oracle edge for edge, weight for weight and in list
    order, and — for bounded measures — the streaming pipeline emits
    exactly its edges."""

    @pytest.mark.parametrize("measure", [jaccard, dice,
                                         intersection_size],
                             ids=["jaccard", "dice", "intersection"])
    @pytest.mark.parametrize("interned", [False, True],
                             ids=["strings", "ids"])
    @pytest.mark.parametrize("per_interval", [12, SIMJOIN_CUTOFF + 6])
    @pytest.mark.parametrize("gap", [0, 1, 2])
    def test_batch_equals_oracle_and_stream(self, gap, per_interval,
                                            interned, measure):
        timeline = drifting_timeline(intervals=5,
                                     per_interval=per_interval,
                                     interned=interned)
        # Intersection counts keywords: θ = 1 keeps pairs sharing two.
        theta = 1.0 if measure is intersection_size else 0.1
        stats = JoinStats()
        graph = build_cluster_graph(timeline, affinity=measure,
                                    theta=theta, gap=gap,
                                    join_stats=stats)
        parents, children = all_pairs_oracle(timeline, measure, theta,
                                             gap)
        assert graph.num_edges > 0
        for node in graph.nodes():
            assert graph.parents(node) == parents.get(node, [])
            assert graph.children(node) == children.get(node, [])
        engaged = measure is jaccard and \
            per_interval ** 2 > SIMJOIN_CUTOFF ** 2
        assert (stats.candidate_pairs > 0) == engaged
        if measure is not intersection_size:
            assert sorted(streamed_edges(timeline, measure, theta,
                                         gap)) == sorted(graph.edges())


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

    def test_allpairs_token_set_hoist_keeps_weights(self):
        """The all-pairs loop resolves token sets once per window for
        the set-overlap measures; weights are the measure's own,
        cluster by cluster."""
        from repro.affinity import get_measure
        timeline = drifting_timeline(intervals=3, per_interval=12)
        for name in ("jaccard", "dice", "overlap", "weighted_jaccard"):
            measure = get_measure(name)
            graph = build_cluster_graph(timeline, affinity=name)
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
