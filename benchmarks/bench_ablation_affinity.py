"""Ablation: affinity-measure choice for the cluster graph.

Section 4 leaves the affinity function open (intersection, Jaccard, or
correlation-weighted variants; "our framework can easily incorporate
any of these choices").  This ablation builds the same cluster
timeline under each measure and compares edge counts, normalization
behaviour, and whether the planted stable story is ranked first.
"""

from __future__ import annotations

import pytest

from repro.affinity import (
    AFFINITY_MEASURES,
    collection_token_sets,
    jaccard,
    threshold_jaccard_join,
)
from repro.core import bfs_stable_clusters
from repro.core.stability import build_cluster_graph
from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
)
from repro.pipeline import generate_interval_clusters
from repro.text import stem

SOMALIA = ["somalia", "mogadishu", "ethiopian", "islamist"]


@pytest.fixture(scope="module")
def interval_clusters():
    schedule = EventSchedule().add(
        Event.persistent("somalia", SOMALIA, 0, 4, 70))
    vocab = ZipfVocabulary(3000, seed=61)
    generator = BlogosphereGenerator(vocab, schedule,
                                     background_posts=600, seed=62)
    corpus = generator.generate_corpus(4)
    return [generate_interval_clusters(corpus, i) for i in range(4)]


@pytest.mark.parametrize("measure", sorted(AFFINITY_MEASURES))
def test_affinity_measure(benchmark, series, interval_clusters, measure):
    graph = benchmark(
        lambda: build_cluster_graph(interval_clusters,
                                    affinity=measure, theta=0.1,
                                    gap=0))
    paths = bfs_stable_clusters(graph, l=3, k=1)
    story_found = False
    if paths:
        somalia = frozenset(stem(w) for w in SOMALIA)
        story_found = all(
            somalia <= graph.payload(node).keywords
            for node in paths[0].nodes)
    series("Ablation: affinity measures",
           f"{measure}: {graph.num_edges} edges, "
           f"top-1 is planted story: {story_found}", "")
    # Every measure must keep weights normalized and find the story.
    assert all(0 < w <= 1.0 for _, _, w in graph.edges())
    assert story_found


def test_simjoin_matches_allpairs(series, shape, interval_clusters):
    """The prefix-filter join must keep exactly the pairs an all-pairs
    Jaccard loop keeps, with the same weights."""

    def check():
        kept = 0
        for left, right in zip(interval_clusters,
                               interval_clusters[1:]):
            left_sets, right_sets = collection_token_sets(left, right)
            all_pairs = [(a, b, jaccard(x, y))
                         for a, x in enumerate(left_sets)
                         for b, y in enumerate(right_sets)
                         if jaccard(x, y) >= 0.1]
            assert threshold_jaccard_join(left_sets, right_sets,
                                          0.1) == all_pairs
            kept += len(all_pairs)
        assert kept
        series("Ablation: affinity measures",
               f"simjoin == all-pairs on {kept} pairs", "")

    shape(check)
