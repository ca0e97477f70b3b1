"""Cluster-graph construction from per-interval keyword clusters.

This ties Section 3's output to Section 4's input: given the keyword
clusters of m temporal intervals, compute affinities between clusters
of intervals ``i < j <= i + g + 1``, keep pairs above θ (0.1 in the
paper), normalize unbounded measures, and emit the
:class:`~repro.core.cluster_graph.ClusterGraph` the stable-cluster
algorithms consume.

The affinities come from the same window join the streaming front
ends use (:func:`repro.affinity.window_affinity_edges`): each interval
is compared with the previous ``g + 1``, through the threshold
similarity join of :mod:`repro.affinity.simjoin` (the paper's pointer
to approximate string processing [11]) once the comparison count
warrants it, all pairs otherwise — so batch and stream build
identical edges.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.affinity import (
    JoinStats,
    WindowFrequencyTracker,
    get_measure,
    window_affinity_edges,
)
from repro.core.cluster_graph import ClusterGraph, ClusterGraphBuilder

THETA_DEFAULT = 0.1


def build_cluster_graph(interval_clusters: Sequence[Sequence],
                        affinity: Union[str, Callable] = "jaccard",
                        theta: float = THETA_DEFAULT,
                        gap: int = 0,
                        join_stats: Optional[JoinStats] = None
                        ) -> ClusterGraph:
    """Build the cluster graph G (Section 4.1).

    ``interval_clusters[i]`` is the cluster list of interval ``i``
    (objects exposing ``keywords``).  ``affinity`` is a measure name
    from :data:`repro.affinity.AFFINITY_MEASURES` or a callable.  Each
    interval is joined against the previous ``gap + 1`` by
    :func:`~repro.affinity.window_affinity_edges`, which engages the
    prefix-filter join for Jaccard once window × new cluster count
    exceeds ``SIMJOIN_CUTOFF``².  Edge weights are normalized to
    (0, 1] when the measure is unbounded.  ``join_stats`` accumulates
    the two-level filter's candidate/verified counters over every
    engaged join.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    measure = get_measure(affinity) if isinstance(affinity, str) \
        else affinity
    m = len(interval_clusters)
    if m == 0:
        raise ValueError("need at least one interval of clusters")
    builder = ClusterGraphBuilder(m, gap=gap)
    tracker = WindowFrequencyTracker()
    window: List = []
    for interval, clusters in enumerate(interval_clusters):
        node_ids = [builder.add_node(interval, payload=cluster)
                    for cluster in clusters]
        for parent, b, weight in window_affinity_edges(
                window, clusters, measure=measure, theta=theta,
                frequency_tracker=tracker, join_stats=join_stats):
            builder.add_edge(parent, node_ids[b], weight)
        # A list of its own per interval: the tracker keys window
        # entries by the identity of their cluster list.
        window.append((node_ids, list(clusters)))
        if len(window) > gap + 1:
            window.pop(0)
    return builder.build(normalize=True)
