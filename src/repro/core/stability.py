"""Cluster-graph construction from per-interval keyword clusters.

This ties Section 3's output to Section 4's input: given the keyword
clusters of m temporal intervals, compute affinities between clusters
of intervals ``i < j <= i + g + 1``, keep pairs above θ (0.1 in the
paper), normalize unbounded measures, and emit the
:class:`~repro.core.cluster_graph.ClusterGraph` the stable-cluster
algorithms consume.

For large per-interval cluster counts the all-pairs affinity
computation is replaced by the threshold similarity join of
:mod:`repro.affinity.simjoin` (the paper's pointer to approximate
string processing [11]); this is exact for Jaccard affinity.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.affinity import (
    SIMJOIN_CUTOFF,
    TOKEN_SET_MEASURES,
    JoinStats,
    collection_token_sets,
    get_measure,
    joins_exactly,
    threshold_jaccard_join,
)
from repro.core.cluster_graph import ClusterGraph, ClusterGraphBuilder

THETA_DEFAULT = 0.1


def build_cluster_graph(interval_clusters: Sequence[Sequence],
                        affinity: Union[str, Callable] = "jaccard",
                        theta: float = THETA_DEFAULT,
                        gap: int = 0,
                        use_simjoin: Optional[bool] = None,
                        simjoin_cutoff: int = SIMJOIN_CUTOFF,
                        join_stats: Optional[JoinStats] = None
                        ) -> ClusterGraph:
    """Build the cluster graph G (Section 4.1).

    ``interval_clusters[i]`` is the cluster list of interval ``i``
    (objects exposing ``keywords``).  ``affinity`` is a measure name
    from :data:`repro.affinity.AFFINITY_MEASURES` or a callable.
    ``use_simjoin`` forces the prefix-filter join on or off; by default
    it engages for Jaccard affinity when an interval pair's cluster
    count product exceeds ``simjoin_cutoff``² — the cutoff the
    streaming window join uses.  The join is exact only for Jaccard,
    so forcing it on with another measure raises ``ValueError``, as
    :func:`~repro.affinity.window_affinity_edges` does.  Edge weights
    are normalized to (0, 1] when the measure is unbounded.
    ``join_stats`` accumulates the two-level filter's
    candidate/verified counters over every engaged interval-pair join.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    measure = get_measure(affinity) if isinstance(affinity, str) \
        else affinity
    is_jaccard = joins_exactly(measure, use_simjoin)

    m = len(interval_clusters)
    if m == 0:
        raise ValueError("need at least one interval of clusters")
    builder = ClusterGraphBuilder(m, gap=gap)
    node_ids: List[List] = []
    for interval, clusters in enumerate(interval_clusters):
        node_ids.append([builder.add_node(interval, payload=cluster)
                         for cluster in clusters])

    for i in range(m):
        for j in range(i + 1, min(i + gap + 2, m)):
            left = interval_clusters[i]
            right = interval_clusters[j]
            if not left or not right:
                continue
            engage_join = use_simjoin if use_simjoin is not None else (
                is_jaccard and len(left) * len(right) > simjoin_cutoff ** 2)
            if engage_join:
                _join_edges(builder, node_ids, i, j, left, right, theta,
                            join_stats)
            else:
                _all_pairs_edges(builder, node_ids, i, j, left, right,
                                 measure, theta)
    return builder.build(normalize=True)


def _all_pairs_edges(builder, node_ids, i, j, left, right, measure,
                     theta) -> None:
    if measure in TOKEN_SET_MEASURES:
        # Resolve the token sets once per interval pair; the measure
        # would otherwise re-derive them for every cluster pair.
        left, right = collection_token_sets(left, right)
    for a, cluster_a in enumerate(left):
        for b, cluster_b in enumerate(right):
            weight = measure(cluster_a, cluster_b)
            if weight > theta:
                builder.add_edge(node_ids[i][a], node_ids[j][b], weight)


def _join_edges(builder, node_ids, i, j, left, right, theta,
                join_stats=None) -> None:
    # Interned id sets when both intervals share one vocabulary,
    # decoded keyword strings otherwise — the join is exact either way.
    left_sets, right_sets = collection_token_sets(left, right)
    for a, b, weight in threshold_jaccard_join(left_sets, right_sets,
                                               theta,
                                               stats=join_stats):
        # The join is >= theta; the paper keeps affinities > theta.
        if weight > theta:
            builder.add_edge(node_ids[i][a], node_ids[j][b], weight)
