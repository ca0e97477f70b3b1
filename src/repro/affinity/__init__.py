"""Cluster-affinity measures and the threshold similarity join.

Section 4 quantifies the affinity of two keyword clusters by overlap
functions — ``|c ∩ c'|`` or ``Jaccard(c, c')`` — optionally weighted
by the correlation strength of common keyword pairs.  When per-interval
cluster sets are too large for all-pairs comparison, the paper notes
the problem "is easily reduced to that of computing similarity between
all pairs of strings (clusters) for which the similarity is above a
threshold" [11]; :mod:`repro.affinity.simjoin` implements that join
with prefix filtering plus a second signature level (length band +
token-checksum band) that rejects candidates before verification.
"""

from repro.affinity.measures import (
    AFFINITY_MEASURES,
    TOKEN_SET_MEASURES,
    collection_token_sets,
    comparison_sets,
    dice,
    get_measure,
    intersection_count,
    intersection_size,
    jaccard,
    overlap_coefficient,
    share_token_namespace,
    token_sets,
    weighted_jaccard,
)
from repro.affinity.simjoin import (
    JoinStats,
    SIGNATURE_BANDS,
    SIMJOIN_CUTOFF,
    intersection_size_sorted,
    required_overlap,
    signature_compatible,
    threshold_jaccard_join,
    token_signature,
)
from repro.affinity.windowjoin import (
    WindowFrequencyTracker,
    joins_exactly,
    window_affinity_edges,
)

__all__ = [
    "AFFINITY_MEASURES",
    "JoinStats",
    "SIGNATURE_BANDS",
    "SIMJOIN_CUTOFF",
    "TOKEN_SET_MEASURES",
    "WindowFrequencyTracker",
    "collection_token_sets",
    "comparison_sets",
    "dice",
    "get_measure",
    "intersection_count",
    "intersection_size",
    "intersection_size_sorted",
    "jaccard",
    "joins_exactly",
    "overlap_coefficient",
    "required_overlap",
    "share_token_namespace",
    "signature_compatible",
    "threshold_jaccard_join",
    "token_signature",
    "token_sets",
    "weighted_jaccard",
    "window_affinity_edges",
]
