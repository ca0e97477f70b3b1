"""Set-overlap affinity measures between keyword clusters.

All measures accept two objects exposing the cluster token surface —
in practice :class:`~repro.graph.clusters.KeywordCluster` — or plain
sets.  Jaccard, Dice and the overlap coefficient are bounded in
``[0, 1]``; intersection size is unbounded and must be normalized
before use as a cluster-graph edge weight (the builder does this).

This module owns the **one** similarity implementation every layer
delegates to (``KeywordCluster.jaccard`` included).  Interned clusters
carry sorted integer-id token tuples; two clusters bound to the *same*
vocabulary compare by their id sets (machine-int hashing, no string
work), while mixed pairings — different vocabularies, a plain string
set against a cluster — transparently fall back to the decoded
keyword strings, so the measures never silently intersect ids from
unrelated vocabularies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

ClusterLike = Union[frozenset, set, "KeywordClusterLike"]


def _keywords(cluster) -> frozenset:
    keywords = getattr(cluster, "keywords", cluster)
    return keywords


def _is_id_set(tokens) -> bool:
    """True for a non-empty plain set of interned ids (all ints)."""
    return (isinstance(tokens, (frozenset, set)) and bool(tokens)
            and all(isinstance(token, int) for token in tokens))


def comparison_sets(a: ClusterLike, b: ClusterLike
                    ) -> Tuple[frozenset, frozenset]:
    """The pair of token sets two cluster-likes compare by.

    Same-vocabulary interned clusters yield their id sets; clusters of
    *different* vocabularies yield decoded keyword-string sets, so ids
    from unrelated vocabularies are never intersected.  Two plain sets
    pass through unchanged (their tokens share one namespace by
    definition).  A plain set against a cluster compares by what the
    set holds: strings against the decoded keywords, interned ids
    against the cluster's id set — read in the cluster's vocabulary,
    the only namespace they can mean (e.g. a
    :meth:`Document.keyword_ids` result); an id set against a cluster
    *without* a vocabulary raises rather than silently intersecting
    ids with strings.
    """
    a_is_set = isinstance(a, (frozenset, set))
    b_is_set = isinstance(b, (frozenset, set))
    if a_is_set and b_is_set:
        return a, b
    if a_is_set or b_is_set:
        plain, cluster = (a, b) if a_is_set else (b, a)
        if _is_id_set(plain):
            if getattr(cluster, "vocab", None) is None:
                raise ValueError(
                    f"cannot compare a set of interned ids against "
                    f"{cluster!r}: it has no vocabulary to resolve "
                    f"them — decode the ids or intern the cluster")
            pair = plain, cluster.token_set
        else:
            pair = plain, _keywords(cluster)
        return pair if a_is_set else (pair[1], pair[0])
    if getattr(a, "vocab", None) is getattr(b, "vocab", None):
        ta = getattr(a, "token_set", None)
        tb = getattr(b, "token_set", None)
        if ta is not None and tb is not None:
            return ta, tb
    return _keywords(a), _keywords(b)


def _token_set(cluster) -> frozenset:
    if isinstance(cluster, (frozenset, set)):
        return cluster
    token_set = getattr(cluster, "token_set", None)
    return token_set if token_set is not None else _keywords(cluster)


def share_token_namespace(*collections) -> bool:
    """True when every cluster of every collection can intersect ids.

    That holds when all clusters are bound to the same vocabulary (or
    none is interned at all); any mix of vocabularies must fall back
    to decoded keyword strings.  The streaming window join asks this
    separately from :func:`collection_token_sets` so its incremental
    frequency tracker can detect a representation flip.
    """
    vocabs = set()
    for collection in collections:
        for cluster in collection:
            vocabs.add(getattr(cluster, "vocab", None))
    return len(vocabs) <= 1


def token_sets(collection, decoded: bool = False) -> List[frozenset]:
    """One collection's token sets — interned ids (``decoded=False``)
    or keyword strings — in collection order."""
    if decoded:
        return [_keywords(cluster) for cluster in collection]
    return [_token_set(cluster) for cluster in collection]


def collection_token_sets(*collections) -> List[List[frozenset]]:
    """Joinable token-set forms for whole cluster collections.

    The similarity joins index and intersect every set of every
    collection against each other, so the sets must share one token
    namespace: when every cluster is bound to the same vocabulary
    (or none is interned at all) the id/token sets are used directly;
    any mix falls back to decoded keyword strings.
    """
    decoded = not share_token_namespace(*collections)
    return [token_sets(collection, decoded)
            for collection in collections]


def intersection_count(a: ClusterLike, b: ClusterLike) -> int:
    """``|a ∩ b|`` as an int — the primitive every measure builds on."""
    ka, kb = comparison_sets(a, b)
    return len(ka & kb)


def jaccard(a: ClusterLike, b: ClusterLike) -> float:
    """|a ∩ b| / |a ∪ b| (the paper's qualitative-study choice)."""
    ka, kb = comparison_sets(a, b)
    intersection = len(ka & kb)
    union = len(ka) + len(kb) - intersection
    if union == 0:
        return 0.0
    return intersection / union


def intersection_size(a: ClusterLike, b: ClusterLike) -> float:
    """|a ∩ b| — unbounded; normalize before use as an edge weight."""
    return float(intersection_count(a, b))


def dice(a: ClusterLike, b: ClusterLike) -> float:
    """2|a ∩ b| / (|a| + |b|)."""
    ka, kb = comparison_sets(a, b)
    denominator = len(ka) + len(kb)
    if denominator == 0:
        return 0.0
    return 2 * len(ka & kb) / denominator


def overlap_coefficient(a: ClusterLike, b: ClusterLike) -> float:
    """|a ∩ b| / min(|a|, |b|)."""
    ka, kb = comparison_sets(a, b)
    smaller = min(len(ka), len(kb))
    if smaller == 0:
        return 0.0
    return len(ka & kb) / smaller


def _edge_weights(cluster) -> Dict[tuple, float]:
    """A cluster's weighted edge set keyed comparably across
    representations (id pairs when interned vocabularies match is not
    knowable here per-cluster, so keys are decoded pairs)."""
    return {(u, v): w for u, v, w in getattr(cluster, "edges", ())}


def weighted_jaccard(a: ClusterLike, b: ClusterLike) -> float:
    """Correlation-weighted Jaccard over the clusters' edge sets.

    The paper suggests affinity choices "taking into account the
    strength of the correlation between the common pairs of keywords":
    here each cluster is viewed as its set of weighted keyword-pair
    edges, and we compute sum of min weights over sum of max weights
    (the canonical weighted-Jaccard).  Falls back to plain Jaccard on
    keyword sets when either cluster carries no edges.
    """
    edges_a = _edge_weights(a)
    edges_b = _edge_weights(b)
    if not edges_a or not edges_b:
        return jaccard(a, b)
    keys = set(edges_a) | set(edges_b)
    numerator = sum(min(edges_a.get(key, 0.0), edges_b.get(key, 0.0))
                    for key in keys)
    denominator = sum(max(edges_a.get(key, 0.0), edges_b.get(key, 0.0))
                      for key in keys)
    if denominator == 0:
        return 0.0
    return numerator / denominator


AFFINITY_MEASURES: Dict[str, Callable[[ClusterLike, ClusterLike], float]] = {
    "jaccard": jaccard,
    "intersection": intersection_size,
    "dice": dice,
    "overlap": overlap_coefficient,
    "weighted_jaccard": weighted_jaccard,
}

# Measures that read nothing but the pair's token sets, so a caller
# comparing whole collections may resolve the sets once
# (:func:`collection_token_sets`) and pass those in.
TOKEN_SET_MEASURES = frozenset(
    {jaccard, intersection_size, dice, overlap_coefficient})


def get_measure(name: str) -> Callable[[ClusterLike, ClusterLike], float]:
    """Look up an affinity measure by name."""
    try:
        return AFFINITY_MEASURES[name]
    except KeyError:
        raise ValueError(
            f"unknown affinity measure {name!r}; "
            f"choose from {sorted(AFFINITY_MEASURES)}") from None
