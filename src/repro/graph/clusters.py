"""Keyword-cluster extraction from the pruned graph G' (Section 3).

"The set of clusters we report for G' is the set of all biconnected
components of G' plus all trees connecting those components."  A
bridge (a biconnected component of a single edge) is part of the tree
structure between larger components; by default we report every
component with at least two edges as a cluster and optionally merge in
the bridge/tree keywords of its connected component.

``KeywordCluster`` carries its keywords as a **sorted token tuple** —
interned integer ids bound to a :class:`~repro.vocab.Vocabulary` (or a
frozen snapshot) on the production path, plain strings when built
directly from string graphs.  All computation (affinity measures,
prefix-filter joins, pickled worker payloads) happens on the tokens;
``keywords``/``edges`` decode back to strings lazily, so the
user-facing surface is unchanged whatever the representation
(the decode-at-the-edge rule of docs/architecture.md).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.affinity import measures
from repro.graph.adjacency import Graph
from repro.graph.biconnected import biconnected_components
from repro.vocab import FrozenVocabulary, Vocabulary, VocabularyLike

Vertex = Any


class KeywordCluster:
    """One keyword cluster with its edges and the interval it came from.

    ``tokens`` is the sorted vertex tuple (ids or strings);
    ``token_edges`` keeps the supporting correlations ``(u, v, rho)``
    in the same token space, which downstream affinity measures may
    use ("other choices are possible taking into account the strength
    of the correlation between the common pairs of keywords").
    ``keywords`` and ``edges`` are the decoded string views; clusters
    are immutable by contract and pickle as their token form plus the
    vocabulary (shared snapshots serialize once per payload).
    """

    __slots__ = ("tokens", "token_edges", "interval", "vocab",
                 "_keywords", "_edges", "_token_set", "_token_buffer",
                 "_signature")

    def __init__(self, keywords: Optional[FrozenSet[str]] = None,
                 edges: Tuple[Tuple[str, str, float], ...] = (),
                 interval: Optional[int] = None, *,
                 tokens: Optional[Tuple] = None,
                 token_edges: Tuple = (),
                 vocab: Optional[VocabularyLike] = None) -> None:
        if tokens is None:
            if keywords is None:
                raise TypeError(
                    "KeywordCluster needs keywords= (string mode) or "
                    "tokens= (interned mode)")
            if vocab is not None or token_edges:
                raise ValueError(
                    "interned construction needs tokens=; keywords/"
                    "edges build a string-mode cluster and cannot be "
                    "combined with vocab or token_edges")
            # Legacy string construction: keywords are the tokens.
            # Edge endpoints are canonicalized (min, max) so a cluster
            # built with reversed edges still equals its rebound form.
            tokens = tuple(sorted(keywords))
            token_edges = tuple(sorted(
                (min(u, v), max(u, v), w) for u, v, w in edges))
        elif keywords is not None or edges:
            raise ValueError(
                "string-mode construction needs keywords=/edges=; "
                "they cannot be combined with tokens (the interned "
                "form carries token_edges instead)")
        self.tokens = tuple(tokens)
        self.token_edges = tuple(token_edges)
        self.interval = interval
        self.vocab = vocab
        self._keywords: Optional[FrozenSet[str]] = None
        self._edges: Optional[Tuple] = None
        self._token_set: Optional[frozenset] = None
        self._token_buffer = None
        self._signature = None

    # ------------------------------------------------------------------
    # Token surface (what computation uses)
    # ------------------------------------------------------------------

    @property
    def token_set(self) -> frozenset:
        """The tokens as a frozenset (cached; the affinity measures'
        comparison form for same-vocabulary clusters)."""
        if self._token_set is None:
            self._token_set = frozenset(self.tokens)
        return self._token_set

    @property
    def token_buffer(self):
        """The tokens as a sorted ``array('I')`` id buffer (cached),
        or None for string-mode clusters — the similarity join's
        galloping-intersection verification form.  ``tokens`` is
        already sorted, so interned clusters pay one packing pass,
        no sort."""
        if self._token_buffer is None and self.vocab is not None:
            from array import array
            self._token_buffer = array("I", self.tokens)
        return self._token_buffer

    @property
    def signature(self):
        """The level-two join signature of this cluster's token set
        (size + checksum-band counts, cached) — the same value
        :func:`repro.affinity.simjoin.token_signature` computes inside
        the join, exposed so candidate callers (e.g. index-backed
        lookups) can pre-filter without touching the token set."""
        if self._signature is None:
            from repro.affinity.simjoin import token_signature
            self._signature = token_signature(self.tokens)
        return self._signature

    # ------------------------------------------------------------------
    # String surface (decode at the edge)
    # ------------------------------------------------------------------

    @property
    def keywords(self) -> FrozenSet[str]:
        """The keyword strings (decoded lazily for interned clusters)."""
        if self._keywords is None:
            if self.vocab is None:
                self._keywords = frozenset(self.tokens)
            else:
                self._keywords = self.vocab.decode_all(self.tokens)
        return self._keywords

    @property
    def edges(self) -> Tuple[Tuple[str, str, float], ...]:
        """The supporting correlations with decoded keywords, sorted
        canonically (so equal clusters compare equal whatever the
        token representation)."""
        if self._edges is None:
            if self.vocab is None:
                self._edges = self.token_edges
            else:
                decode = self.vocab.decode
                self._edges = tuple(sorted(
                    (min(decode(u), decode(v)),
                     max(decode(u), decode(v)), w)
                    for u, v, w in self.token_edges))
        return self._edges

    # ------------------------------------------------------------------
    # Similarity (delegates to the shared affinity implementation)
    # ------------------------------------------------------------------

    def jaccard(self, other: "KeywordCluster") -> float:
        """Jaccard affinity with another cluster."""
        return measures.jaccard(self, other)

    def intersection_size(self, other: "KeywordCluster") -> int:
        """Overlap affinity with another cluster."""
        return measures.intersection_count(self, other)

    # ------------------------------------------------------------------
    # Representation plumbing
    # ------------------------------------------------------------------

    def rebind(self, vocab: Vocabulary) -> "KeywordCluster":
        """This cluster re-interned into *vocab* (growing it).

        Tokens are interned in sorted string order, so the ids a
        sequence of rebinds assigns depend only on cluster content and
        order — the determinism the cross-mode equivalence tests pin.
        Returns ``self`` when already bound to *vocab*.
        """
        if vocab is self.vocab:
            return self
        decode = (lambda token: token) if self.vocab is None \
            else self.vocab.decode
        words = [decode(token) for token in self.tokens]
        # Edge endpoints are interned too: extracted clusters always
        # have them among the keywords, but externally built clusters
        # may not, and they must not crash a rebind.
        edge_words = [(decode(u), decode(v), w)
                      for u, v, w in self.token_edges]
        vocab.intern_sorted(
            words + [w for u, v, _ in edge_words for w in (u, v)])
        id_of = vocab.id_of
        tokens = tuple(sorted(id_of(word) for word in words))
        token_edges = tuple(sorted(
            (min(id_of(u), id_of(v)), max(id_of(u), id_of(v)), w)
            for u, v, w in edge_words))
        return KeywordCluster(tokens=tokens, token_edges=token_edges,
                              interval=self.interval, vocab=vocab)

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeywordCluster):
            return NotImplemented
        if self.vocab is other.vocab:
            return (self.tokens == other.tokens
                    and self.token_edges == other.token_edges
                    and self.interval == other.interval)
        return (self.keywords == other.keywords
                and self.edges == other.edges
                and self.interval == other.interval)

    def __hash__(self) -> int:
        return hash((self.keywords, self.edges, self.interval))

    def __getstate__(self):
        return (self.tokens, self.token_edges, self.interval, self.vocab)

    def __setstate__(self, state) -> None:
        self.tokens, self.token_edges, self.interval, self.vocab = state
        self._keywords = None
        self._edges = None
        self._token_set = None
        self._token_buffer = None
        self._signature = None

    def __repr__(self) -> str:
        kind = "ids" if self.vocab is not None else "strings"
        return (f"KeywordCluster({len(self.tokens)} keywords [{kind}], "
                f"interval={self.interval})")


def extract_clusters(pruned: Graph, interval: Optional[int] = None,
                     min_edges: int = 2,
                     include_bridge_trees: bool = False,
                     vocab: Optional[VocabularyLike] = None
                     ) -> List[KeywordCluster]:
    """Report the clusters of a pruned keyword graph G'.

    ``min_edges`` drops trivially small components (the paper's
    biconnected definition requires at least two edges; pass 1 to also
    report bridges as two-keyword clusters).  With
    ``include_bridge_trees=True`` each surviving component additionally
    absorbs keywords reachable from it through bridge edges that belong
    to no >= *min_edges* component — the paper's "trees connecting
    those components".

    When the graph's vertices are interned ids, pass the *vocab* they
    were interned against; the reported clusters stay in id space and
    decode on demand.
    """
    if min_edges < 1:
        raise ValueError(f"min_edges must be >= 1, got {min_edges}")
    result = biconnected_components(pruned)
    surviving: List[List[Tuple[Vertex, Vertex]]] = [
        component for component in result.components
        if len(component) >= min_edges]

    tree_adjacency: Dict[Vertex, List[Vertex]] = {}
    if include_bridge_trees:
        tree_adjacency = _bridge_adjacency(result.components, min_edges)

    clusters: List[KeywordCluster] = []
    for component in surviving:
        vertices = set()
        for u, v in component:
            vertices.add(u)
            vertices.add(v)
        if include_bridge_trees:
            vertices |= _tree_closure(vertices, tree_adjacency)
        edges = tuple(sorted(
            (min(u, v), max(u, v), pruned.weight(u, v))
            for u, v in component))
        clusters.append(KeywordCluster(tokens=tuple(sorted(vertices)),
                                       token_edges=edges,
                                       interval=interval, vocab=vocab))
    return clusters


def compact_clusters(clusters: Sequence[KeywordCluster]
                     ) -> List[KeywordCluster]:
    """Shrink interned clusters onto a minimal frozen snapshot.

    A generation task interns against its interval's *full* vocabulary
    (every document keyword); the clusters only reference the
    surviving correlated tokens.  This rebinds them to a
    :class:`~repro.vocab.FrozenVocabulary` of exactly those tokens, so
    a pickled task result ships each surviving keyword string once —
    and nothing else.  String-mode clusters pass through unchanged.
    """
    interned = [c for c in clusters if c.vocab is not None]
    if not interned:
        return list(clusters)
    staging = Vocabulary()
    rebound = [cluster.rebind(staging) if cluster.vocab is not None
               else cluster
               for cluster in clusters]
    snapshot = staging.freeze()
    for cluster in rebound:
        if cluster.vocab is staging:
            cluster.vocab = snapshot
    return rebound


def _bridge_adjacency(components: List[List[Tuple[Vertex, Vertex]]],
                      min_edges: int) -> Dict[Vertex, List[Vertex]]:
    """Adjacency restricted to bridge edges (components below the
    reporting threshold)."""
    adjacency: Dict[Vertex, List[Vertex]] = {}
    for component in components:
        if len(component) >= min_edges:
            continue
        for u, v in component:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
    return adjacency


def _tree_closure(seed: set, adjacency: Dict[Vertex, List[Vertex]]) -> set:
    """Vertices reachable from *seed* through bridge edges only."""
    reached = set(seed)
    frontier = [v for v in seed if v in adjacency]
    while frontier:
        u = frontier.pop()
        for v in adjacency.get(u, []):
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    return reached - set(seed)


# FrozenVocabulary is re-exported for callers binding task results.
__all__ = [
    "FrozenVocabulary",
    "KeywordCluster",
    "compact_clusters",
    "extract_clusters",
]
