"""The per-interval keyword graph G and its pruned form G'.

``KeywordGraph`` stores the unary counts ``A(u)``, the pairwise counts
``A(u, v)`` and the collection size ``n``, and applies the two pruning
stages of Section 3 (chi-square at 95%, then ρ > 0.2) to produce the
correlation-weighted graph ``G'`` on which biconnected components are
computed.  A pair whose rarer keyword occurs in fewer than
``MIN_SUPPORT`` documents never reaches either test, so the build
does not count it (see :meth:`KeywordGraph.from_keyword_sets`); a
graph built with ``min_support=0`` holds the paper's full G.
Keywords are generic tokens: the production pipeline
builds the graph over interned integer ids (see :mod:`repro.vocab`);
raw string sets work identically.

The in-memory build and :meth:`KeywordGraph.prune` are the hot loop
of a document-fed run, so both keep the per-pair work to a handful of
integer operations; :mod:`repro.stats` stays the reference that
defines (and, near the critical value, decides) every outcome.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.cooccur.aggregate import (
    Token,
    Triplet,
    count_keywords_and_pairs,
    count_pairs_external,
)
from repro.graph.adjacency import Graph
from repro.stats import (
    CHI2_CRITICAL_95,
    chi_square,
    correlation_coefficient,
)
from repro.storage.iostats import IOStats

RHO_DEFAULT = 0.2
# Documents a keyword must occur in before any pair of it is tested
# (see KeywordGraph.prune); the default floor of the build and the
# prune alike.
MIN_SUPPORT = 5

# Relative half-width of the band around the critical value inside
# which prune() lets repro.stats.chi_square decide (see prune()).
_CHI2_GUARD = 1e-9
_EPS = sys.float_info.epsilon


@dataclass
class PruneReport:
    """Edge survival counts for each pruning stage (Fig. 6 ablation).

    ``total_edges`` is the number of pairs the graph counted: all of
    G at a support floor of 0, only the pairs of keywords at or above
    the floor otherwise.
    """

    total_edges: int = 0
    after_chi2: int = 0
    after_rho: int = 0


class KeywordGraph:
    """Keyword co-occurrence graph for one temporal interval.

    ``min_support`` is the support floor the pair counts were taken
    at: ``A(u, v)`` is held only for pairs whose two keywords both
    occur in at least that many documents.  A floor of 0 or 1 holds
    every co-occurring pair, and is stored as 0.
    """

    def __init__(self, num_documents: int, min_support: int = 0) -> None:
        if num_documents <= 0:
            raise ValueError(
                f"num_documents must be positive, got {num_documents}")
        self.num_documents = num_documents
        self.min_support = min_support if min_support > 1 else 0
        self._node_counts: Dict[Token, int] = {}
        self._edge_counts: Dict[Tuple[Token, Token], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_triplets(cls, triplets: Iterable[Triplet],
                      num_documents: int,
                      min_support: int = 0) -> "KeywordGraph":
        """Build from a ``(u, v, A(u,v))`` stream; ``(u, u)`` triplets
        carry the unary counts ``A(u)``.  *min_support* declares the
        floor the cross triplets were counted at."""
        graph = cls(num_documents, min_support)
        for u, v, count in triplets:
            if count <= 0:
                raise ValueError(
                    f"triplet ({u!r}, {v!r}) has non-positive count {count}")
            if u == v:
                graph._node_counts[u] = graph._node_counts.get(u, 0) + count
            else:
                key = (u, v) if u < v else (v, u)
                graph._edge_counts[key] = (
                    graph._edge_counts.get(key, 0) + count)
        return graph

    @classmethod
    def from_keyword_sets(cls, keyword_sets: Iterable[FrozenSet[Token]],
                          external: bool = False,
                          directory: Optional[str] = None,
                          max_records: int = 200_000,
                          stats: Optional[IOStats] = None,
                          min_support: int = MIN_SUPPORT
                          ) -> "KeywordGraph":
        """Build from per-document keyword sets.

        With ``external=True`` the counting runs through the
        sort-based, bounded-memory pipeline of Section 3; otherwise
        the counts are hash-aggregated in memory, straight into the
        graph's two tables.  Both produce identical counts.

        ``A(u)`` is counted for every keyword, ``A(u, v)`` only for
        pairs whose two keywords both occur in at least *min_support*
        documents: the pairs :meth:`prune` at that floor skips before
        any statistic (Apriori: a pair is no more frequent than its
        rarer keyword).  ``min_support=0`` counts the paper's full G.
        """
        materialized = list(keyword_sets)
        n = len(materialized)
        if n == 0:
            raise ValueError("cannot build a keyword graph from an "
                             "empty document collection")
        if external:
            return cls.from_triplets(
                count_pairs_external(materialized,
                                     max_records=max_records,
                                     directory=directory, stats=stats,
                                     min_support=min_support),
                num_documents=n, min_support=min_support)
        graph = cls(n, min_support)
        graph._node_counts, graph._edge_counts = \
            count_keywords_and_pairs(materialized, min_support)
        return graph

    # ------------------------------------------------------------------
    # Counts and statistics
    # ------------------------------------------------------------------

    @property
    def num_keywords(self) -> int:
        """Distinct keywords (vertices of G)."""
        return len(self._node_counts)

    @property
    def num_edges(self) -> int:
        """Distinct co-occurring pairs counted: the edges of G whose
        keywords are both at or above the support floor (all of G at
        a floor of 0)."""
        return len(self._edge_counts)

    def keywords(self) -> Iterator[Token]:
        """Iterate over the vertex set."""
        return iter(self._node_counts)

    def count(self, u: Token) -> int:
        """A(u): documents containing keyword *u*."""
        return self._node_counts.get(u, 0)

    def pair_count(self, u: Token, v: Token) -> int:
        """A(u, v): documents containing both keywords.

        Raises :class:`ValueError` for a pair the support floor left
        uncounted (both keywords occur, one in fewer than
        ``min_support`` documents): its count is not known, and 0
        would be a wrong answer.
        """
        if u == v:
            return self.count(u)
        key = (u, v) if u < v else (v, u)
        count = self._edge_counts.get(key)
        if count is not None:
            return count
        if 0 < min(self.count(u), self.count(v)) < self.min_support:
            raise ValueError(
                f"pair ({u!r}, {v!r}) is below the support floor "
                f"{self.min_support} this graph was counted at; build "
                f"with min_support=0 for every pair count")
        return 0

    def edges(self) -> Iterator[Triplet]:
        """Iterate over ``(u, v, A(u,v))`` for every counted pair."""
        for (u, v), count in self._edge_counts.items():
            yield (u, v, count)

    def chi_square(self, u: Token, v: Token) -> float:
        """Formula 1 statistic for the pair ``(u, v)``."""
        return chi_square(self.count(u), self.count(v),
                          self.pair_count(u, v), self.num_documents)

    def correlation(self, u: Token, v: Token) -> float:
        """Formula 3 correlation coefficient for the pair ``(u, v)``."""
        return correlation_coefficient(self.count(u), self.count(v),
                                       self.pair_count(u, v),
                                       self.num_documents)

    # ------------------------------------------------------------------
    # Pruning (Section 3): chi-square filter then rho threshold
    # ------------------------------------------------------------------

    def prune(self, rho_threshold: float = RHO_DEFAULT,
              chi2_critical: float = CHI2_CRITICAL_95,
              min_support: int = MIN_SUPPORT,
              report: Optional[PruneReport] = None) -> Graph:
        """Return G': the ρ-weighted graph of strongly correlated pairs.

        An edge survives when χ² > *chi2_critical* **and**
        ρ > *rho_threshold*; the surviving edge's weight is ρ.  Both
        tests are computed in the single pass over the edges that the
        paper prescribes.

        ``min_support`` drops pairs where either keyword appears in
        fewer documents than the threshold.  The chi-square 2x2
        approximation is invalid for tiny expected counts (the classic
        rule of thumb is >= 5; see Manning & Schütze, the paper's
        reference [12]): without this filter, every pair of words that
        co-occur in a single document scores ρ = 1.0 and χ² = n, and
        each document's unique rare words form a spurious clique.
        A *min_support* below the floor the graph was counted at
        raises :class:`ValueError`: the pairs it would test were
        never counted.

        The outcome is defined by :func:`repro.stats.chi_square` and
        :func:`repro.stats.correlation_coefficient`; the loop only
        avoids calling them where the answer cannot depend on it.
        For consistent, non-degenerate counts Formula 1 collapses to
        the closed form ``χ² = n·d² / (A(u)·A(v)·(n−A(u))·(n−A(v)))``
        with ``d = n·A(u,v) − A(u)·A(v)``, one correctly rounded
        division of exact integers.  That value is a *prefilter*:
        clearly below the critical value the edge is dropped, clearly
        above it passes, and inside a guard band (1e-9 relative,
        widened to the reference's own worst-case rounding error for
        extreme ``n``/critical values) the four-cell reference sum
        decides, because its last-bit rounding, not the closed form's,
        is what the result is pinned to.  Degenerate marginals
        (``A(u)`` of 0 or n: the closed form would divide by zero) and
        inconsistent counts (only ``from_triplets`` can produce them)
        always go to the reference, which scores the former 0.0 and
        raises :class:`ValueError` for the latter.  ρ is evaluated by
        the same float expression as the reference, so weights are
        bit-identical.
        """
        if min_support < self.min_support:
            raise ValueError(
                f"min_support={min_support} is below the support floor "
                f"{self.min_support} this graph was counted at; build "
                f"with min_support<={min_support}")
        pruned = Graph()
        n = self.num_documents
        count = self._node_counts.get
        sqrt = math.sqrt
        # Cancellation in the reference's (E - A) terms bounds its
        # error near the critical value by eps * (sqrt(n * critical)
        # + critical + n * eps); the fixed relative guard dwarfs that
        # until n / critical passes ~1e11 (a near-zero critical value).
        # An infinite critical value makes the guard infinite (the
        # reference decides every edge); nan fails every comparison,
        # here and in the reference alike.
        critical = abs(chi2_critical)
        guard = max(_CHI2_GUARD * critical, 8 * _EPS * (
            sqrt(n * critical) + critical + n * _EPS))
        after_chi2 = after_rho = 0
        for (u, v), a_uv in self._edge_counts.items():
            a_u = count(u, 0)
            a_v = count(v, 0)
            if a_u < min_support or a_v < min_support:
                continue
            if 0 < a_uv <= a_u < n and a_uv <= a_v < n \
                    and a_u + a_v - a_uv <= n:
                d = n * a_uv - a_u * a_v
                var_u = (n - a_u) * a_u
                var_v = (n - a_v) * a_v
                chi2 = n * d * d / (var_u * var_v)
                if abs(chi2 - chi2_critical) <= guard:
                    chi2 = chi_square(a_u, a_v, a_uv, n)
                if chi2 <= chi2_critical:
                    continue
                rho = d / sqrt(var_u) / sqrt(var_v)
            else:
                if chi_square(a_u, a_v, a_uv, n) <= chi2_critical:
                    continue
                rho = correlation_coefficient(a_u, a_v, a_uv, n)
            after_chi2 += 1
            if rho <= rho_threshold:
                continue
            after_rho += 1
            pruned.add_edge(u, v, weight=rho)
        if report is not None:
            report.total_edges = len(self._edge_counts)
            report.after_chi2 = after_chi2
            report.after_rho = after_rho
        return pruned

    def __repr__(self) -> str:
        return (f"KeywordGraph(n={self.num_documents}, "
                f"keywords={self.num_keywords}, edges={self.num_edges})")
