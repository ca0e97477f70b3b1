"""Keyword co-occurrence graph generation (Section 3).

The paper's methodology, reproduced exactly:

1. one pass over the documents of the interval, emitting every keyword
   pair per document (including the self pair ``(u, u)``, which yields
   the unary count ``A(u)``) — :mod:`repro.cooccur.pairs`;
2. an external-memory sort of the pair file so identical pairs are
   adjacent — :mod:`repro.extsort`;
3. one pass over the sorted pairs producing triplets
   ``(u, v, A(u, v))`` — :mod:`repro.cooccur.aggregate`;
4. a :class:`~repro.cooccur.keyword_graph.KeywordGraph` over those
   triplets, supporting the chi-square and correlation-coefficient
   pruning that yields the graph ``G'`` whose biconnected components
   are the keyword clusters.

Steps 1-3 are the bounded-memory path (``external=True``).  When the
interval's counts fit in memory — the default — they collapse into
:func:`~repro.cooccur.aggregate.count_keywords_and_pairs`: the same
pair multiset counted straight into the graph's two tables by the C
loop behind ``Counter.update``.  Either way the build counts ``A(u)``
first and ``A(u, v)`` only for pairs of keywords in at least
``MIN_SUPPORT`` documents, the pairs pruning would skip untested;
``min_support=0`` counts the full G.  Pruning is one pass whose
closed-form χ² only *prefilters*; :mod:`repro.stats` remains the
reference that decides any edge near the critical value (see
:meth:`KeywordGraph.prune`).
"""

from repro.cooccur.aggregate import (
    aggregate_sorted_pairs,
    count_pairs_external,
    count_pairs_in_memory,
)
from repro.cooccur.keyword_graph import MIN_SUPPORT, KeywordGraph
from repro.cooccur.pairs import emit_pairs, write_pair_file

__all__ = [
    "KeywordGraph",
    "MIN_SUPPORT",
    "aggregate_sorted_pairs",
    "count_pairs_external",
    "count_pairs_in_memory",
    "emit_pairs",
    "write_pair_file",
]
