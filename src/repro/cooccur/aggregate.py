"""Aggregation of sorted keyword pairs into co-occurrence triplets.

Tokens are generic (interned integer ids on the production path,
strings wherever callers pass raw keyword sets); both aggregate
identically — the external sort just compares ints faster and spills
smaller run records.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, groupby
from typing import (
    Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Set, Tuple)

from repro.cooccur.pairs import Pair, Token, emit_pairs
from repro.extsort import external_sort
from repro.storage.iostats import IOStats

Triplet = Tuple[Token, Token, int]

# glibc ``mallopt`` parameters (malloc.h) and the values they are
# pinned to: the ceilings glibc's own dynamic adjustment stops at.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def aggregate_sorted_pairs(pairs: Iterable[Pair]) -> Iterator[Triplet]:
    """Collapse a *sorted* pair stream into ``(u, v, count)`` triplets.

    One sequential pass; identical pairs must be adjacent (the
    post-external-sort property).
    """
    for pair, group in groupby(pairs):
        count = sum(1 for _ in group)
        yield (pair[0], pair[1], count)


def frequent_keywords(keyword_counts: Mapping[Token, int],
                      min_support: int) -> Set[Token]:
    """The keywords with ``A(u) >= min_support``: those the support
    floor lets into a counted pair."""
    return {u for u, count in keyword_counts.items()
            if count >= min_support}


def count_pairs_external(keyword_sets: Iterable[FrozenSet[Token]],
                         max_records: int = 200_000,
                         directory: Optional[str] = None,
                         stats: Optional[IOStats] = None,
                         min_support: int = 0) -> Iterator[Triplet]:
    """Emit, external-sort, and aggregate pairs with bounded memory.

    This is the full Section 3 counting pipeline in streaming form.
    With a support floor above 1, a first pass counts ``A(u)`` and
    only cross pairs of keywords with ``A(u) >= min_support`` are
    emitted to the sort (every self pair still is), so the spilled
    runs hold no pair the floor drops.
    """
    frequent = None
    if min_support > 1:
        keyword_sets = list(keyword_sets)
        frequent = frequent_keywords(
            Counter(chain.from_iterable(keyword_sets)), min_support)
    sorted_pairs = external_sort(emit_pairs(keyword_sets, frequent),
                                 max_records=max_records,
                                 directory=directory, stats=stats)
    return aggregate_sorted_pairs(sorted_pairs)


@lru_cache(maxsize=None)
def _retain_freed_heap() -> None:
    """Stop glibc handing the pair table's memory back between calls.

    The pair table is built by doubling, so one call grows the heap
    by about twice the final table: the table plus the chain of
    outgrown ones below it.  glibc's dynamic trim threshold is twice
    the largest block it has seen freed, i.e. twice that same table,
    so whether the heap is cut back when the graph dies, and paged in
    again (a fault per 4 KiB, ~5 MB per interval of a stream) by the
    next call, hangs on a few KiB of unrelated heap each time.  That
    was 4-6 % of a streaming run spent in the kernel, a different
    share in every run.  Pinning both thresholds, once per process,
    at the ceilings the dynamic adjustment stops at makes every call
    after the first reuse the heap the last one freed.  A C library
    without ``mallopt`` is left as it is.
    """
    try:
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def count_keywords_and_pairs(keyword_sets: Iterable[FrozenSet[Token]],
                             min_support: int = 0
                             ) -> Tuple[Counter, Counter]:
    """The in-memory counting kernel: ``(A(u), A(u, v))`` counters.

    Same multiset as :func:`~repro.cooccur.pairs.emit_pairs` — every
    keyword once and every canonical (sorted) cross pair once per
    document — but fed straight to ``Counter.update``, so the
    per-pair work is the C counting loop, not Python bookkeeping.
    Keys appear in first-occurrence order, which fixes the pruned
    graph's adjacency order and hence the order clusters come out in.

    A *min_support* above 1 counts ``A(u)`` in a first pass and then
    only the pairs whose two keywords both have ``A >= min_support``:
    the pair table is the same one filtered, its keys in the same
    relative order.  The pair table is the one large transient
    allocation of a run, so the first call also keeps the C heap
    from being cut back between calls (:func:`_retain_freed_heap`).
    """
    _retain_freed_heap()
    keywords: Counter = Counter()
    pairs: Counter = Counter()
    if min_support <= 1:
        for document in keyword_sets:
            ordered = sorted(document)
            keywords.update(ordered)
            pairs.update(combinations(ordered, 2))
        return keywords, pairs
    documents = list(keyword_sets)
    for document in documents:
        keywords.update(sorted(document))
    keep = frequent_keywords(keywords, min_support).__contains__
    for document in documents:
        pairs.update(combinations(sorted(filter(keep, document)), 2))
    return keywords, pairs


def count_pairs_in_memory(keyword_sets: Iterable[FrozenSet[Token]]
                          ) -> Dict[Pair, int]:
    """Hash-aggregate the pair stream entirely in memory.

    Functionally identical to :func:`count_pairs_external` (self
    pairs ``(u, u)`` carry the unary counts); used, with no support
    floor, as the differential oracle in tests.
    """
    keywords, pairs = count_keywords_and_pairs(keyword_sets)
    counts: Dict[Pair, int] = {(u, u): c for u, c in keywords.items()}
    counts.update(pairs)
    return counts
