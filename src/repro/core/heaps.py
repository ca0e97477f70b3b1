"""Bounded top-k heaps over paths (the paper's "check" operation).

``TopK`` keeps the k best items under a total order.  For paths the
order is ``(weight, nodes)`` — or ``(stability, nodes)`` for the
normalized problem via the ``key`` parameter — so the retained set is
unique and algorithm outputs are exactly comparable.  The order being
strict, the retained set is the k largest of everything offered, in
whatever order it was offered.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Callable,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

T = TypeVar("T")


class TopK(Generic[T]):
    """A fixed-capacity max-set kept as an ascending sorted list.

    :meth:`check` is the paper's check operation: the candidate enters
    iff it beats the current minimum (or the set is not yet full).
    One bisection finds the minimum test, the duplicate test and the
    insertion point; k is small, so shifting the list costs less than
    hashing the item into a side set would.
    """

    def __init__(self, k: int,
                 key: Optional[Callable[[T], object]] = None) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self._key = key if key is not None else (lambda item: item)
        self._entries: List[Tuple[object, T]] = []  # (key, item), ascending

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """True once k items are retained."""
        return len(self._entries) >= self.k

    def admits(self, score) -> bool:
        """Whether an item whose key would *lead with* score can enter.

        For sets keyed by ``(score, tie_break)`` tuples (the path
        orders): False only when the set is full and *score* is
        strictly below the minimum's, so a caller can reject a
        candidate before building it.  A tie answers True — the
        tie-break decides, and :meth:`check` compares it.
        """
        return (len(self._entries) < self.k
                or score >= self._entries[0][0][0])

    def check(self, item: T) -> bool:
        """Offer *item*; returns True when it was retained.

        Re-offering a retained item is a no-op (the DFS algorithm can
        regenerate a path after a pruning pass unmarks part of the
        stack).
        """
        entry = (self._key(item), item)
        entries = self._entries
        at = bisect_left(entries, entry)
        full = len(entries) >= self.k
        if (full and at == 0) or (at < len(entries)
                                  and entries[at] == entry):
            return False
        entries.insert(at, entry)
        if full:
            del entries[0]
        return True

    def extend(self, items: Iterable[T]) -> None:
        """Offer every item of *items*."""
        for item in items:
            self.check(item)

    def min_key(self):
        """Smallest retained key, or ``None`` when not yet full.

        The DFS pruning bound (min-k) must treat a non-full heap as
        unboundedly accepting, so callers get ``None`` rather than the
        current minimum in that case.
        """
        if not self.is_full:
            return None
        return self._entries[0][0]

    def items(self) -> List[T]:
        """Retained items, best first."""
        return [item for _, item in reversed(self._entries)]

    def __iter__(self) -> Iterator[T]:
        return iter(self.items())

    def __contains__(self, item: T) -> bool:
        return (self._key(item), item) in self._entries

    def __repr__(self) -> str:
        return f"TopK(k={self.k}, size={len(self._entries)})"
