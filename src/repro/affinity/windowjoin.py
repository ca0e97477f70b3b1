"""Affinity edges between a window of intervals and a new interval.

Section 4.1 compares each interval's clusters with those of the
previous ``g + 1`` intervals and keeps the pairs above θ.  This module
is that comparison, once: the batch graph builder
(:mod:`repro.core.stability`) and the streaming front ends
(:mod:`repro.core.online`) both call :func:`window_affinity_edges`
with the sliding window of the previous ``g + 1`` intervals, so
offline and online paths build *identical* edge sets.  For Jaccard,
once window × new cluster count exceeds ``SIMJOIN_CUTOFF``², the
comparison runs through the two-level prefix-filter similarity join
of :mod:`repro.affinity.simjoin`; otherwise all pairs are compared.

An edge is kept when its affinity strictly exceeds θ; weights are
returned raw.  The batch builder normalizes an unbounded measure by
the global maximum after seeing every edge; a stream cannot revisit
past edges, so the streaming caller rejects weights outside
``(0, 1]`` instead.

:class:`WindowFrequencyTracker` maintains the join's global token
frequencies *incrementally* — per-interval token-count deltas are
added when an interval enters the window and subtracted when it is
evicted, instead of recounting every window token on every ingest.
The maintained counter is integer-exact, so prefixes (and therefore
the join result) are identical to a fresh recount.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.affinity.measures import (
    TOKEN_SET_MEASURES,
    jaccard,
    share_token_namespace,
    token_sets,
)
from repro.affinity.simjoin import (
    SIMJOIN_CUTOFF,
    JoinStats,
    threshold_jaccard_join,
)

NodeId = Tuple[int, int]
WindowEntry = Tuple[Sequence[NodeId], Sequence]


class WindowFrequencyTracker:
    """Incrementally maintained token frequencies for the window join.

    Each window interval contributes a token-count delta, added when
    the interval's cluster list first appears in the window and
    subtracted (exactly, entries deleted at zero) when it is evicted
    — so a steady-state ingest counts only the entering interval's
    tokens instead of the whole window's.  Tracked intervals are
    keyed by the identity of their cluster-list object (the streaming
    pipelines keep one list per window interval alive for its whole
    residency; a strong reference here keeps ids from being reused
    while tracked).

    The tracker also remembers whether counts were taken over decoded
    keyword strings or interned ids; if the window's joint
    representation flips (a foreign-vocabulary cluster arriving), it
    rebuilds from scratch — correctness never depends on the cache.
    """

    def __init__(self) -> None:
        self._counter: Counter = Counter()
        self._entries: Dict[int, Tuple[Sequence, Counter]] = {}
        self._decoded = False

    def frequencies(self, window: Sequence[WindowEntry],
                    window_sets: Sequence[Sequence[frozenset]],
                    new_sets: Sequence[frozenset],
                    decoded: bool) -> Counter:
        """The join's global frequency counter for this ingest.

        ``window_sets`` holds each window entry's token sets in the
        representation *decoded* selects; the result equals
        ``global_frequencies(flattened window sets, new_sets)``
        integer-for-integer.
        """
        if decoded != self._decoded:
            self._counter = Counter()
            self._entries = {}
            self._decoded = decoded
        live = set()
        for (_, clusters), sets in zip(window, window_sets):
            key = id(clusters)
            live.add(key)
            if key not in self._entries:
                delta: Counter = Counter()
                for item in sets:
                    delta.update(item)
                self._entries[key] = (clusters, delta)
                self._counter.update(delta)
        for key in list(self._entries):
            if key not in live:
                _, delta = self._entries.pop(key)
                for token, count in delta.items():
                    remaining = self._counter[token] - count
                    if remaining > 0:
                        self._counter[token] = remaining
                    else:
                        del self._counter[token]
        frequency = self._counter.copy()
        for item in new_sets:
            frequency.update(item)
        return frequency


def joins_exactly(measure: Callable) -> bool:
    """True when *measure* is Jaccard, the one measure the
    prefix-filter join is exact for."""
    return measure is jaccard


def window_affinity_edges(window: Sequence[WindowEntry],
                          clusters: Sequence,
                          measure: Callable = jaccard,
                          theta: float = 0.1,
                          frequency_tracker: Optional[
                              WindowFrequencyTracker] = None,
                          join_stats: Optional[JoinStats] = None
                          ) -> List[Tuple[NodeId, int, float]]:
    """Edges from the recent *window* to a new interval's *clusters*.

    ``window`` holds ``(node_ids, clusters)`` pairs for the previous
    ``g + 1`` intervals, oldest first; cluster objects expose
    ``keywords``.  Returns ``(parent_node, local_index, weight)``
    triples with ``weight > theta``, ordered by parent then child, the
    shape :meth:`~repro.core.online.StreamingStableClusters.add_interval`
    consumes.  For Jaccard, once the whole window's comparison count
    exceeds ``SIMJOIN_CUTOFF``², the window's clusters are joined
    against the new interval by the prefix-filter join in a *single*
    call — one frequency counter and one inverted index per ingested
    interval, not one per window interval; every other case compares
    all pairs.  The join is exact, so the choice moves speed, never
    edges.

    ``frequency_tracker`` (owned by the caller, one per window)
    maintains the global token frequencies incrementally across
    ingests; without one, every engaged join recounts the window.
    ``join_stats`` accumulates the two-level filter's candidate /
    verified counters for the engaged join.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    edges: List[Tuple[NodeId, int, float]] = []
    if not clusters or not window:
        return edges
    window_size = sum(len(old) for _, old in window)
    engage_join = joins_exactly(measure) \
        and window_size * len(clusters) > SIMJOIN_CUTOFF ** 2
    if engage_join or measure in TOKEN_SET_MEASURES:
        # Resolve the token sets once per ingest rather than once per
        # cluster pair: interned ids when window and new clusters
        # share one vocabulary, decoded strings otherwise.
        decoded = not share_token_namespace(
            *(old for _, old in window), clusters)
        window_sets = [token_sets(old, decoded) for _, old in window]
        new_sets = token_sets(clusters, decoded)
    else:
        window_sets = [old for _, old in window]
        new_sets = clusters
    if not engage_join:
        for (node_ids, _), old_sets in zip(window, window_sets):
            for a, old in enumerate(old_sets):
                for b, new in enumerate(new_sets):
                    weight = measure(old, new)
                    if weight > theta:
                        edges.append((node_ids[a], b, weight))
        return edges
    # Concatenate the window oldest-first so edge order matches the
    # all-pairs loop.
    owners = [node for node_ids, old in window
              for node in node_ids[:len(old)]]
    old_sets = [item for sets in window_sets for item in sets]
    frequency = None
    if frequency_tracker is not None:
        frequency = frequency_tracker.frequencies(
            window, window_sets, new_sets, decoded)
    matches = threshold_jaccard_join(old_sets, new_sets, theta,
                                     stats=join_stats,
                                     frequency=frequency)
    for a, b, weight in matches:
        # The join is >= theta; the paper keeps > theta.
        if weight > theta:
            edges.append((owners[a], b, weight))
    return edges
