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

Two streaming-specific optimizations live here:

* :class:`WindowFrequencyTracker` maintains the join's global token
  frequencies *incrementally* — per-interval token-count deltas are
  added when an interval enters the window and subtracted when it is
  evicted, instead of recounting every window token on every ingest.
  The maintained counter is integer-exact, so prefixes (and therefore
  the join result) are identical to a fresh recount.
* The partitioned parallel join ships each partition the level-two
  signatures of the sets it may verify, so worker processes reject
  candidates with the same length/checksum-band checks the serial
  join applies — per-partition decisions depend only on the pair's
  global signatures, which is why the merged result is exactly the
  serial join's.
"""

from __future__ import annotations

import zlib
from array import array
from collections import Counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.affinity.measures import (
    TOKEN_SET_MEASURES,
    jaccard,
    share_token_namespace,
    token_sets,
)
from repro.affinity.simjoin import (
    SIMJOIN_CUTOFF,
    JoinStats,
    Signature,
    Token,
    global_frequencies,
    join_buffers,
    ordered_prefix,
    signature_compatible,
    threshold_jaccard_join,
    token_signature,
    verify_jaccard,
    verify_jaccard_sorted,
)

NodeId = Tuple[int, int]
WindowEntry = Tuple[Sequence[NodeId], Sequence]

# One partitioned-join work item: probe list (left index, its prefix
# tokens in this partition), the partition's inverted index over the
# right side's prefixes, the verification forms either side needs
# (sorted id buffers on the production path, frozensets on the string
# fallback), the level-two signatures of both sides, and the
# threshold.  Everything is builtin types — interned id sets on the
# production path, so payloads pickle to worker processes without a
# single keyword string.
VerifyForm = Union[FrozenSet[Token], Sequence[int]]
JoinPartition = Tuple[
    List[Tuple[int, List[Token]]],
    Dict[Token, Sequence[int]],
    Dict[int, VerifyForm],
    Dict[int, VerifyForm],
    Dict[int, Signature],
    Dict[int, Signature],
    float,
]


def _token_partition(token: Token, num_partitions: int) -> int:
    """Deterministic token -> partition assignment.  Interned ids
    route by value; strings by crc32 (not ``hash()``, which is salted
    per process)."""
    if isinstance(token, int):
        return token % num_partitions
    return zlib.crc32(token.encode("utf-8")) % num_partitions


def join_partition_task(payload: JoinPartition
                        ) -> List[Tuple[int, int, float]]:
    """Verify one index-token partition of the prefix-filter join.

    Pure and picklable: the unit of work a
    :class:`~repro.parallel.ProcessExecutor` receives.  Candidates are
    pairs sharing a prefix token *assigned to this partition*; the
    shipped level-two signatures reject length- or band-incompatible
    pairs exactly as the serial join does, and verification computes
    the exact Jaccard — so any pair this returns is correct, and any
    qualifying pair survives the signature checks in *every* partition
    that discovers it (the checks depend only on the pair's global
    signatures).  Partitioning affects only which partition(s)
    discover a pair.
    """
    (probes, postings, left_forms, right_forms,
     left_sigs, right_sigs, threshold) = payload
    results: List[Tuple[int, int, float]] = []
    for i, tokens in probes:
        candidates = set()
        for token in tokens:
            candidates.update(postings.get(token, ()))
        if not candidates:
            continue
        form = left_forms[i]
        galloping = not isinstance(form, (frozenset, set))
        signature = left_sigs[i]
        for j in sorted(candidates):
            if not signature_compatible(signature, right_sigs[j],
                                        threshold):
                continue
            if galloping:
                similarity = verify_jaccard_sorted(form, right_forms[j])
            else:
                similarity = verify_jaccard(form, right_forms[j])
            if similarity >= threshold:
                results.append((i, j, similarity))
    return results


def partition_join_payloads(left_sets: Sequence[FrozenSet[Token]],
                            right_sets: Sequence[FrozenSet[Token]],
                            threshold: float,
                            num_partitions: int,
                            frequency: Optional[Counter] = None
                            ) -> List[JoinPartition]:
    """Split the prefix-filter join into per-token-partition payloads.

    Ordering and prefix lengths come from the same
    :func:`~repro.affinity.simjoin.ordered_prefix` /
    :func:`~repro.affinity.simjoin.global_frequencies` helpers the
    serial join uses, computed once here against the *global* token
    frequencies (they must agree across partitions for the prefix
    filter to stay complete; ``frequency`` may supply an incrementally
    maintained counter); each prefix token then routes its postings
    and probes to :func:`_token_partition` (``id % num_partitions``
    for interned ids, crc32 for strings).  A qualifying pair shares at
    least one prefix token, so it is discovered by at least the
    partition that token maps to; a pair sharing prefix tokens in
    several partitions is found by each — with the same exact weight,
    after the same global-signature checks — and deduplicated on
    merge.  The merged result is therefore *exactly* the serial
    join's.

    Payloads carry each side's verification form (sorted ``array('I')``
    id buffers when the whole collection is interned, frozensets
    otherwise — matching the serial join's representation choice) and
    the level-two signatures of every set a partition may probe.
    """
    if frequency is None:
        frequency = global_frequencies(left_sets, right_sets)

    def prefix(item: FrozenSet[Token]) -> List[Token]:
        return ordered_prefix(item, frequency, threshold)

    left_buffers = join_buffers(left_sets)
    right_buffers = join_buffers(right_sets) \
        if left_buffers is not None else None
    galloping = right_buffers is not None

    def form(side_sets, side_buffers, index):
        return side_buffers[index] if galloping else side_sets[index]

    left_signatures = [token_signature(item) for item in left_sets]
    right_signatures = [token_signature(item) for item in right_sets]

    probes: List[List[Tuple[int, List[Token]]]] = \
        [[] for _ in range(num_partitions)]
    postings: List[Dict[Token, array]] = \
        [{} for _ in range(num_partitions)]
    right_needed: List[set] = [set() for _ in range(num_partitions)]
    for j, item in enumerate(right_sets):
        for token in prefix(item):
            p = _token_partition(token, num_partitions)
            bucket = postings[p].get(token)
            if bucket is None:
                bucket = postings[p][token] = array("I")
            bucket.append(j)
            right_needed[p].add(j)
    for i, item in enumerate(left_sets):
        by_partition: Dict[int, List[Token]] = {}
        for token in prefix(item):
            p = _token_partition(token, num_partitions)
            if postings[p].get(token):
                by_partition.setdefault(p, []).append(token)
        for p, tokens in by_partition.items():
            probes[p].append((i, tokens))

    payloads: List[JoinPartition] = []
    for p in range(num_partitions):
        if not probes[p]:
            continue
        left_slice = {i: form(left_sets, left_buffers, i)
                      for i, _ in probes[p]}
        right_slice = {j: form(right_sets, right_buffers, j)
                       for j in right_needed[p]}
        left_sig_slice = {i: left_signatures[i] for i, _ in probes[p]}
        right_sig_slice = {j: right_signatures[j]
                           for j in right_needed[p]}
        payloads.append((probes[p], postings[p], left_slice,
                         right_slice, left_sig_slice, right_sig_slice,
                         threshold))
    return payloads


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
                          executor=None,
                          num_partitions: Optional[int] = None,
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
    verified counters for the serial engaged join (the partitioned
    path reports totals per worker, not here).

    ``executor`` (a :class:`~repro.parallel.Executor` with more than
    one worker) additionally partitions the engaged join by index
    token across *num_partitions* pieces (default: the executor's
    worker count) and merges the per-partition results exactly — same
    edges, same order, parallel wall-clock.
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
    if executor is not None and executor.workers > 1:
        pieces = num_partitions or executor.workers
        payloads = partition_join_payloads(old_sets, new_sets, theta,
                                           pieces, frequency=frequency)
        merged: Dict[Tuple[int, int], float] = {}
        for results in executor.map_stages(join_partition_task,
                                           payloads):
            for a, b, weight in results:
                merged[(a, b)] = weight
        matches = [(a, b, merged[(a, b)]) for a, b in sorted(merged)]
    else:
        matches = threshold_jaccard_join(old_sets, new_sets, theta,
                                         stats=join_stats,
                                         frequency=frequency)
    for a, b, weight in matches:
        # The join is >= theta; the paper keeps > theta.
        if weight > theta:
            edges.append((owners[a], b, weight))
    return edges
