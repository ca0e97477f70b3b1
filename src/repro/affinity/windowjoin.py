"""Affinity edges between a streaming window and a new interval.

The batch graph construction (:mod:`repro.core.stability`) compares
cluster pairs either all-pairs or — for Jaccard — through the
two-level prefix-filter similarity join of
:mod:`repro.affinity.simjoin`.  The streaming front ends need the same
computation against the sliding window of the previous ``g + 1``
intervals; this module provides it once so online and offline paths
build *identical* edge sets.

Weight semantics match the batch builder's: an edge is kept when its
affinity strictly exceeds θ, and weights must already lie in
``(0, 1]`` (up to float slop).  The batch path can normalize an
unbounded measure by the global maximum after seeing every edge; a
stream cannot revisit past edges, so unbounded measures are rejected
here instead of being silently clamped.

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

# Matches repro.core.cluster_graph.EPSILON (float-slop tolerance on
# the (0, 1] weight bound); duplicated to keep affinity a leaf module.
EPSILON = 1e-12

# The streaming front ends took this name before batch and stream
# shared one cutoff; kept as an alias.
STREAM_SIMJOIN_CUTOFF = SIMJOIN_CUTOFF

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


def _checked(weight: float, measure: Callable) -> float:
    if weight > 1.0 + EPSILON:
        name = getattr(measure, "__name__", repr(measure))
        raise ValueError(
            f"affinity measure {name} returned {weight}, outside "
            f"(0, 1]: a stream cannot renormalize past edges by a "
            f"global maximum — use a bounded measure (jaccard, dice, "
            f"overlap) or pre-normalized weights")
    return min(weight, 1.0)


def joins_exactly(measure: Callable,
                  use_simjoin: Optional[bool] = None) -> bool:
    """True when *measure* is Jaccard, the one measure the
    prefix-filter join is exact for; forcing the join on
    (``use_simjoin=True``) with any other raises ``ValueError``
    rather than silently comparing all pairs."""
    if use_simjoin and measure is not jaccard:
        name = getattr(measure, "__name__", repr(measure))
        raise ValueError(
            f"use_simjoin=True requires the jaccard measure (the "
            f"prefix-filter join is only exact for it), got {name}")
    return measure is jaccard


def window_affinity_edges(window: Sequence[WindowEntry],
                          clusters: Sequence,
                          measure: Callable = jaccard,
                          theta: float = 0.1,
                          use_simjoin: Optional[bool] = None,
                          simjoin_cutoff: int = SIMJOIN_CUTOFF,
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
    triples with ``weight > theta``, the shape
    :meth:`~repro.core.online.StreamingStableClusters.add_interval`
    consumes.  ``use_simjoin`` forces the prefix-filter join on or
    off; by default it engages for Jaccard once the whole window's
    comparison count exceeds ``simjoin_cutoff``².  When engaged, the
    window's clusters are joined against the new interval in a
    *single* call — one frequency counter and one inverted index per
    ingested interval, not one per window interval (per-interval
    latency is the serving metric).  The join is exact only for
    Jaccard, so forcing it on with another measure raises rather
    than silently falling back to all-pairs.

    ``frequency_tracker`` (owned by the caller, one per stream)
    maintains the global token frequencies incrementally across
    ingests; without one, every call recounts the window.
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
    is_jaccard = joins_exactly(measure, use_simjoin)
    edges: List[Tuple[NodeId, int, float]] = []
    if not clusters:
        return edges
    window_size = sum(len(old) for _, old in window)
    engage_join = use_simjoin if use_simjoin is not None else (
        is_jaccard
        and window_size * len(clusters) > simjoin_cutoff ** 2)
    if engage_join:  # only ever true for Jaccard (checked above)
        # Concatenate the window oldest-first so edge order matches
        # the all-pairs path (results are order-insensitive anyway).
        # Token sets are interned ids when window and new clusters
        # share one vocabulary, decoded strings otherwise.
        new_clusters = list(clusters)
        decoded = not share_token_namespace(
            [cluster for _, old in window for cluster in old],
            new_clusters)
        owners: List[NodeId] = []
        old_sets: List[frozenset] = []
        window_sets: List[List[frozenset]] = []
        for node_ids, old_clusters in window:
            entry_sets = token_sets(old_clusters, decoded)
            window_sets.append(entry_sets)
            old_sets.extend(entry_sets)
            owners.extend(node_ids[:len(old_clusters)])
        new_sets = token_sets(new_clusters, decoded)
        frequency = None
        if frequency_tracker is not None:
            frequency = frequency_tracker.frequencies(
                window, window_sets, new_sets, decoded)
        if executor is not None and executor.workers > 1:
            pieces = num_partitions or executor.workers
            payloads = partition_join_payloads(old_sets, new_sets,
                                               theta, pieces,
                                               frequency=frequency)
            merged: Dict[Tuple[int, int], float] = {}
            for results in executor.map_stages(join_partition_task,
                                               payloads):
                for a, b, weight in results:
                    merged[(a, b)] = weight
            matches = [(a, b, merged[(a, b)])
                       for a, b in sorted(merged)]
        else:
            matches = threshold_jaccard_join(old_sets, new_sets, theta,
                                             stats=join_stats,
                                             frequency=frequency)
        for a, b, weight in matches:
            # The join is >= theta; the paper keeps > theta.
            if weight > theta:
                edges.append((owners[a], b, weight))
        return edges
    for node_ids, old_clusters in window:
        for a, old_cluster in enumerate(old_clusters):
            for b, cluster in enumerate(clusters):
                weight = measure(old_cluster, cluster)
                if weight > theta:
                    edges.append((node_ids[a], b,
                                  _checked(weight, measure)))
    return edges
