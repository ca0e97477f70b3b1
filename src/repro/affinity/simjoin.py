"""Two-level threshold similarity join with prefix filtering.

Finds all pairs (one set from each collection) whose Jaccard
similarity meets a threshold, without comparing all pairs.  Level one
is the standard prefix-filter join the paper points to ([11]): order
each set's tokens by ascending global frequency; a pair with
``J(a, b) >= t`` must share a token within the first
``|s| - ceil(t * |s|) + 1`` tokens of either set, so an inverted index
over those prefixes yields a complete candidate set.

Level two rejects surviving candidates *before* exact verification
with a cheap per-set signature — the direction of the two-level
signature scheme for set similarity joins (PVLDB'23):

* a **length band**: ``J(a, b) >= t`` forces
  ``min(|a|, |b|) >= t * max(|a|, |b|)``, so mismatched sizes reject
  on two integer comparisons;
* a **token-checksum band**: each token hashes into one of
  ``SIGNATURE_BANDS`` buckets; per-band counts over the ordered
  signature (prefix and suffix alike) give the upper bound
  ``|a ∩ b| <= sum(min(bands_a[i], bands_b[i]))``, compared against
  the overlap a qualifying pair must reach,
  ``ceil(t * (|a| + |b|) / (1 + t))``.

Both checks are *safe* (they only reject pairs whose exact Jaccard is
below the threshold), so the verified result set is byte-identical to
the prefix-only join's — :class:`JoinStats` counts what the second
level saved (a prefix-only join would verify every candidate).

Tokens are any hashable, mutually orderable values: interned keyword
ids (the production path — machine-int hashing and comparison) or
strings.  Interned-id collections additionally verify on sorted
``array('I')`` buffers with galloping (exponential-search)
intersection; string collections keep the frozenset path.  Postings
lists are packed ``array('I')`` buffers in both cases.  One collection
must stay in one token namespace; frequency tie-breaks differ between
representations, which can reorder prefixes but never changes the
verified result set (the join is exact).

The building blocks — :func:`global_frequencies`,
:func:`ordered_prefix`, :func:`token_signature`,
:func:`signature_compatible`, :func:`verify_jaccard` — are separate
functions so each can be tested on its own; the window join
(:mod:`repro.affinity.windowjoin`) feeds this join an incrementally
maintained frequency counter equal to :func:`global_frequencies`.
"""

from __future__ import annotations

import heapq
import math
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, \
    Sequence, Tuple

Token = Hashable

# Buckets of the level-two checksum band.  More bands tighten the
# intersection upper bound (fewer unrelated tokens collide) but cost
# one extra comparison each per surviving candidate; 32 keeps the
# whole signature in one small bytes object.
SIGNATURE_BANDS = 32

# Engage the join once the collections imply more than this many
# squared comparisons — batch interval pairs and streaming windows
# alike.  The join is exact for Jaccard, so the choice moves speed,
# never results; docs/architecture.md has the measurement behind 64.
SIMJOIN_CUTOFF = 64

# A set signature: (size, per-band token counts).  Plain builtins so
# partition payloads ship signatures to worker processes as-is.
Signature = Tuple[int, bytes]

# Interned ids fit array('I'); anything outside its range falls back
# to the frozenset verification path.
_MAX_ARRAY_TOKEN = (1 << 32) - 1


@dataclass
class JoinStats:
    """What the join's filter levels did, for benchmarks and EXPLAIN.

    ``candidate_pairs`` counts pairs the level-one prefix filter
    produced (each of which the prefix-only join would verify);
    ``length_rejected`` and ``band_rejected`` count level-two
    rejections; ``verified_pairs`` is what survived to exact
    verification and ``result_pairs`` what met the threshold.
    """

    candidate_pairs: int = 0
    length_rejected: int = 0
    band_rejected: int = 0
    verified_pairs: int = 0
    result_pairs: int = 0

    @property
    def filtered_pairs(self) -> int:
        """Candidates the second level rejected without verifying."""
        return self.length_rejected + self.band_rejected

    @property
    def verified_fraction(self) -> float:
        """Verified share of candidates (1.0 when nothing filtered)."""
        if not self.candidate_pairs:
            return 1.0
        return self.verified_pairs / self.candidate_pairs

    @property
    def reduction(self) -> float:
        """Candidate-pair reduction the second level bought (0..1)."""
        return 1.0 - self.verified_fraction

    def merge(self, other: "JoinStats") -> None:
        """Fold another join's counters into this one."""
        self.candidate_pairs += other.candidate_pairs
        self.length_rejected += other.length_rejected
        self.band_rejected += other.band_rejected
        self.verified_pairs += other.verified_pairs
        self.result_pairs += other.result_pairs


def _prefix_length(size: int, threshold: float) -> int:
    """Tokens of the ordered set that must be indexed."""
    return size - int(math.ceil(threshold * size)) + 1


def global_frequencies(*collections: Iterable[FrozenSet[Token]]
                       ) -> Counter:
    """Token -> occurrence count over every set of every collection
    (the shared ordering key both join drivers must agree on)."""
    frequency: Counter = Counter()
    for collection in collections:
        for item in collection:
            frequency.update(item)
    return frequency


def ordered_prefix(item: FrozenSet[Token], frequency: Counter,
                   threshold: float) -> List[Token]:
    """The prefix-filter tokens of *item*: rare-first ordering (ties
    broken lexicographically for determinism), truncated to the
    prefix length for *threshold*.  Empty for the empty set.

    Selection runs through :func:`heapq.nsmallest`, so a large set
    pays O(n log p) for its p-token prefix instead of the O(n log n)
    full sort; the result is identical to sorting the whole set and
    truncating (the token in the key makes every ordering key
    unique).
    """
    if not item:
        return []
    prefix_len = _prefix_length(len(item), threshold)
    return heapq.nsmallest(prefix_len, item,
                           key=lambda token: (frequency[token], token))


# ----------------------------------------------------------------------
# Level-two signatures
# ----------------------------------------------------------------------

def _token_band(token: Token) -> int:
    """Deterministic token -> band assignment (crc32 for strings, not
    ``hash()``, which is salted per process)."""
    if isinstance(token, int):
        return token % SIGNATURE_BANDS
    return zlib.crc32(str(token).encode("utf-8")) % SIGNATURE_BANDS


def token_signature(item: Iterable[Token]) -> Signature:
    """The level-two signature of one set: size + checksum bands.

    Band counts saturate at 255 so the signature stays one byte per
    band; saturation only loosens the intersection upper bound, it
    never tightens it, so the filter stays safe.
    """
    counts = [0] * SIGNATURE_BANDS
    size = 0
    for token in item:
        size += 1
        band = _token_band(token)
        if counts[band] < 255:
            counts[band] += 1
    return size, bytes(counts)


def required_overlap(size_a: int, size_b: int, threshold: float) -> int:
    """Smallest ``|a ∩ b|`` a pair of these sizes needs for
    ``J >= threshold``: ``ceil(t * (|a| + |b|) / (1 + t))``, rounded
    conservatively down on float noise (a too-small requirement keeps
    a candidate, never drops one)."""
    return int(math.ceil(
        threshold * (size_a + size_b) / (1.0 + threshold) - 1e-9))


def signature_compatible(sig_a: Signature, sig_b: Signature,
                         threshold: float,
                         stats: Optional[JoinStats] = None) -> bool:
    """Can this candidate pair possibly reach *threshold*?

    Applies the length band, then the checksum band: both are upper
    bounds on the exact overlap, so ``False`` proves
    ``J(a, b) < threshold`` — a safe rejection.  ``stats`` (when
    given) records which level rejected.
    """
    size_a, bands_a = sig_a
    size_b, bands_b = sig_b
    if size_a <= size_b:
        smaller, larger = size_a, size_b
    else:
        smaller, larger = size_b, size_a
    # Length band: J >= t forces |a ∩ b| >= t * max(|a|, |b|), and
    # the overlap cannot exceed the smaller set.  The epsilon keeps
    # float noise from rejecting an exactly-qualifying pair.
    if smaller + 1e-9 < threshold * larger:
        if stats is not None:
            stats.length_rejected += 1
        return False
    needed = required_overlap(size_a, size_b, threshold)
    bound = 0
    for count_a, count_b in zip(bands_a, bands_b):
        bound += count_a if count_a <= count_b else count_b
        if bound >= needed:
            return True
    if stats is not None:
        stats.band_rejected += 1
    return False


# ----------------------------------------------------------------------
# Verification: galloping buffers for ids, frozensets for strings
# ----------------------------------------------------------------------

def as_sorted_buffer(item: Iterable[Token]) -> Optional[array]:
    """*item* as a sorted ``array('I')``, or None when any token
    falls outside the unsigned-32-bit id space (string tokens, or
    exotic ints — those collections verify on frozensets)."""
    try:
        buffer = array("I", sorted(item))
    except (TypeError, OverflowError):
        return None
    if buffer and buffer[-1] > _MAX_ARRAY_TOKEN:  # pragma: no cover
        return None
    return buffer


def intersection_size_sorted(a: Sequence[int], b: Sequence[int]) -> int:
    """``|a ∩ b|`` of two sorted duplicate-free buffers.

    Walks the smaller buffer and *gallops* (exponential search, then
    a bisect over the bracketed range) through the larger one, so
    lopsided pairs cost O(small * log(large / small)) instead of
    O(small + large).
    """
    if len(a) > len(b):
        a, b = b, a
    n = len(b)
    count = 0
    lo = 0
    for x in a:
        if lo >= n:
            break
        # Exponential probe: find a range (lo, hi] with b[hi] >= x.
        step = 1
        hi = lo
        while hi < n and b[hi] < x:
            lo = hi + 1
            hi += step
            step <<= 1
        pos = bisect_left(b, x, lo, min(hi + 1, n))
        if pos < n and b[pos] == x:
            count += 1
            lo = pos + 1
        else:
            lo = pos
    return count


def verify_jaccard(item: FrozenSet[Token],
                   other: FrozenSet[Token]) -> float:
    """Exact Jaccard similarity (0.0 when both sets are empty)."""
    intersection = len(item & other)
    union = len(item) + len(other) - intersection
    return intersection / union if union else 0.0


def verify_jaccard_sorted(a: Sequence[int], b: Sequence[int]) -> float:
    """Exact Jaccard of two sorted id buffers (galloping overlap)."""
    intersection = intersection_size_sorted(a, b)
    union = len(a) + len(b) - intersection
    return intersection / union if union else 0.0


def join_buffers(collection: Sequence[FrozenSet[Token]]
                 ) -> Optional[List[array]]:
    """Sorted ``array('I')`` verification buffers for a whole
    collection, or None when any set holds a non-id token (the
    caller keeps the frozenset path)."""
    buffers: List[array] = []
    for item in collection:
        buffer = as_sorted_buffer(item)
        if buffer is None:
            return None
        buffers.append(buffer)
    return buffers


# ----------------------------------------------------------------------
# The join
# ----------------------------------------------------------------------

def threshold_jaccard_join(left: Sequence[FrozenSet[Token]],
                           right: Sequence[FrozenSet[Token]],
                           threshold: float,
                           stats: Optional[JoinStats] = None,
                           frequency: Optional[Counter] = None
                           ) -> List[Tuple[int, int, float]]:
    """All (left_index, right_index, jaccard) with jaccard >= threshold.

    Empty sets never join (their Jaccard with anything is 0).
    ``stats`` (when given) accumulates the filter-level counters.
    ``frequency`` supplies a precomputed
    token-frequency counter (the streaming window join maintains one
    incrementally); it must equal
    ``global_frequencies(left, right)`` exactly, or prefixes diverge
    between probes and postings and the filter loses completeness.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(
            f"threshold must be in (0, 1], got {threshold}")

    if frequency is None:
        frequency = global_frequencies(left, right)

    # Inverted index over the prefixes of the right-hand collection:
    # packed array('I') postings, appended in ascending j.
    index: Dict[Token, array] = {}
    for j, item in enumerate(right):
        for token in ordered_prefix(item, frequency, threshold):
            postings = index.get(token)
            if postings is None:
                postings = index[token] = array("I")
            postings.append(j)

    # Interned-id collections verify on sorted buffers with galloping
    # intersection; any string (or otherwise non-id) token falls the
    # whole join back to frozensets.
    left_buffers = join_buffers(left)
    right_buffers = join_buffers(right) \
        if left_buffers is not None else None
    galloping = right_buffers is not None

    right_signatures = [token_signature(item) for item in right]

    results: List[Tuple[int, int, float]] = []
    for i, item in enumerate(left):
        candidates = set()
        for token in ordered_prefix(item, frequency, threshold):
            postings = index.get(token)
            if postings is not None:
                candidates.update(postings)
        if not candidates:
            continue
        signature = token_signature(item)
        for j in sorted(candidates):
            if stats is not None:
                stats.candidate_pairs += 1
            if not signature_compatible(
                    signature, right_signatures[j], threshold, stats):
                continue
            if stats is not None:
                stats.verified_pairs += 1
            if galloping:
                similarity = verify_jaccard_sorted(
                    left_buffers[i], right_buffers[j])
            else:
                similarity = verify_jaccard(item, right[j])
            if similarity >= threshold:
                results.append((i, j, similarity))
                if stats is not None:
                    stats.result_pairs += 1
    return results
