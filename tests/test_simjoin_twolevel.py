"""Two-level signature join: equivalence, safety, and cached forms.

The second filter level (length band + checksum bands over sorted
``array('I')`` postings with galloping intersection) must be invisible
in the join's output: every test here holds the two-level join to the
brute-force / prefix-only result **exactly** — same pairs, bit-identical
weights — across random id and string collections, adversarial shapes,
thresholds up to 1.0, and the incremental window-frequency tracker.
"""

import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.affinity import dice, jaccard
from repro.affinity.simjoin import (
    SIMJOIN_CUTOFF,
    JoinStats,
    SIGNATURE_BANDS,
    _prefix_length,
    as_sorted_buffer,
    global_frequencies,
    intersection_size_sorted,
    ordered_prefix,
    required_overlap,
    signature_compatible,
    threshold_jaccard_join,
    token_signature,
    verify_jaccard_sorted,
)
from repro.affinity.windowjoin import (
    WindowFrequencyTracker,
    joins_exactly,
    window_affinity_edges,
)
from repro.graph.clusters import KeywordCluster
from repro.vocab import Vocabulary

THRESHOLDS = [0.1, 0.3, 0.5, 0.7, 1.0]


def brute_force(left, right, threshold):
    """All-pairs oracle with the same weight floats as the join."""
    out = []
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if not a or not b:
                continue
            sim = len(a & b) / len(a | b)
            if sim >= threshold:
                out.append((i, j, sim))
    return out


def random_id_collection(rng, size, universe):
    return [frozenset(rng.sample(range(universe),
                                 rng.randint(0, 12)))
            for _ in range(size)]


def random_string_collection(rng, size):
    vocab = [f"kw{i}" for i in range(40)]
    return [frozenset(rng.sample(vocab, rng.randint(0, 8)))
            for _ in range(size)]


class TestRandomizedEquivalence:
    """Two-level == brute force, exactly, over random workloads."""

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_id_collections(self, threshold, seed):
        rng = random.Random(seed)
        left = random_id_collection(rng, 30, 60)
        right = random_id_collection(rng, 30, 60)
        stats = JoinStats()
        result = threshold_jaccard_join(left, right, threshold,
                                        stats=stats)
        assert result == brute_force(left, right, threshold)
        assert stats.verified_pairs <= stats.candidate_pairs
        assert stats.result_pairs == len(result)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("seed", [10, 11])
    def test_string_collections(self, threshold, seed):
        rng = random.Random(seed)
        left = random_string_collection(rng, 25)
        right = random_string_collection(rng, 25)
        assert threshold_jaccard_join(left, right, threshold) == \
            brute_force(left, right, threshold)

    @pytest.mark.parametrize("threshold", [0.3, 0.7])
    def test_two_level_matches_brute_force(self, threshold):
        rng = random.Random(99)
        left = random_id_collection(rng, 40, 50)
        right = random_id_collection(rng, 40, 50)
        stats = JoinStats()
        assert threshold_jaccard_join(left, right, threshold,
                                      stats=stats) == \
            brute_force(left, right, threshold)
        # Level 2 verifies only the candidates its checks keep.
        assert stats.verified_pairs == stats.candidate_pairs \
            - stats.length_rejected - stats.band_rejected
        assert stats.length_rejected + stats.band_rejected > 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 30), max_size=8),
                    max_size=12),
           st.lists(st.frozensets(st.integers(0, 30), max_size=8),
                    max_size=12),
           st.sampled_from(THRESHOLDS))
    def test_property_ids(self, left, right, threshold):
        assert threshold_jaccard_join(left, right, threshold) == \
            brute_force(left, right, threshold)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.frozensets(st.sampled_from("abcdefghijkl"),
                                  max_size=6), max_size=10),
           st.lists(st.frozensets(st.sampled_from("abcdefghijkl"),
                                  max_size=6), max_size=10),
           st.sampled_from(THRESHOLDS))
    def test_property_strings(self, left, right, threshold):
        assert threshold_jaccard_join(left, right, threshold) == \
            brute_force(left, right, threshold)


class TestAdversarialShapes:
    def test_empty_sets(self):
        left = [frozenset(), frozenset({1, 2})]
        right = [frozenset(), frozenset({1, 2, 3})]
        assert threshold_jaccard_join(left, right, 0.5) == \
            [(1, 1, pytest.approx(2 / 3))]

    def test_all_identical(self):
        sets = [frozenset({1, 2, 3})] * 5
        result = threshold_jaccard_join(sets, sets, 1.0)
        assert result == [(i, j, 1.0) for i in range(5)
                          for j in range(5)]

    def test_single_token_sets(self):
        left = [frozenset({7}), frozenset({8})]
        right = [frozenset({7}), frozenset({9})]
        assert threshold_jaccard_join(left, right, 1.0) == \
            [(0, 0, 1.0)]

    def test_threshold_one_rejects_near_misses(self):
        left = [frozenset({1, 2, 3, 4})]
        right = [frozenset({1, 2, 3})]
        assert threshold_jaccard_join(left, right, 1.0) == []

    def test_huge_token_ids_fall_back_to_frozensets(self):
        big = 1 << 40  # overflows array('I'); frozenset path
        left = [frozenset({big, big + 1})]
        right = [frozenset({big, big + 1, big + 2})]
        assert threshold_jaccard_join(left, right, 0.5) == \
            [(0, 0, pytest.approx(2 / 3))]


class TestOrderedPrefix:
    def test_matches_sorted_truncate_oracle(self):
        rng = random.Random(5)
        items = random_id_collection(rng, 50, 80)
        frequency = global_frequencies(items)
        for item in items:
            for threshold in THRESHOLDS:
                oracle = sorted(
                    item, key=lambda t: (frequency[t], t))
                result = ordered_prefix(item, frequency, threshold)
                if item:
                    assert result == \
                        oracle[:_prefix_length(len(item), threshold)]
                else:
                    assert result == []

    def test_rare_tokens_first(self):
        # Size 3 at threshold 0.5: prefix length 3 - ceil(1.5) + 1 = 2.
        frequency = Counter({1: 100, 2: 1, 3: 50})
        assert ordered_prefix(frozenset({1, 2, 3}), frequency,
                              0.5) == [2, 3]


class TestSortedBuffers:
    def test_as_sorted_buffer_ids(self):
        buf = as_sorted_buffer({5, 1, 3})
        assert isinstance(buf, array) and buf.typecode == "I"
        assert list(buf) == [1, 3, 5]

    def test_as_sorted_buffer_strings_is_none(self):
        assert as_sorted_buffer({"a", "b"}) is None

    @settings(max_examples=80, deadline=None)
    @given(st.frozensets(st.integers(0, 100), max_size=30),
           st.frozensets(st.integers(0, 100), max_size=30))
    def test_galloping_intersection(self, a, b):
        sa, sb = array("I", sorted(a)), array("I", sorted(b))
        assert intersection_size_sorted(sa, sb) == len(a & b)
        if a or b:
            assert verify_jaccard_sorted(sa, sb) == \
                len(a & b) / len(a | b)


class TestSignatureSafety:
    """The level-2 filter may only reject non-qualifying pairs."""

    @settings(max_examples=100, deadline=None)
    @given(st.frozensets(st.integers(0, 200), min_size=1,
                         max_size=25),
           st.frozensets(st.integers(0, 200), min_size=1,
                         max_size=25),
           st.sampled_from(THRESHOLDS))
    def test_never_rejects_qualifying_pairs(self, a, b, threshold):
        sim = len(a & b) / len(a | b)
        if sim >= threshold:
            assert signature_compatible(token_signature(a),
                                        token_signature(b), threshold)

    def test_rejection_counters(self):
        stats = JoinStats()
        # Length band: 1 vs 10 tokens at threshold 0.5.
        assert not signature_compatible(token_signature({1}),
                                        token_signature(set(range(10))),
                                        0.5, stats=stats)
        assert stats.length_rejected == 1
        # Checksum band: same sizes, disjoint bands.
        a = {0 * SIGNATURE_BANDS, 1 * SIGNATURE_BANDS}
        b = {5 * SIGNATURE_BANDS + 1, 6 * SIGNATURE_BANDS + 1}
        assert not signature_compatible(token_signature(a),
                                        token_signature(b),
                                        0.5, stats=stats)
        assert stats.band_rejected == 1

    def test_required_overlap_matches_definition(self):
        import math
        for sa in range(1, 12):
            for sb in range(1, 12):
                for threshold in THRESHOLDS:
                    exact = threshold * (sa + sb) / (1.0 + threshold)
                    assert required_overlap(sa, sb, threshold) == \
                        int(math.ceil(exact - 1e-9))


class TestWindowFrequencyTracker:
    def _recount(self, window_sets, new_sets):
        return global_frequencies(
            [s for sets in window_sets for s in sets], new_sets)

    def test_incremental_equals_recount_over_sliding_window(self):
        rng = random.Random(21)
        tracker = WindowFrequencyTracker()
        intervals = [random_id_collection(rng, 8, 30)
                     for _ in range(6)]
        window = []
        for m, new_sets in enumerate(intervals):
            window_sets = [sets for _, sets in window]
            incremental = tracker.frequencies(
                window, window_sets, new_sets, decoded=False)
            assert incremental == self._recount(window_sets, new_sets)
            window.append((tuple(range(m * 8, m * 8 + 8)),
                           new_sets))
            if len(window) > 2:  # gap + 1 = 2: evictions exercised
                window.pop(0)

    def test_representation_flip_resets(self):
        tracker = WindowFrequencyTracker()
        ids = [frozenset({1, 2})]
        strings = [frozenset({"a", "b"})]
        window = [((0,), ids)]
        assert tracker.frequencies(window, [ids], ids,
                                   decoded=False) == \
            Counter({1: 2, 2: 2})
        # Same window object, flipped to decoded strings: the cached
        # id counts must not leak through.
        str_window = [((0,), strings)]
        assert tracker.frequencies(str_window, [strings], strings,
                                   decoded=True) == \
            Counter({"a": 2, "b": 2})


class _Cluster:
    """Minimal window-join cluster: a bare keyword set."""

    def __init__(self, keywords):
        self.keywords = frozenset(keywords)


class TestTrackedWindowJoin:
    def _window(self, rng):
        window = []
        for m in range(3):
            clusters = [_Cluster(rng.sample(range(40),
                                            rng.randint(1, 8)))
                        for _ in range(10)]
            window.append((tuple((m, j) for j in range(10)),
                           clusters))
        new = [_Cluster(rng.sample(range(40), rng.randint(1, 8)))
               for _ in range(12)]
        return window, new

    def test_tracker_and_stats_thread_through(self, monkeypatch):
        monkeypatch.setattr("repro.affinity.windowjoin.SIMJOIN_CUTOFF",
                            0)
        rng = random.Random(34)
        window, new = self._window(rng)
        stats = JoinStats()
        tracked = window_affinity_edges(
            window, new, theta=0.2,
            frequency_tracker=WindowFrequencyTracker(),
            join_stats=stats)
        assert tracked == window_affinity_edges(window, new,
                                                theta=0.2)
        assert stats.candidate_pairs >= stats.verified_pairs
        assert stats.verified_pairs >= len(tracked)

    @staticmethod
    def _keyword_window(rng, intervals, interned):
        """A window of *intervals* intervals plus a new interval, as
        string-keyword or vocabulary-interned clusters."""
        words = [f"kw{i}" for i in range(120)]
        vocab = Vocabulary()
        vocab.intern_sorted(words)

        def cluster():
            picked = rng.sample(words, rng.randint(2, 8))
            if interned:
                return KeywordCluster(
                    tokens=tuple(sorted(vocab.id_of(w)
                                        for w in picked)),
                    vocab=vocab)
            return KeywordCluster(frozenset(picked))

        window = [(tuple((m, j) for j in range(25)),
                   [cluster() for _ in range(25)])
                  for m in range(intervals)]
        return window, [cluster() for _ in range(25)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("intervals", [1, 2, 3])
    @pytest.mark.parametrize("interned", [False, True],
                             ids=["strings", "interned"])
    def test_engaged_join_matches_all_pairs(self, interned, intervals,
                                            seed, monkeypatch):
        """With the join engaged on any window, every edge and weight
        equals the all-pairs loop's, for 1-3 window intervals."""
        monkeypatch.setattr("repro.affinity.windowjoin.SIMJOIN_CUTOFF",
                            0)
        window, new = self._keyword_window(random.Random(seed),
                                           intervals, interned)
        stats = JoinStats()
        edges = window_affinity_edges(window, new, theta=0.1,
                                      join_stats=stats)
        assert stats.candidate_pairs > 0  # the join really ran
        assert edges == _all_pairs(window, new, jaccard, 0.1)
        assert edges  # the inputs must share tokens


def _all_pairs(window, new, measure, theta):
    return [(node, b, measure(old, cluster))
            for node_ids, clusters in window
            for node, old in zip(node_ids, clusters)
            for b, cluster in enumerate(new)
            if measure(old, cluster) > theta]


class TestJoinEngagement:
    """The window join engages only for Jaccard, and only once the
    whole window's comparison count exceeds ``SIMJOIN_CUTOFF``²."""

    def _window(self, rng, sizes, new_size):
        window = [(tuple((m, j) for j in range(size)),
                   [_Cluster(rng.sample(range(60), rng.randint(1, 6)))
                    for _ in range(size)])
                  for m, size in enumerate(sizes)]
        new = [_Cluster(rng.sample(range(60), rng.randint(1, 6)))
               for _ in range(new_size)]
        return window, new

    def _run(self, sizes, new_size, measure=jaccard):
        window, new = self._window(random.Random(41), sizes, new_size)
        stats = JoinStats()
        edges = window_affinity_edges(window, new, measure=measure,
                                      theta=0.2, join_stats=stats)
        assert edges == _all_pairs(window, new, measure, 0.2)
        assert edges  # the inputs must share tokens
        return stats

    def test_at_the_cutoff_compares_all_pairs(self):
        assert self._run([SIMJOIN_CUTOFF], SIMJOIN_CUTOFF) == JoinStats()

    def test_past_the_cutoff_engages_the_join(self):
        stats = self._run([SIMJOIN_CUTOFF + 1], SIMJOIN_CUTOFF)
        assert stats.candidate_pairs > 0

    def test_cutoff_counts_the_whole_window(self):
        half = SIMJOIN_CUTOFF // 2 + 1
        stats = self._run([half, half], SIMJOIN_CUTOFF)
        assert stats.candidate_pairs > 0

    def test_other_measures_never_engage(self):
        stats = self._run([SIMJOIN_CUTOFF + 1], SIMJOIN_CUTOFF,
                          measure=dice)
        assert stats == JoinStats()

    def test_joins_exactly_only_for_jaccard(self):
        assert joins_exactly(jaccard)
        assert not joins_exactly(dice)


class TestClusterCachedForms:
    def test_token_buffer_interned(self):
        vocab = Vocabulary()
        vocab.intern_sorted(["a", "b", "c"])
        cluster = KeywordCluster(tokens=(0, 1, 2), vocab=vocab)
        buf = cluster.token_buffer
        assert isinstance(buf, array) and list(buf) == [0, 1, 2]
        assert cluster.token_buffer is buf  # cached

    def test_token_buffer_string_mode_is_none(self):
        assert KeywordCluster(
            keywords=frozenset({"a"})).token_buffer is None

    def test_signature_matches_join_signature(self):
        cluster = KeywordCluster(keywords=frozenset({"a", "b"}))
        assert cluster.signature == token_signature(("a", "b"))
        vocab = Vocabulary()
        vocab.intern_sorted(["x", "y"])
        interned = KeywordCluster(tokens=(0, 1), vocab=vocab)
        assert interned.signature == token_signature((0, 1))
        assert interned.signature is interned.signature  # cached
