"""Unit tests for Path and TopK primitives."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Path, TopK, edge_path
from repro.core.bfs import path_key


class TestPath:
    def test_edge_path(self):
        p = edge_path((0, 0), (1, 2), 0.5)
        assert p.length == 1
        assert p.num_edges == 1
        assert p.weight == 0.5
        assert p.start == (0, 0)
        assert p.end == (1, 2)

    def test_gap_edge_length(self):
        # An edge over a gap counts the skipped intervals.
        p = edge_path((0, 0), (2, 1), 0.9)
        assert p.length == 2
        assert p.num_edges == 1

    def test_append(self):
        p = edge_path((0, 0), (1, 0), 0.5).append((2, 3), 0.25)
        assert p.length == 2
        assert p.weight == pytest.approx(0.75)
        assert p.nodes == ((0, 0), (1, 0), (2, 3))

    def test_prepend(self):
        p = edge_path((1, 0), (2, 0), 0.5).prepend((0, 2), 0.3)
        assert p.nodes == ((0, 2), (1, 0), (2, 0))
        assert p.weight == pytest.approx(0.8)

    def test_stability(self):
        p = Path(weight=1.5, nodes=((0, 0), (1, 0), (3, 0)))
        assert p.stability == pytest.approx(0.5)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            Path(weight=0.0, nodes=((0, 0),))

    def test_non_increasing_intervals_rejected(self):
        with pytest.raises(ValueError):
            Path(weight=1.0, nodes=((1, 0), (1, 1)))
        with pytest.raises(ValueError):
            Path(weight=1.0, nodes=((2, 0), (1, 0)))

    def test_ordering_weight_first(self):
        light = Path(weight=0.1, nodes=((0, 0), (1, 0)))
        heavy = Path(weight=0.9, nodes=((0, 0), (1, 1)))
        assert light < heavy

    def test_ordering_nodes_tiebreak(self):
        a = Path(weight=0.5, nodes=((0, 0), (1, 0)))
        b = Path(weight=0.5, nodes=((0, 0), (1, 1)))
        assert a < b

    def test_is_suffix_of(self):
        long = Path(weight=1.0, nodes=((0, 0), (1, 0), (2, 0)))
        suffix = Path(weight=0.4, nodes=((1, 0), (2, 0)))
        other = Path(weight=0.4, nodes=((1, 1), (2, 0)))
        assert suffix.is_suffix_of(long)
        assert long.is_suffix_of(long)
        assert not other.is_suffix_of(long)
        assert not long.is_suffix_of(suffix)

    def test_str_rendering(self):
        p = edge_path((0, 1), (1, 2), 0.5)
        assert "c0.1" in str(p)
        assert "c1.2" in str(p)

    def test_hashable(self):
        p1 = edge_path((0, 0), (1, 0), 0.5)
        p2 = edge_path((0, 0), (1, 0), 0.5)
        assert hash(p1) == hash(p2)
        assert len({p1, p2}) == 1


class TestExtensionEqualsConstruction:
    """``append``/``prepend`` validate only the new end; what they
    return must be indistinguishable from a constructor-built path."""

    BASE = ((1, 4), (2, 0), (4, 7))

    def _pairs(self):
        base = Path(weight=0.75, nodes=self.BASE)
        yield (base.append((5, 2), 0.5),
               Path(weight=1.25, nodes=self.BASE + ((5, 2),)))
        yield (base.prepend((0, 9), 0.25),
               Path(weight=1.0, nodes=((0, 9),) + self.BASE))
        yield (base.append((6, 1), 0.5).prepend((0, 0), 0.25),
               Path(weight=1.5,
                    nodes=((0, 0),) + self.BASE + ((6, 1),)))

    def test_equal_hash_equal_and_order_equal(self):
        lighter = Path(weight=0.1, nodes=((0, 0), (1, 0)))
        for extended, built in self._pairs():
            assert extended == built and built == extended
            assert hash(extended) == hash(built)
            assert len({extended, built}) == 1
            assert not extended < built and not built < extended
            assert extended <= built and extended >= built
            assert lighter < extended and extended > lighter
            assert sorted([extended, lighter]) == [lighter, built]
            assert repr(extended) == repr(built)
            assert (extended.length, extended.num_edges) == \
                (built.length, built.num_edges)

    def test_pickle_round_trip(self):
        for extended, built in self._pairs():
            restored = pickle.loads(pickle.dumps(extended))
            assert restored == built
            assert hash(restored) == hash(built)
            assert pickle.dumps(extended) == pickle.dumps(built)
            # A restored path extends like any other.
            assert restored.append((9, 0), 0.5).end == (9, 0)

    def test_unchecked_constructor_is_the_same_object_shape(self):
        built = Path(weight=0.75, nodes=self.BASE)
        unchecked = Path.unchecked(0.75, self.BASE)
        assert unchecked == built and hash(unchecked) == hash(built)
        assert pickle.dumps(unchecked) == pickle.dumps(built)

    def test_stays_frozen(self):
        extended = edge_path((0, 0), (1, 0), 0.5).append((2, 0), 0.5)
        with pytest.raises(AttributeError):
            extended.weight = 2.0

    @pytest.mark.parametrize("node", [(4, 0), (3, 0), (0, 0)])
    def test_append_rejects_non_increasing_node(self, node):
        base = Path(weight=0.75, nodes=self.BASE)
        with pytest.raises(ValueError, match="strictly increase"):
            base.append(node, 0.5)

    @pytest.mark.parametrize("node", [(1, 0), (2, 0), (9, 0)])
    def test_prepend_rejects_non_decreasing_node(self, node):
        base = Path(weight=0.75, nodes=self.BASE)
        with pytest.raises(ValueError, match="strictly increase"):
            base.prepend(node, 0.5)

    def test_extension_error_is_the_constructors(self):
        base = Path(weight=0.75, nodes=self.BASE)
        with pytest.raises(ValueError) as extended:
            base.append((4, 1), 0.5)
        with pytest.raises(ValueError) as built:
            Path(weight=1.25, nodes=self.BASE + ((4, 1),))
        assert str(extended.value) == str(built.value)


class TestTopK:
    def test_keeps_best_k(self):
        heap = TopK(2)
        for value in [3, 1, 4, 1, 5]:
            heap.check(value)
        assert heap.items() == [5, 4]

    def test_not_full_accepts_anything(self):
        heap = TopK(3)
        assert heap.check(-100)
        assert heap.min_key() is None
        assert not heap.is_full

    def test_min_key_when_full(self):
        heap = TopK(2)
        heap.extend([5, 9])
        assert heap.min_key() == 5
        assert heap.is_full

    def test_rejects_below_min(self):
        heap = TopK(1)
        heap.check(10)
        assert not heap.check(3)
        assert heap.items() == [10]

    def test_duplicates_are_noops(self):
        heap = TopK(3)
        heap.check(7)
        assert not heap.check(7)
        assert heap.items() == [7]

    def test_membership(self):
        heap = TopK(2)
        heap.check(1)
        assert 1 in heap
        assert 2 not in heap

    def test_eviction_removes_membership(self):
        heap = TopK(1)
        heap.check(1)
        heap.check(2)
        assert 1 not in heap
        assert 2 in heap
        # The evicted item may be re-offered (and rejected on merit).
        assert not heap.check(1)

    def test_key_function(self):
        heap = TopK(2, key=len)
        heap.extend(["aaa", "a", "aa"])
        assert heap.items() == ["aaa", "aa"]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            TopK(0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers()), st.integers(min_value=1, max_value=6))
    def test_matches_sorted_truncation(self, values, k):
        heap = TopK(k)
        heap.extend(values)
        expected = sorted(set(values), reverse=True)[:k]
        assert heap.items() == expected

    def test_admits_is_a_safe_prefilter(self):
        """``admits(score)`` may only say no to what ``check`` would
        turn down; a tie on the score must be let through, because
        the tie-break can still win."""
        heap = TopK(2, key=path_key)
        assert heap.admits(-1.0)  # not full: anything can enter
        heap.extend([edge_path((0, 1), (1, 1), 0.5),
                     edge_path((0, 2), (1, 2), 0.75)])
        assert not heap.admits(0.25)
        assert heap.admits(0.5) and heap.admits(0.6)
        # Ties the minimum's weight; loses, then wins, on the nodes.
        assert not heap.check(edge_path((0, 0), (1, 0), 0.5))
        assert heap.check(edge_path((0, 3), (1, 3), 0.5))
        assert [p.start for p in heap.items()] == [(0, 2), (0, 3)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                              st.integers(0, 6), st.integers(0, 6)),
                    max_size=40),
           st.integers(min_value=1, max_value=6), st.randoms())
    def test_retained_set_ignores_offer_order(self, specs, k, rng):
        """The (weight, nodes) order is strict, so the k retained
        paths are the k largest offered — in any order, duplicates
        and weight ties included."""
        paths = [edge_path((0, a), (1, b), w) for w, a, b in specs]
        expected = sorted(set(paths), key=path_key, reverse=True)[:k]
        for _ in range(3):
            rng.shuffle(paths)
            heap = TopK(k, key=path_key)
            retained = [heap.check(path) for path in paths]
            assert heap.items() == expected
            assert sum(retained) >= len(expected)
            assert all(path in heap for path in expected)
            assert len(heap) == len(expected)
