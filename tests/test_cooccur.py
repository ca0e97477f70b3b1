"""Unit, integration and property tests for co-occurrence counting."""

import math
import tempfile
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cooccur import (
    MIN_SUPPORT,
    KeywordGraph,
    aggregate_sorted_pairs,
    count_pairs_external,
    count_pairs_in_memory,
    emit_pairs,
    write_pair_file,
)
from repro.cooccur.pairs import read_pair_file
from repro.cooccur.keyword_graph import PruneReport
from repro.graph.adjacency import Graph
from repro.stats import (
    CHI2_CRITICAL_95,
    chi_square,
    correlation_coefficient,
)

DOCS = [
    frozenset({"saddam", "hussein", "trial"}),
    frozenset({"saddam", "hussein"}),
    frozenset({"soccer", "beckham"}),
    frozenset({"saddam", "trial"}),
]


class TestEmitPairs:
    def test_self_pairs_count_unary(self):
        pairs = list(emit_pairs([frozenset({"b", "a"})]))
        assert ("a", "a") in pairs
        assert ("b", "b") in pairs

    def test_cross_pairs_canonical_order(self):
        pairs = list(emit_pairs([frozenset({"b", "a"})]))
        assert ("a", "b") in pairs
        assert ("b", "a") not in pairs

    def test_pair_multiplicity_equals_document_count(self):
        pairs = list(emit_pairs(DOCS))
        assert pairs.count(("hussein", "saddam")) == 2
        assert pairs.count(("saddam", "saddam")) == 3

    def test_empty_document_emits_nothing(self):
        assert list(emit_pairs([frozenset()])) == []

    def test_singleton_document_emits_only_self_pair(self):
        assert list(emit_pairs([frozenset({"x"})])) == [("x", "x")]


class TestPairFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "pairs.tsv")
        count = write_pair_file(DOCS, path)
        pairs = list(read_pair_file(path))
        assert len(pairs) == count
        assert sorted(pairs) == sorted(emit_pairs(DOCS))

    def test_roundtrip_across_write_buffer_boundary(self, tmp_path):
        # One 140-keyword document emits 140 + C(140, 2) = 9870 pairs,
        # past the writelines chunk size, so both the flushed chunks
        # and the final partial chunk are exercised.
        big = [frozenset(f"kw{i:03d}" for i in range(140))]
        path = str(tmp_path / "big-pairs.tsv")
        count = write_pair_file(big, path)
        assert count == 140 + (140 * 139) // 2
        assert list(read_pair_file(path)) == list(emit_pairs(big))


class TestAggregation:
    def test_sorted_aggregation(self):
        pairs = sorted(emit_pairs(DOCS))
        triplets = {(u, v): c for u, v, c in aggregate_sorted_pairs(pairs)}
        assert triplets[("hussein", "saddam")] == 2
        assert triplets[("saddam", "trial")] == 2
        assert triplets[("saddam", "saddam")] == 3
        assert triplets[("beckham", "soccer")] == 1

    def test_external_matches_in_memory(self, tmp_path):
        external = {(u, v): c for u, v, c in count_pairs_external(
            DOCS, max_records=5, directory=str(tmp_path))}
        in_memory = count_pairs_in_memory(DOCS)
        assert external == in_memory

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.frozensets(st.sampled_from("abcdefgh"), max_size=6),
        max_size=12))
    def test_external_equals_memory_property(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            external = {(u, v): c for u, v, c in count_pairs_external(
                docs, max_records=3, directory=tmp)}
        assert external == count_pairs_in_memory(docs)


class TestKeywordGraph:
    def test_from_keyword_sets_counts(self):
        graph = KeywordGraph.from_keyword_sets(DOCS, min_support=0)
        assert graph.num_documents == 4
        assert graph.count("saddam") == 3
        assert graph.count("beckham") == 1
        assert graph.pair_count("saddam", "hussein") == 2
        assert graph.pair_count("hussein", "saddam") == 2
        assert graph.pair_count("saddam", "saddam") == 3
        assert graph.pair_count("saddam", "beckham") == 0

    def test_external_build_matches_memory_build(self, tmp_path):
        mem = KeywordGraph.from_keyword_sets(DOCS, min_support=0)
        ext = KeywordGraph.from_keyword_sets(
            DOCS, external=True, directory=str(tmp_path), max_records=4,
            min_support=0)
        assert ext.num_documents == mem.num_documents
        assert sorted(ext.edges()) == sorted(mem.edges())
        assert {k: ext.count(k) for k in ext.keywords()} == \
               {k: mem.count(k) for k in mem.keywords()}

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            KeywordGraph.from_keyword_sets([])

    def test_bad_triplet_count_rejected(self):
        with pytest.raises(ValueError):
            KeywordGraph.from_triplets([("a", "b", 0)], num_documents=5)

    def test_num_keywords_and_edges(self):
        graph = KeywordGraph.from_keyword_sets(DOCS, min_support=0)
        assert graph.num_keywords == 5
        # Edges: saddam-hussein, saddam-trial, hussein-trial,
        # soccer-beckham.
        assert graph.num_edges == 4

    def test_statistics_accessible_per_edge(self):
        graph = KeywordGraph.from_keyword_sets(DOCS, min_support=0)
        assert graph.chi_square("saddam", "hussein") > 0
        assert graph.correlation("saddam", "hussein") > 0
        assert graph.correlation("saddam", "beckham") < 0


class TestPrune:
    def test_correlated_edges_survive(self):
        # 10 documents where {a, b} always co-occur and c floats alone.
        docs = [frozenset({"a", "b"}) for _ in range(5)]
        docs += [frozenset({"c"}) for _ in range(5)]
        graph = KeywordGraph.from_keyword_sets(docs)
        pruned = graph.prune()
        assert pruned.has_edge("a", "b")
        assert pruned.weight("a", "b") == pytest.approx(1.0)

    def test_incidental_cooccurrence_pruned(self):
        # a and b appear in half the docs each, together only ~expected.
        docs = []
        for i in range(40):
            kws = set()
            if i % 2 == 0:
                kws.add("a")
            if i % 4 < 2:
                kws.add("b")
            kws.add(f"filler{i}")
            docs.append(frozenset(kws))
        graph = KeywordGraph.from_keyword_sets(docs)
        pruned = graph.prune()
        assert not pruned.has_edge("a", "b")

    def test_report_stages_monotone(self):
        docs = [frozenset({"a", "b", "c"}) for _ in range(3)]
        docs += [frozenset({"a", "x"}), frozenset({"b", "y"}),
                 frozenset({"c"}), frozenset({"x", "y"})]
        graph = KeywordGraph.from_keyword_sets(docs, min_support=0)
        report = PruneReport()
        graph.prune(report=report)
        assert report.total_edges >= report.after_chi2 >= report.after_rho

    def test_higher_rho_prunes_more(self):
        docs = []
        for i in range(60):
            kws = {f"bg{i % 7}"}
            if i % 3 == 0:
                kws |= {"u", "v"}
            if i % 3 == 1:
                kws.add("u")
            docs.append(frozenset(kws))
        graph = KeywordGraph.from_keyword_sets(docs)
        loose = graph.prune(rho_threshold=0.1)
        tight = graph.prune(rho_threshold=0.9)
        assert tight.num_edges <= loose.num_edges

    def test_pruned_weights_are_rho(self):
        docs = [frozenset({"a", "b"})] * 4 + [frozenset({"a"})] * 2 \
            + [frozenset({"z"})] * 4
        graph = KeywordGraph.from_keyword_sets(docs)
        pruned = graph.prune(rho_threshold=0.2)
        if pruned.has_edge("a", "b"):
            assert pruned.weight("a", "b") == pytest.approx(
                graph.correlation("a", "b"))


# ----------------------------------------------------------------------
# Differential tests: the Section-3 kernel against its references
# ----------------------------------------------------------------------


def _reference_prune(graph, rho_threshold=0.2,
                     chi2_critical=CHI2_CRITICAL_95, min_support=5):
    """The paper's prune, one ``repro.stats`` call per edge and test —
    the loop ``KeywordGraph.prune`` must stay bit-identical to."""
    n = graph.num_documents
    report = PruneReport()
    pruned = Graph()
    for u, v, a_uv in graph.edges():
        report.total_edges += 1
        a_u, a_v = graph.count(u), graph.count(v)
        if min(a_u, a_v) < min_support:
            continue
        if chi_square(a_u, a_v, a_uv, n) <= chi2_critical:
            continue
        report.after_chi2 += 1
        rho = correlation_coefficient(a_u, a_v, a_uv, n)
        if rho <= rho_threshold:
            continue
        report.after_rho += 1
        pruned.add_edge(u, v, weight=rho)
    return pruned, report


def _adjacency(graph):
    """Vertices, neighbours and weights in insertion order; weights
    compare with ``==``, so a last-bit difference fails."""
    return [(v, [(w, graph.weight(v, w)) for w in graph.neighbors(v)])
            for v in graph.vertices()]


def _assert_prune_matches_reference(graph, **thresholds):
    report = PruneReport()
    pruned = graph.prune(report=report, **thresholds)
    expected, expected_report = _reference_prune(graph, **thresholds)
    assert report == expected_report
    assert _adjacency(pruned) == _adjacency(expected)


def _closed_form_chi2(a_u, a_v, a_uv, n):
    d = n * a_uv - a_u * a_v
    return n * d * d / (a_u * a_v * (n - a_u) * (n - a_v))


@st.composite
def _count_graphs(draw):
    """A ``from_triplets`` graph over consistent ``(A(u), A(v),
    A(u,v), n)`` counts, marginals of ``n`` (degenerate) included."""
    n = draw(st.integers(2, 10 ** 6))
    marginals = draw(st.lists(st.integers(1, n), min_size=2,
                              max_size=7))
    triplets = [(i, i, a) for i, a in enumerate(marginals)]
    for i, a_u in enumerate(marginals):
        for j in range(i + 1, len(marginals)):
            a_v = marginals[j]
            low = max(1, a_u + a_v - n)
            if draw(st.booleans()):
                triplets.append((i, j, draw(
                    st.integers(low, min(a_u, a_v)))))
    draw(st.randoms(use_true_random=False)).shuffle(triplets)
    return KeywordGraph.from_triplets(triplets, num_documents=n)


_THRESHOLDS = dict(
    rho_threshold=st.one_of(st.just(0.2), st.floats(-1.0, 1.0)),
    chi2_critical=st.one_of(
        st.sampled_from([CHI2_CRITICAL_95, 0.0, -1.0, 6.63,
                         math.inf, -math.inf, math.nan]),
        st.floats(0.0, 50.0), st.floats(0.0, 1e-6)),
    min_support=st.integers(0, 6),
)


class TestPruneMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 9), max_size=6),
                    min_size=1, max_size=40),
           st.fixed_dictionaries(_THRESHOLDS))
    def test_document_graphs(self, docs, thresholds):
        """Counted graphs (always consistent; a keyword in every
        document is degenerate) under arbitrary thresholds."""
        _assert_prune_matches_reference(
            KeywordGraph.from_keyword_sets(docs, min_support=0),
            **thresholds)

    @settings(max_examples=150, deadline=None)
    @given(_count_graphs(), st.fixed_dictionaries(_THRESHOLDS))
    def test_count_graphs(self, graph, thresholds):
        _assert_prune_matches_reference(graph, **thresholds)

    @settings(max_examples=300, deadline=None)
    @given(_count_graphs(), st.data())
    def test_critical_value_inside_and_around_the_guard_band(
            self, graph, data):
        """Put ``chi2_critical`` on, a few ulps off, and just inside
        and outside the 1e-9 band around one edge's own statistic:
        wherever the closed form and the four-cell sum could disagree
        in the last bits, the reference must be the one deciding."""
        n = graph.num_documents
        edges = [(graph.count(u), graph.count(v), a_uv)
                 for u, v, a_uv in graph.edges()
                 if graph.count(u) < n and graph.count(v) < n]
        assume(edges)
        a_u, a_v, a_uv = data.draw(st.sampled_from(edges))
        centre = data.draw(st.sampled_from([
            _closed_form_chi2(a_u, a_v, a_uv, n),
            chi_square(a_u, a_v, a_uv, n)]))
        assume(centre > 0)
        nudge = data.draw(st.one_of(
            st.integers(-8, 8).map(lambda ulps: ("ulps", ulps)),
            st.sampled_from([-3e-9, -2e-9, -1.5e-9, -9e-10, -5e-10,
                             -1e-12, 1e-12, 5e-10, 9e-10, 1.5e-9,
                             2e-9, 3e-9]).map(
                lambda rel: ("relative", rel))))
        if nudge[0] == "ulps":
            critical = centre
            for _ in range(abs(nudge[1])):
                critical = math.nextafter(
                    critical, math.copysign(math.inf, nudge[1]))
        else:
            critical = centre * (1.0 + nudge[1])
        _assert_prune_matches_reference(
            graph, chi2_critical=critical, min_support=0,
            rho_threshold=data.draw(st.sampled_from([0.2, -1.0])))

    def test_negative_correlation_passes_chi2_and_fails_rho(self):
        """u and v avoid each other: strongly significant, ρ < 0."""
        graph = KeywordGraph.from_triplets(
            [("u", "u", 50), ("v", "v", 50), ("u", "v", 5)],
            num_documents=100)
        assert graph.chi_square("u", "v") > CHI2_CRITICAL_95
        assert graph.correlation("u", "v") < 0
        report = PruneReport()
        pruned = graph.prune(report=report)
        assert (report.total_edges, report.after_chi2,
                report.after_rho) == (1, 1, 0)
        assert pruned.num_edges == 0
        _assert_prune_matches_reference(graph)
        # ... and survives once the threshold admits it.
        _assert_prune_matches_reference(graph, rho_threshold=-1.0)
        assert graph.prune(rho_threshold=-1.0).weight("u", "v") == \
            correlation_coefficient(50, 50, 5, 100)


class TestPruneEdgeCases:
    def test_min_support_zero_with_degenerate_marginals(self):
        """A(u) = n and a never-counted endpoint (A(u) = 0) make the
        closed form divide by zero; the reference scores A(u) = n 0.0
        and rejects A(u,v) > A(u) = 0."""
        everywhere = KeywordGraph.from_keyword_sets(
            [frozenset({"the", "a"}), frozenset({"the", "b"}),
             frozenset({"the", "a", "b"})], min_support=0)
        assert everywhere.count("the") == everywhere.num_documents
        report = PruneReport()
        pruned = everywhere.prune(min_support=0, report=report)
        assert pruned.num_edges == 0 and report.after_chi2 == 0
        _assert_prune_matches_reference(everywhere, min_support=0)
        # A negative critical value admits the 0.0 score; ρ is 0.0.
        _assert_prune_matches_reference(
            everywhere, min_support=0, chi2_critical=-1.0,
            rho_threshold=-0.5)
        assert everywhere.prune(
            min_support=0, chi2_critical=-1.0,
            rho_threshold=-0.5).weight("the", "a") == 0.0

        uncounted = KeywordGraph.from_triplets(
            [("a", "a", 3), ("a", "ghost", 2)], num_documents=10)
        assert uncounted.prune().num_edges == 0  # below support
        with pytest.raises(ValueError) as raised:
            uncounted.prune(min_support=0)
        with pytest.raises(ValueError) as expected:
            chi_square(3, 0, 2, 10)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("a_u, a_v, a_uv, n", [
        (6, 7, 9, 20),     # A(u,v) > min(A(u), A(v))
        (25, 7, 6, 20),    # one marginal > n
        (25, 30, 22, 20),  # both marginals > n: closed form positive
        (15, 14, 6, 20),   # union > n
    ])
    def test_inconsistent_triplets_raise_like_the_reference(
            self, a_u, a_v, a_uv, n):
        graph = KeywordGraph.from_triplets(
            [("u", "u", a_u), ("v", "v", a_v), ("u", "v", a_uv)],
            num_documents=n)
        with pytest.raises(ValueError) as expected:
            chi_square(a_u, a_v, a_uv, n)
        with pytest.raises(ValueError) as raised:
            graph.prune()
        assert str(raised.value) == str(expected.value)
        # Below the support threshold the edge is skipped before
        # either statistic is evaluated, exactly as before.
        report = PruneReport()
        assert graph.prune(min_support=40, report=report) \
            .num_edges == 0
        assert (report.total_edges, report.after_chi2) == (1, 0)


def _legacy_build(keyword_sets):
    """The build ``from_keyword_sets`` replaced: hash-aggregate the
    emitted pair stream, then re-hash it through ``from_triplets``."""
    counts = Counter(emit_pairs(keyword_sets))
    return KeywordGraph.from_triplets(
        ((u, v, c) for (u, v), c in counts.items()),
        num_documents=len(keyword_sets))


_ID_DOCS = st.lists(st.frozensets(st.integers(0, 30), max_size=7),
                    min_size=1, max_size=25)
_STR_DOCS = st.lists(
    st.frozensets(st.sampled_from("abcdefghij"), max_size=6),
    min_size=1, max_size=25)


class TestCountMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_ID_DOCS, _STR_DOCS))
    def test_same_counts_in_the_same_order(self, docs):
        """Insertion order is first occurrence in the emitted stream;
        it fixes G' adjacency order and hence cluster order.  (The
        external build inserts in sort order — same counts.)"""
        graph = KeywordGraph.from_keyword_sets(docs, min_support=0)
        legacy = _legacy_build(docs)
        assert graph.num_documents == legacy.num_documents
        assert list(graph.keywords()) == list(legacy.keywords())
        assert [graph.count(k) for k in graph.keywords()] == \
            [legacy.count(k) for k in legacy.keywords()]
        assert list(graph.edges()) == list(legacy.edges())
        with tempfile.TemporaryDirectory() as tmp:
            external = KeywordGraph.from_keyword_sets(
                docs, external=True, directory=tmp, max_records=7,
                min_support=0)
        assert sorted(external.keywords()) == sorted(graph.keywords())
        assert [external.count(k) for k in sorted(graph.keywords())] \
            == [graph.count(k) for k in sorted(graph.keywords())]
        assert sorted(external.edges()) == sorted(graph.edges())
        assert _adjacency(graph.prune(min_support=1)) == \
            _adjacency(legacy.prune(min_support=1))

    def test_empty_documents_count_towards_n_only(self):
        docs = [frozenset(), frozenset({"b", "a"}), frozenset(),
                frozenset({"a"}), frozenset({"c", "b", "a"})]
        graph = KeywordGraph.from_keyword_sets(docs, min_support=0)
        assert graph.num_documents == 5
        assert list(graph.keywords()) == ["a", "b", "c"]
        assert list(graph.edges()) == [
            ("a", "b", 2), ("a", "c", 1), ("b", "c", 1)]
        assert list(graph.edges()) == list(_legacy_build(docs).edges())
        only_empty = KeywordGraph.from_keyword_sets([frozenset()] * 3,
                                                    min_support=0)
        assert (only_empty.num_documents, only_empty.num_keywords,
                only_empty.num_edges) == (3, 0, 0)
        assert only_empty.prune().num_edges == 0


_FLOOR_DOCS = st.one_of(
    st.lists(st.frozensets(st.integers(0, 12), max_size=7),
             min_size=1, max_size=40),
    st.lists(st.frozensets(st.sampled_from("abcdefghijkl"), max_size=7),
             min_size=1, max_size=40))


class TestSupportFloor:
    """The build counts only pairs of keywords at or above the floor;
    pruning at any support >= the floor cannot tell."""

    @settings(max_examples=150, deadline=None)
    @given(_FLOOR_DOCS, st.sampled_from([0, 1, 2, 3, 5]),
           st.integers(0, 6), st.fixed_dictionaries(dict(
               rho_threshold=st.sampled_from([0.2, 0.0, -1.0]),
               chi2_critical=st.sampled_from([CHI2_CRITICAL_95, 0.0]))))
    @example([frozenset({"a", "b"})] * 5 + [frozenset({"a", "c"})] * 2,
             5, 5, {}).via("a pair exactly at the floor")
    def test_floored_prune_equals_full_prune(self, docs, floor, support,
                                             thresholds):
        support = max(support, floor)
        full = KeywordGraph.from_keyword_sets(docs, min_support=0)
        floored = KeywordGraph.from_keyword_sets(docs, min_support=floor)
        assert list(floored.keywords()) == list(full.keywords())
        assert list(floored.edges()) == [
            (u, v, c) for u, v, c in full.edges()
            if min(full.count(u), full.count(v)) >= floor]
        full_report, floored_report = PruneReport(), PruneReport()
        expected = full.prune(min_support=support, report=full_report,
                              **thresholds)
        pruned = floored.prune(min_support=support,
                               report=floored_report, **thresholds)
        assert _adjacency(pruned) == _adjacency(expected)
        assert (floored_report.after_chi2, floored_report.after_rho) \
            == (full_report.after_chi2, full_report.after_rho)
        assert floored_report.total_edges == floored.num_edges

    @settings(max_examples=60, deadline=None)
    @given(_FLOOR_DOCS, st.sampled_from([0, 1, 2, 5]))
    def test_external_equals_in_memory_at_every_floor(self, docs, floor):
        memory = KeywordGraph.from_keyword_sets(docs, min_support=floor)
        with tempfile.TemporaryDirectory() as tmp:
            external = KeywordGraph.from_keyword_sets(
                docs, external=True, directory=tmp, max_records=5,
                min_support=floor)
        assert external.min_support == memory.min_support
        assert sorted(external.edges()) == sorted(memory.edges())
        assert {k: external.count(k) for k in external.keywords()} == \
            {k: memory.count(k) for k in memory.keywords()}

    def test_default_floor_is_the_prune_default(self):
        # a in 7 documents, b in exactly 5 (the floor), rare in 4.
        docs = [frozenset({"a", "b", "rare"})] * 4 \
            + [frozenset({"a", "b"}), frozenset({"a"}), frozenset({"a"})] \
            + [frozenset({"z"})] * 3
        graph = KeywordGraph.from_keyword_sets(docs)
        assert graph.min_support == MIN_SUPPORT == 5
        assert list(graph.edges()) == [("a", "b", 5)]
        assert _adjacency(graph.prune()) == _adjacency(
            KeywordGraph.from_keyword_sets(docs, min_support=0).prune())

    def test_floor_of_one_keeps_every_pair(self):
        graph = KeywordGraph.from_keyword_sets(DOCS, min_support=1)
        assert graph.min_support == 0
        full = KeywordGraph.from_keyword_sets(DOCS, min_support=0)
        assert list(graph.edges()) == list(full.edges())
        assert _adjacency(graph.prune(min_support=0)) == \
            _adjacency(full.prune(min_support=0))

    def test_prune_below_the_floor_raises(self):
        graph = KeywordGraph.from_keyword_sets(DOCS * 2, min_support=3)
        for support in (0, 1, 2):
            with pytest.raises(ValueError, match="support floor 3"):
                graph.prune(min_support=support)
        graph.prune(min_support=3)
        graph.prune(min_support=4)

    def test_uncounted_pair_raises_and_never_reads_zero(self):
        # saddam 6, hussein 4, trial 4, soccer/beckham 2 documents.
        graph = KeywordGraph.from_keyword_sets(DOCS * 2, min_support=4)
        assert graph.pair_count("saddam", "hussein") == 4
        assert graph.pair_count("saddam", "saddam") == 6
        assert graph.pair_count("hussein", "trial") == 2
        for u, v in [("saddam", "beckham"), ("beckham", "soccer"),
                     ("soccer", "trial")]:
            for query in (graph.pair_count, graph.chi_square,
                          graph.correlation):
                with pytest.raises(ValueError, match="support floor"):
                    query(u, v)
        # A keyword that never occurs co-occurs with nothing.
        assert graph.pair_count("saddam", "ghost") == 0
        assert graph.pair_count("ghost", "beckham") == 0

    def test_in_memory_oracle_stays_unfloored(self):
        assert count_pairs_in_memory(DOCS)[("beckham", "soccer")] == 1


class TestHeapRetention:
    def test_first_count_pins_the_malloc_thresholds(self):
        """Once the kernel has run, a block far above glibc's default
        128 KiB mmap threshold is carved from the heap (and goes back
        to it, not to the kernel): the count of mmapped blocks does
        not move while it is alive."""
        import ctypes

        libc = ctypes.CDLL(None)
        if not hasattr(libc, "mallopt") \
                or not hasattr(libc, "mallinfo2"):
            pytest.skip("not glibc >= 2.33")

        class MallInfo(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd",
                "usmblks", "fsmblks", "uordblks", "fordblks",
                "keepcost")]

        libc.mallinfo2.restype = MallInfo
        count_pairs_in_memory([frozenset({1, 2, 3})])
        count_pairs_in_memory([frozenset({1, 2})])  # pinned only once
        before = libc.mallinfo2().hblks
        block = bytearray(3 << 20)
        assert libc.mallinfo2().hblks == before
        del block
