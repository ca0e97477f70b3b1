"""Tests for the streaming ingestion subsystem (repro.streaming).

The load-bearing property: replaying a corpus interval by interval
through :class:`StreamingDocumentPipeline` produces *exactly* the
paths the batch pipeline computes over the whole corpus — for both
problems, with and without gaps, on every ``StateStore`` backend —
while store and window state stay bounded by ``gap + 1`` intervals.
"""

import io
import json

import pytest

from repro.affinity import (
    intersection_size,
    jaccard,
    window_affinity_edges,
)
from repro.core.online import StreamingAffinityPipeline
from repro.engine import GraphStats, StableQuery, plan_streaming
from repro.graph import KeywordCluster
from repro.pipeline import find_stable_clusters
from repro.storage import DiskDict, MemoryStore, ShardedStore
from repro.streaming import (
    StreamingDocumentPipeline,
    interval_batches,
    read_interval_batches,
    read_jsonl_documents,
)
from repro.text.documents import Document, IntervalCorpus

TOPICS = [
    ["somalia", "mogadishu", "islamist", "ethiopian", "kamboni"],
    ["liverpool", "arsenal", "anfield", "goal", "cup"],
    ["apple", "iphone", "keynote", "touchscreen", "cisco"],
]


def synthetic_corpus(m: int = 5, seed: int = 7) -> IntervalCorpus:
    """Scripted events over *m* intervals with per-interval noise.

    Topic t skips interval i when (i + t) % 4 == 3, so gap tolerance
    actually matters; noise docs vary per interval deterministically.
    """
    corpus = IntervalCorpus()
    doc = 0
    for interval in range(m):
        for t, words in enumerate(TOPICS):
            if (interval + t) % 4 == 3:
                continue
            for _ in range(12):
                corpus.add_text(f"e{doc}", interval, " ".join(words))
                doc += 1
        for i in range(6):
            corpus.add_text(
                f"b{doc}", interval,
                f"filler{i} noise{(interval * 7 + i * seed) % 9} "
                f"pad{i}")
            doc += 1
    return corpus


def open_backend(name: str, tmp_path):
    if name == "memory":
        return MemoryStore()
    if name == "disk":
        return DiskDict(str(tmp_path / "state.bin"))
    return ShardedStore(str(tmp_path / "shards"), num_shards=3)


class TestStreamingBatchEquivalence:
    @pytest.mark.parametrize("backend", ["memory", "disk", "sharded"])
    @pytest.mark.parametrize("gap", [0, 1])
    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    def test_document_pipeline_matches_batch(self, problem, gap,
                                             backend, tmp_path):
        corpus = synthetic_corpus(m=5)
        batch = find_stable_clusters(corpus, l=2, k=4, gap=gap,
                                     problem=problem)
        with open_backend(backend, tmp_path) as store:
            pipeline = StreamingDocumentPipeline(
                l=2, k=4, gap=gap, problem=problem, store=store)
            for interval in corpus.interval_indices:
                pipeline.add_documents(corpus.documents(interval))
            streamed = pipeline.top_k()
            # Bounded memory: state for at most gap + 1 intervals.
            stored_intervals = {node[0] for node in store}
            assert len(stored_intervals) <= gap + 1
        assert [(p.weight, p.nodes) for p in streamed] == \
            [(p.weight, p.nodes) for p in batch.paths]

    def test_equivalence_survives_empty_interval(self):
        corpus = synthetic_corpus(m=5)
        corpus.intervals[2] = []  # a silent day
        batch = find_stable_clusters(corpus, l=2, k=3, gap=1,
                                     problem="kl")
        pipeline = StreamingDocumentPipeline(l=2, k=3, gap=1)
        for interval in range(5):
            pipeline.add_documents(corpus.documents(interval))
        assert [(p.weight, p.nodes) for p in pipeline.top_k()] == \
            [(p.weight, p.nodes) for p in batch.paths]


class TestBoundedEviction:
    def test_store_bounded_on_long_stream(self):
        """After N >> gap intervals, the store holds node state for at
        most gap + 1 intervals (the acceptance criterion)."""
        gap, n_intervals = 1, 20
        store = MemoryStore()
        pipeline = StreamingAffinityPipeline(l=2, k=3, gap=gap,
                                             store=store)
        for interval in range(n_intervals):
            clusters = [KeywordCluster(frozenset(
                [f"a{interval}", f"b{j}", "shared", "story"]))
                for j in range(4)]
            pipeline.add_interval(clusters)
            assert len(store) <= (gap + 1) * 4
            assert {node[0] for node in store} <= \
                set(range(interval - gap, interval + 1))

    @pytest.mark.parametrize("mode", ["kl", "normalized"])
    def test_disk_store_keys_evicted(self, mode, tmp_path):
        store = DiskDict(str(tmp_path / "state.bin"))
        pipeline = StreamingAffinityPipeline(l=2, k=2, gap=0,
                                             mode=mode, store=store)
        for interval in range(10):
            pipeline.add_interval([KeywordCluster(frozenset(
                ["persistent", "topic", f"drift{interval % 2}"]))])
        assert {node[0] for node in store} == {9}
        store.close()

    def test_disk_store_file_compacted(self, tmp_path):
        """Key eviction alone leaves dead bytes in an append-only
        file; the streaming maintainer must compact so the state
        *file* stays bounded too."""
        store = DiskDict(str(tmp_path / "state.bin"))
        pipe = StreamingAffinityPipeline(l=2, k=2, gap=0, store=store)
        pipe.stream.compact_garbage_bytes = 2048  # tiny, force it
        for interval in range(40):
            pipe.add_interval([KeywordCluster(frozenset(
                ["persistent", "topic", f"k{j}", f"d{interval % 3}"]))
                for j in range(6)])
        assert store.garbage_bytes <= 2048 + store.file_bytes // 2
        # The file holds ~1 interval of live records plus bounded
        # garbage — nowhere near 40 intervals of appends.
        live_bytes = store.file_bytes - store.garbage_bytes
        assert store.file_bytes < 20 * max(1, live_bytes)
        store.close()

    def test_normalized_edge_weights_pruned(self):
        """The normalized engine's recorded edge weights must not grow
        with stream length (only window-referenced edges survive)."""
        pipeline = StreamingAffinityPipeline(l=2, k=2, gap=0,
                                             mode="normalized")
        sizes = []
        for interval in range(16):
            pipeline.add_interval([KeywordCluster(frozenset(
                ["persistent", "topic", f"drift{interval % 2}"]))])
            sizes.append(len(pipeline.stream._engine._edge_weights))
        # Steady state: the count stops growing well before the end.
        assert sizes[-1] == sizes[8]


class TestWeightSemantics:
    def _clusters(self, *keyword_sets):
        return [KeywordCluster(frozenset(kws)) for kws in keyword_sets]

    def test_unbounded_measure_raises(self):
        pipe = StreamingAffinityPipeline(l=1, k=1,
                                         affinity=intersection_size)
        pipe.add_interval(self._clusters(("a", "b")))
        with pytest.raises(ValueError, match="renormalize"):
            pipe.add_interval(self._clusters(("a", "b")))

    def test_rejected_interval_is_not_ingested(self):
        """The bound is checked before the stream advances, so a
        rejected interval leaves neither a node nor a window entry."""
        pipe = StreamingAffinityPipeline(l=1, k=1,
                                         affinity=intersection_size)
        pipe.add_interval(self._clusters(("a", "b")))
        with pytest.raises(ValueError, match="renormalize"):
            pipe.add_interval(self._clusters(("a", "b")))
        assert pipe.stream.num_intervals == 1
        assert pipe.add_interval(self._clusters(("z",))) == [(1, 0)]

    def test_unbounded_measure_passes_while_weights_fit(self):
        """The stream checks the weights it sees, not the measure's
        name: an intersection of one keyword is a weight of 1.0."""
        pipe = StreamingAffinityPipeline(l=1, k=1,
                                         affinity=intersection_size)
        pipe.add_interval(self._clusters(("a", "b")))
        pipe.add_interval(self._clusters(("a", "c")))
        assert [p.weight for p in pipe.top_k()] == [1.0]

    def test_float_slop_clamped_like_batch(self):
        """Weights a hair above 1.0 are clamped, not rejected — the
        batch graph's EPSILON tolerance (unified semantics)."""
        from repro.core.online import StreamingStableClusters
        stream = StreamingStableClusters(l=1, k=1)
        stream.add_interval(1, [])
        stream.add_interval(1, [((0, 0), 0, 1.0 + 1e-13)])
        assert stream.top_k()[0].weight == 1.0

    def test_window_join_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            window_affinity_edges([], self._clusters(("a",)),
                                  theta=0.0)

    def test_window_join_matches_direct_measure(self):
        old = self._clusters(("a", "b", "c"), ("x", "y"))
        new = self._clusters(("a", "b", "z"), ("x", "q"))
        window = [([(0, 0), (0, 1)], old)]
        edges = window_affinity_edges(window, new, theta=0.1)
        assert edges == [((0, 0), 0, jaccard(old[0], new[0])),
                         ((0, 1), 1, jaccard(old[1], new[1]))]


class TestStoreHonoured:
    """Satellite bugfixes: no silently dropped backends."""

    def test_normalized_mode_honours_store(self):
        from repro.core.online import StreamingStableClusters
        store = MemoryStore()
        stream = StreamingStableClusters(l=1, k=1, mode="normalized",
                                         store=store)
        stream.add_interval(2, [])
        assert len(store) == 2

    def test_from_query_honours_store_both_modes(self):
        from repro.core.online import StreamingStableClusters
        for problem in ("kl", "normalized"):
            store = MemoryStore()
            query = StableQuery(problem=problem, l=2, k=3)
            stream = StreamingStableClusters.from_query(query,
                                                        store=store)
            stream.add_interval(1, [])
            assert len(store) == 1, problem

    def test_affinity_pipeline_forwards_store(self):
        store = MemoryStore()
        pipe = StreamingAffinityPipeline(l=1, k=1, store=store)
        pipe.add_interval([KeywordCluster(frozenset(["a", "b"]))])
        assert len(store) == 1


class TestDocumentPipelineSurface:
    def test_add_texts_and_reports(self):
        pipeline = StreamingDocumentPipeline(l=1, k=2)
        report = pipeline.add_texts(
            ["beckham galaxy madrid transfer"] * 20
            + ["noise filler words"])
        assert report.interval == 0
        assert report.num_documents == 21
        assert report.num_clusters >= 1
        assert report.seconds_total >= 0
        assert "interval 0" in report.describe()
        assert pipeline.reports == [report]

    def test_documents_rehomed_to_stream_clock(self):
        """A document's own interval field is ignored — the stream
        defines time."""
        pipeline = StreamingDocumentPipeline(l=1, k=1)
        for _ in range(2):
            pipeline.add_documents(
                [Document(f"d{i}", 99,
                          "beckham galaxy madrid transfer")
                 for i in range(15)]
                + [Document(f"n{i}", 99, f"noise{i} filler{i} pad{i}")
                   for i in range(5)])
        top = pipeline.top_k()
        assert top and top[0].nodes[0][0] == 0

    def test_from_query_requires_concrete_length(self):
        with pytest.raises(ValueError, match="full-path"):
            StreamingDocumentPipeline.from_query(
                StableQuery(problem="kl", l=None, k=3))

    def test_cluster_for_window_only(self):
        pipeline = StreamingDocumentPipeline(l=1, k=1, gap=0)
        texts = (["beckham galaxy madrid transfer"] * 15
                 + [f"noise{i} filler{i} pad{i}" for i in range(5)])
        pipeline.add_texts(texts)
        pipeline.add_texts(texts)
        assert pipeline.cluster_for((1, 0)) is not None
        assert pipeline.cluster_for((0, 0)) is None  # evicted


class TestStreamingPlanner:
    def _stats(self, n=400, gap=1):
        return GraphStats(num_intervals=10, max_interval_nodes=n,
                          avg_out_degree=3.0, gap=gap)

    def test_solver_follows_problem(self):
        kl = plan_streaming(StableQuery(problem="kl", l=3, k=5),
                            self._stats())
        assert kl.solver == "bfs" and kl.backend == "memory"
        norm = plan_streaming(
            StableQuery(problem="normalized", lmin=3, k=5),
            self._stats())
        assert norm.solver == "normalized"

    def test_small_budget_spills_to_disk(self):
        execution = plan_streaming(
            StableQuery(problem="kl", l=3, k=5),
            self._stats(n=2000), memory_budget=64 * 1024)
        assert execution.backend in ("disk", "sharded")
        assert any("spilled" in reason
                   for reason in execution.reasons)

    def test_full_path_query_rejected(self):
        with pytest.raises(ValueError, match="full-path"):
            plan_streaming(StableQuery(problem="kl", l=None, k=5),
                           self._stats())

    def test_explain_mentions_eviction(self):
        execution = plan_streaming(
            StableQuery(problem="kl", l=3, k=5), self._stats(gap=2))
        assert "g + 1 = 3" in execution.explain()


class TestJsonlSource:
    def test_read_documents_and_batches(self):
        lines = [
            {"interval": 1, "text": "one", "id": "a"},
            {"interval": 3, "text": "three"},
            {"interval": 1, "text": "uno"},
        ]
        handle = io.StringIO(
            "\n".join(json.dumps(line) for line in lines) + "\n\n")
        batches = list(read_interval_batches(handle))
        # Dense from the first to the last populated interval; the
        # silent interval 2 still advances the stream clock.
        assert [(i, len(docs)) for i, docs in batches] == \
            [(1, 2), (2, 0), (3, 1)]
        assert batches[0][1][0].doc_id == "a"

    def test_read_from_path(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        path.write_text(json.dumps(
            {"interval": 0, "text": "hello world"}))
        docs = read_jsonl_documents(str(path))
        assert len(docs) == 1 and docs[0].interval == 0

    def test_empty_stream(self):
        assert list(interval_batches([])) == []

    def test_timestamp_like_intervals_rejected(self):
        docs = [Document("a", 1700000000, "one"),
                Document("b", 1700086400, "two")]
        with pytest.raises(ValueError, match="timestamps"):
            list(interval_batches(docs))
