"""Lifecycle tests for the tiered segment index.

The contracts under test: a merged index answers every query
byte-identically to the unmerged one (across both problems and every
StateStore backend); a streamed index reopens and appends across
process restarts with its vocabulary deltas reused; crashes mid-flush
and mid-merge leave a consistent, recoverable segment set; a tailing
reader scans only the bytes a writer appended since the last poll;
the mmap read path gives the same answers as buffered reads; and the
keyword -> cluster rule applied to the index (ranked by stored sizes,
one record read) picks what the in-memory rule picks.
"""

import os
import random
import shutil

import pytest

from repro.cli import main
from repro.distributed import DistributedQueryService
from repro.graph.clusters import KeywordCluster
from repro.index import (
    ClusterIndexError,
    ClusterIndexReader,
    ClusterIndexWriter,
    IndexCorruptError,
    MergePolicy,
    compact_index,
    load_manifest,
)
from repro.index.format import segment_dir, segments_root
from repro.pipeline import find_stable_clusters
from repro.search.refinement import ListClusterSource, QueryRefiner
from repro.service import ClusterQueryService
from repro.serving import encode_payload, lookup_payload, refine_payload
from repro.storage import open_store
from repro.storage.recordlog import (
    RecordLogReader,
    append_record,
    read_records,
)
from repro.streaming import StreamingDocumentPipeline
from repro.text.documents import Document, IntervalCorpus
from repro.vocab import Vocabulary


def _corpus(m=5, start=0):
    """A corpus with a persistent event plus per-interval noise."""
    docs = []
    doc = 0
    for interval in range(start, start + m):
        for _ in range(20):
            docs.append(Document(doc_id=f"s{interval}.{doc}",
                                 interval=interval,
                                 text="somalia mogadishu ethiopian"))
            doc += 1
        for i in range(6):
            docs.append(Document(doc_id=f"b{interval}.{doc}",
                                 interval=interval,
                                 text=f"noise{i} filler{interval} "
                                      f"chatter{doc}"))
            doc += 1
    corpus = IntervalCorpus()
    corpus.extend(docs)
    return corpus


def _cluster(tag, interval):
    """A small string-token cluster for writer-level tests."""
    a, b = f"{tag}x", f"{tag}y"
    return KeywordCluster(frozenset({a, b}),
                          edges=((a, b, 0.5),), interval=interval)


def _stream_index(index_dir, store=None, problem="kl", gap=1, m=5,
                  **kwargs):
    """Replay the test corpus through a streaming run into an index."""
    corpus = _corpus(m=m)
    with StreamingDocumentPipeline(
            l=2, k=3, gap=gap, problem=problem, store=store,
            index_dir=index_dir, **kwargs) as pipeline:
        for interval in corpus.interval_indices:
            pipeline.add_documents(corpus.documents(interval))
        return pipeline.top_k()


def _query_outputs(capsys, index_dir):
    """Every ``query`` subcommand's stdout against one index."""
    outputs = {}
    for name, argv in [
            ("refine", ["query", "refine", index_dir, "somalia"]),
            ("lookup", ["query", "lookup", index_dir, "somalia"]),
            ("paths", ["query", "paths", index_dir]),
            ("paths-kw", ["query", "paths", index_dir,
                          "--keyword", "somalia"])]:
        main(argv)
        outputs[name] = capsys.readouterr().out
    return outputs


class TestMergeByteIdentity:
    """The acceptance bar: `index merge` never changes an answer."""

    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    @pytest.mark.parametrize("backend", ["memory", "disk", "sharded"])
    def test_merged_queries_byte_identical(self, tmp_path, capsys,
                                           problem, backend):
        index_dir = str(tmp_path / "index")
        store = None if backend == "memory" else open_store(
            backend, directory=str(tmp_path / "state"))
        try:
            _stream_index(index_dir, store=store, problem=problem,
                          flush_intervals=1, merge_policy=None)
        finally:
            if store is not None:
                store.close()
        before_manifest = load_manifest(index_dir)
        assert len(before_manifest["segments"]) == 5
        before = _query_outputs(capsys, index_dir)

        assert main(["index", "merge", index_dir, "--full"]) == 0
        merged = capsys.readouterr().out
        assert "1 merge(s)" in merged or "merge(s)" in merged

        after_manifest = load_manifest(index_dir)
        assert len(after_manifest["segments"]) == 1
        assert after_manifest["generation"] \
            > before_manifest["generation"]
        assert _query_outputs(capsys, index_dir) == before

    def test_merge_reclaims_path_garbage(self, tmp_path):
        """Compaction drops superseded path generations, so the
        merged index is strictly smaller."""
        index_dir = str(tmp_path / "index")
        _stream_index(index_dir, flush_intervals=1, merge_policy=None)
        with ClusterIndexReader(index_dir) as reader:
            bytes_before = reader.total_bytes
            paths_before = reader.paths()
        report = compact_index(index_dir, full=True)
        assert report["segments_after"] == 1
        assert report["bytes_after"] < bytes_before
        with ClusterIndexReader(index_dir) as reader:
            assert reader.total_bytes == report["bytes_after"]
            assert reader.paths() == paths_before

    def test_policy_merge_under_writer(self, tmp_path):
        """An inline size-tiered policy keeps the live segment count
        bounded while answers match a merge-free run."""
        plain_dir = str(tmp_path / "plain")
        merged_dir = str(tmp_path / "merged")
        paths = _stream_index(plain_dir, flush_intervals=1,
                              merge_policy=None)
        merged_paths = _stream_index(
            merged_dir, flush_intervals=1,
            merge_policy=MergePolicy(max_segments=2))
        assert merged_paths == paths
        with ClusterIndexReader(plain_dir) as plain, \
                ClusterIndexReader(merged_dir) as merged:
            assert merged.num_segments < plain.num_segments
            assert merged.paths() == plain.paths()
            for interval in range(plain.num_intervals):
                assert merged.clusters_at(interval) \
                    == plain.clusters_at(interval)

    def test_background_merge(self, tmp_path):
        """A background merge thread compacts while appends continue;
        finalize() joins it before stamping the index complete."""
        index_dir = str(tmp_path / "index")
        with ClusterIndexWriter(
                index_dir, flush_intervals=1,
                merge_policy=MergePolicy(max_segments=2),
                background_merge=True) as writer:
            for interval in range(8):
                writer.append_interval([_cluster(f"t{interval}",
                                                 interval)])
        with ClusterIndexReader(index_dir) as reader:
            assert reader.complete
            assert reader.num_intervals == 8
            assert reader.num_segments < 8
            for interval in range(8):
                clusters = reader.clusters_at(interval)
                assert clusters == [_cluster(f"t{interval}", interval)]


class TestReopenAppend:
    def test_streamed_index_continues_across_restarts(self, tmp_path):
        """Run, die, rerun: the second process reopens the index,
        preloads the stored vocabulary, and extends the timeline."""
        index_dir = str(tmp_path / "index")
        first = _corpus(m=2)
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            for interval in first.interval_indices:
                pipeline.add_documents(first.documents(interval))
            vocab_after_first = len(pipeline.vocab)
        assert vocab_after_first > 0

        second = _corpus(m=2)
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            # The stored vocabulary deltas are reused, not re-interned.
            assert len(pipeline.vocab) == vocab_after_first
            for interval in second.interval_indices:
                pipeline.add_documents(second.documents(interval))
        with ClusterIndexReader(index_dir) as reader:
            assert reader.complete
            assert reader.num_intervals == 4
            # The resumed run's paths were rebased onto the global
            # timeline: every node falls in the appended intervals.
            assert reader.paths()
            for path in reader.paths():
                assert all(2 <= node[0] < 4 for node in path.nodes)
            assert reader.lookup("somalia", 3) is not None

    def test_batch_append_extends_timeline(self, tmp_path):
        index_dir = str(tmp_path / "index")
        first = find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                                     index_dir=index_dir)
        second = find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                                      index_dir=index_dir,
                                      index_append=True)
        assert second.plan.index_segments == 2
        with ClusterIndexReader(index_dir) as reader:
            assert reader.num_intervals == 10
            assert reader.num_segments == 2
            assert reader.clusters_at(2) \
                == first.interval_clusters[2]
            assert reader.clusters_at(7) \
                == second.interval_clusters[2]

    def test_stream_cli_appends_by_default(self, tmp_path, capsys):
        """`stream --index-dir` continues an existing index;
        --index-rebuild starts over."""
        jsonl = tmp_path / "posts.jsonl"
        corpus = _corpus(m=2)
        import json
        jsonl.write_text("\n".join(
            json.dumps({"interval": doc.interval, "text": doc.text})
            for interval in corpus.interval_indices
            for doc in corpus.documents(interval)))
        index_dir = str(tmp_path / "index")
        argv = ["stream", str(jsonl), "--length", "1", "-k", "2",
                "--index-dir", index_dir]
        main(argv)
        out_first = capsys.readouterr().out
        assert "persisted cluster index" in out_first
        main(argv)
        capsys.readouterr()
        assert load_manifest(index_dir)["num_intervals"] == 4
        main(argv + ["--index-rebuild"])
        out = capsys.readouterr().out
        assert load_manifest(index_dir)["num_intervals"] == 2
        assert "segments" in out


class TestCrashRecovery:
    def _crashed_writer_dir(self, tmp_path, intervals=2):
        """An index whose writer died mid-run: manifest published,
        active segment never sealed, a torn frame on disk."""
        index_dir = str(tmp_path / "index")
        writer = ClusterIndexWriter(index_dir, flush_intervals=8)
        for interval in range(intervals):
            writer.append_interval([_cluster(f"t{interval}",
                                             interval)])
        # Simulate the crash: the in-flight frame hit the file but
        # no manifest ever recorded it; the process is simply gone.
        seg = segment_dir(index_dir, "seg-0000")
        with open(os.path.join(seg, "clusters-000.bin"), "ab") as fh:
            fh.write(b"\xff\x07torn-in-flight-frame")
        return index_dir

    def test_torn_tail_invisible_to_reader(self, tmp_path):
        index_dir = self._crashed_writer_dir(tmp_path)
        with ClusterIndexReader(index_dir) as reader:
            assert not reader.complete
            assert reader.num_intervals == 2
            assert reader.clusters_at(0) == [_cluster("t0", 0)]

    def test_reopen_truncates_and_continues(self, tmp_path):
        index_dir = self._crashed_writer_dir(tmp_path)
        manifest = load_manifest(index_dir)
        recorded = manifest["segments"][0]["files"]["clusters-000.bin"]
        with ClusterIndexWriter(index_dir, append=True) as writer:
            writer.append_interval([_cluster("t2", 2)])
        seg = segment_dir(index_dir, "seg-0000")
        assert os.path.getsize(
            os.path.join(seg, "clusters-000.bin")) == recorded
        with ClusterIndexReader(index_dir) as reader:
            assert reader.complete
            assert reader.num_intervals == 3
            # The crashed run's segment was sealed on reopen; the
            # resumed appends landed in a fresh one.
            assert reader.num_segments == 2
            assert reader.clusters_at(2) == [_cluster("t2", 2)]

    def test_reopen_rejects_lost_bytes(self, tmp_path):
        """A file shorter than the manifest records is data loss,
        not a torn tail — reopening must refuse."""
        index_dir = self._crashed_writer_dir(tmp_path)
        seg = segment_dir(index_dir, "seg-0000")
        path = os.path.join(seg, "postings.bin")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(IndexCorruptError):
            ClusterIndexWriter(index_dir, append=True)

    def test_crashed_merge_output_is_invisible(self, tmp_path):
        """A merge that died after writing its output directory but
        before the manifest swap leaves an orphan: readers never see
        it, and the next compaction clears it."""
        index_dir = str(tmp_path / "index")
        _stream_index(index_dir, flush_intervals=1, merge_policy=None)
        orphan = segment_dir(index_dir, "seg-0077")
        os.makedirs(orphan)
        with open(os.path.join(orphan, "clusters-000.bin"),
                  "wb") as fh:
            fh.write(b"half-written merge output")
        with ClusterIndexReader(index_dir) as reader:
            assert reader.num_intervals == 5
            names = [info["name"] for info in reader.segments()]
            assert "seg-0077" not in names
        compact_index(index_dir, full=True)
        assert not os.path.exists(orphan)
        with ClusterIndexReader(index_dir) as reader:
            assert reader.num_segments == 1
            assert reader.num_intervals == 5

    def test_compact_refuses_unsealed_without_force(self, tmp_path):
        index_dir = self._crashed_writer_dir(tmp_path)
        with pytest.raises(ClusterIndexError, match="unsealed"):
            compact_index(index_dir, full=True)
        report = compact_index(index_dir, full=True, force=True)
        assert report["segments_after"] == 1
        with ClusterIndexReader(index_dir) as reader:
            assert reader.num_intervals == 2
            assert reader.clusters_at(1) == [_cluster("t1", 1)]

    def test_wiped_segment_dir_rejected(self, tmp_path):
        index_dir = str(tmp_path / "index")
        find_stable_clusters(_corpus(), l=2, k=3, index_dir=index_dir)
        shutil.rmtree(segments_root(index_dir))
        with pytest.raises(IndexCorruptError):
            ClusterIndexReader(index_dir)


class TestTailingReader:
    def test_refresh_scans_only_new_bytes(self, tmp_path):
        """Every log byte is scanned exactly once across open and
        refreshes — a poll never re-reads the whole index."""
        index_dir = str(tmp_path / "index")
        corpus = _corpus(m=4)
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir, flush_intervals=2,
                merge_policy=None) as pipeline:
            pipeline.add_documents(corpus.documents(0))
            pipeline.add_documents(corpus.documents(1))
            reader = ClusterIndexReader(index_dir)
            assert reader.bytes_scanned == reader.total_bytes
            opening_scan = reader.bytes_scanned
            pipeline.add_documents(corpus.documents(2))
            assert reader.refresh()
            assert reader.num_intervals == 3
            # Cumulative scan equals the accounted bytes: the two
            # already-consumed intervals were not read again.
            assert reader.bytes_scanned == reader.total_bytes
            assert reader.bytes_scanned > opening_scan
            pipeline.add_documents(corpus.documents(3))
        assert reader.refresh()
        assert reader.complete
        assert reader.bytes_scanned == reader.total_bytes
        reader.close()

    def test_refresh_rebuilds_across_merge(self, tmp_path):
        """A compaction swaps the segment set under a live reader;
        refresh() rebuilds and answers stay identical."""
        index_dir = str(tmp_path / "index")
        _stream_index(index_dir, flush_intervals=1, merge_policy=None)
        reader = ClusterIndexReader(index_dir)
        before = {
            "paths": reader.paths(),
            "clusters": [reader.clusters_at(i)
                         for i in range(reader.num_intervals)],
        }
        generation = reader.generation
        compact_index(index_dir, full=True)
        assert reader.refresh()
        assert reader.generation > generation
        assert reader.num_segments == 1
        assert reader.paths() == before["paths"]
        for interval, clusters in enumerate(before["clusters"]):
            assert reader.clusters_at(interval) == clusters
        reader.close()


    def test_one_vocabulary_across_growing_generations(self, tmp_path):
        """Every generation of a live id-token index adds keywords;
        the tailing reader extends one vocabulary object instead of
        re-snapshotting the table per generation, so clusters decoded
        24 generations apart share it.  The writer's sixth seal then
        merges: the reader rebuilds structurally (a new table with
        the same ids), and clusters cached under the old one keep
        decoding to the same keywords."""
        index_dir = str(tmp_path / "index")

        def keywords(i):
            return frozenset({f"t{i}x", f"t{i}y"})

        with ClusterIndexWriter(
                index_dir, vocab=Vocabulary(), flush_intervals=4,
                merge_policy=MergePolicy(max_segments=5)) as writer:
            writer.append_interval([_cluster("t0", 0)])
            reader = ClusterIndexReader(index_dir)
            first = reader.cluster((0, 0))
            vocab = first.vocab
            assert isinstance(vocab, Vocabulary)
            assert first.keywords == keywords(0)
            generations = {reader.generation}
            for i in range(1, 24):
                writer.append_interval([_cluster(f"t{i}", i)])
                assert reader.refresh()
                generations.add(reader.generation)
                assert reader.vocab_size == len(vocab) == 2 * (i + 1)
                if i % 2 == 0:  # odd intervals stay undecoded
                    assert reader.lookup(f"t{i}y", i).vocab is vocab
            assert len(generations) == 24
            assert reader.num_segments == 6  # five sealed, one growing
            last = reader.cluster((23, 0))
            assert last.vocab is first.vocab
            assert first.keywords == keywords(0)
            assert last.keywords == keywords(23)
            assert reader.lookup("t0x", 0) is first
            assert reader.lookup("t23x") is last
            assert reader.postings_for("t11y") == ((11, 0),)

            writer.append_interval([_cluster("t24", 24)])
            assert reader.refresh()
            assert reader.num_segments < 6  # the merge swapped them
            assert reader.cluster((0, 0)) is first  # cache survives
            assert first.keywords == keywords(0)
            fresh = reader.cluster((24, 0))
            assert fresh.vocab is not vocab
            assert fresh.vocab.tokens[:len(vocab)] == vocab.tokens
            assert fresh.keywords == keywords(24)
            assert reader.lookup("t0y", 0) is first
            assert reader.lookup("t24x") is fresh
            assert reader.cluster((12, 0)).vocab is vocab
            uncached = reader.cluster((13, 0))
            assert uncached.vocab is fresh.vocab
            assert uncached.keywords == keywords(13)
            assert uncached == _cluster("t13", 13)
        assert reader.refresh() and reader.complete
        assert reader.cluster((23, 0)) is last
        assert reader.cluster((13, 0)) is uncached
        reader.close()


class TestMmapReadPath:
    def test_mmap_and_buffered_answers_equal(self, tmp_path):
        index_dir = str(tmp_path / "index")
        result = find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                                      index_dir=index_dir)
        with ClusterIndexReader(index_dir, use_mmap=True) as mapped, \
                ClusterIndexReader(index_dir,
                                   use_mmap=False) as buffered:
            assert mapped.mmap_active
            assert not buffered.mmap_active
            assert mapped.paths() == buffered.paths() \
                == result.paths
            for interval in range(mapped.num_intervals):
                assert mapped.clusters_at(interval) \
                    == buffered.clusters_at(interval)
            assert mapped.lookup("somalia", 2) \
                == buffered.lookup("somalia", 2)

    def test_record_log_reader_zero_copy(self, tmp_path):
        path = str(tmp_path / "log.bin")
        payloads = [b"alpha", b"beta" * 40, b"gamma"]
        with open(path, "ab") as fh:
            for payload in payloads:
                append_record(fh, payload)
        expected = [(bytes(p), end)
                    for p, end in read_records(path)]
        with RecordLogReader(path) as log:
            assert log.mmapped
            got = list(log.records())
            assert [(bytes(p), end) for p, end in got] == expected
            assert isinstance(got[0][0], memoryview)
            offset = expected[0][1]
            length = expected[1][1] - offset
            assert bytes(log.pread(offset, length)) \
                == open(path, "rb").read()[offset:offset + length]

    def test_record_log_reader_remaps_on_growth(self, tmp_path):
        path = str(tmp_path / "log.bin")
        with open(path, "ab") as fh:
            append_record(fh, b"first")
        with RecordLogReader(path) as log:
            [(first, resume)] = list(log.records())
            held = first  # keep a zero-copy view across the remap
            with open(path, "ab") as fh:
                append_record(fh, b"second")
            tail = list(log.records(offset=resume,
                                    end=os.path.getsize(path)))
            assert [bytes(p) for p, _ in tail] == [b"second"]
            assert bytes(held) == b"first"

    def test_record_log_reader_buffered_fallback(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        open(path, "wb").close()
        with RecordLogReader(path) as log:
            assert not log.mmapped  # cannot map an empty file
            assert list(log.records()) == []
        with open(path, "ab") as fh:
            append_record(fh, b"late")
        with RecordLogReader(path, use_mmap=False) as log:
            assert not log.mmapped
            assert [bytes(p) for p, _ in log.records()] == [b"late"]


class TestServiceStats:
    def test_stats_counters_move(self, tmp_path):
        index_dir = str(tmp_path / "index")
        find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                             index_dir=index_dir)
        with ClusterQueryService(index_dir) as service:
            baseline = service.stats()
            assert baseline["segments"] == 1
            assert baseline["intervals"] == 5
            assert baseline["bytes_scanned"] > 0
            assert baseline["refiner_hits"] == 0
            service.refine("somalia")
            service.refine("somalia")  # second hit is cached
            stats = service.stats()
            assert stats["refiner_misses"] >= 1
            assert stats["refiner_hits"] >= 1
            service.lookup("somalia", 0)
            service.lookup("somalia", 0)
            stats = service.stats()
            assert stats["cluster_hits"] >= 1
            rendered = service.describe_stats()
            assert "service stats:" in rendered
            assert "refiner cache:" in rendered
            assert "mmap on" in rendered

    def test_query_cli_stats_flag(self, tmp_path, capsys):
        index_dir = str(tmp_path / "index")
        find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                             index_dir=index_dir)
        assert main(["query", "lookup", index_dir, "somalia",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "service stats:" in out
        assert "cluster cache:" in out

    def test_inspect_segments_flag(self, tmp_path, capsys):
        index_dir = str(tmp_path / "index")
        _stream_index(index_dir, flush_intervals=2, merge_policy=None)
        assert main(["index", "inspect", index_dir,
                     "--segments"]) == 0
        out = capsys.readouterr().out
        assert "seg-0000: intervals [0, 2)" in out
        assert "sealed" in out

    def test_plan_reports_measured_segment_tier(self, tmp_path):
        """The plan's segments line is the count the write left
        behind, not a forecast."""
        index_dir = str(tmp_path / "index")
        find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                             index_dir=index_dir)
        second = find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                                      index_dir=index_dir,
                                      index_append=True)
        text = second.plan.explain()
        assert "segments: 2 in the index's tier" in text
        assert f"persisted at {index_dir}" in text


def _overlapping_clusters(seed, intervals=6, hubs=4):
    """Intervals whose hub keywords sit in 1-12 clusters each.

    Clusters carry one or two hubs plus 1-3 private keywords, so
    most of a hub's candidates tie on size and the winner is decided
    by cluster-list order.  Every keyword is its own stem."""
    rng = random.Random(seed)
    stream = []
    for interval in range(intervals):
        clusters = []
        for hub in range(hubs):
            for c in range(rng.randint(1, 12)):
                keywords = [f"hub{hub}"] + [
                    f"p{interval}h{hub}c{c}k{k}"
                    for k in range(rng.randint(1, 3))]
                if rng.random() < 0.3:
                    keywords.append(f"hub{rng.randrange(hubs)}")
                keywords = sorted(set(keywords))
                edges = tuple(
                    (u, v, round(rng.uniform(0.2, 0.9), 3))
                    for u, v in zip(keywords, keywords[1:]))
                clusters.append(KeywordCluster(
                    frozenset(keywords), edges=edges,
                    interval=interval))
        rng.shuffle(clusters)
        stream.append(clusters)
    return stream


def _assert_rule_matches(reader, stream):
    """Every (interval, keyword) of *stream* answers from *reader*
    as the in-memory rule does, reading one cluster per query."""
    for interval, clusters in enumerate(stream):
        source = ListClusterSource(clusters)
        in_memory = QueryRefiner(clusters)
        indexed = reader.refiner(interval, cache_size=0)
        for keyword in sorted(set(source.stems()) | {"absent"}):
            expected = source.best_cluster(keyword)
            hits, misses, _, _ = reader.cache_info()
            assert reader.lookup(keyword, interval) == expected
            after_hits, after_misses, _, _ = reader.cache_info()
            assert (after_hits - hits) + (after_misses - misses) \
                == (expected is not None), (interval, keyword)
            assert indexed.refine(keyword) == \
                in_memory.refine(keyword)


class TestRefinementRuleDifferential:
    """``prefer_larger`` over an index (sizes kept from the scan,
    only the winner decoded) against ``ListClusterSource`` over the
    same clusters in memory."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("token_kind", ["str", "id"])
    def test_live_refreshed_and_merged(self, tmp_path, seed,
                                       token_kind):
        index_dir = str(tmp_path / "index")
        stream = _overlapping_clusters(seed)
        vocab = Vocabulary() if token_kind == "id" else None
        writer = ClusterIndexWriter(index_dir, vocab=vocab,
                                    flush_intervals=2)
        for clusters in stream[:4]:
            writer.append_interval(clusters)
        with ClusterIndexReader(index_dir) as reader:
            assert reader.token_kind == token_kind
            assert reader.num_segments == 2
            _assert_rule_matches(reader, stream[:4])
            for clusters in stream[4:]:
                writer.append_interval(clusters)
            writer.set_paths([])
            assert reader.refresh()  # tails the live index
            _assert_rule_matches(reader, stream)
            writer.finalize()
            compact_index(index_dir, full=True)
            assert reader.refresh()  # structural rebuild
            assert reader.num_segments == 1
            _assert_rule_matches(reader, stream)
        with ClusterIndexReader(index_dir) as reopened:
            _assert_rule_matches(reopened, stream)

    def test_cold_query_reads_only_the_winner(self, tmp_path):
        """A keyword shared by several clusters of the interval costs
        one record read, not one per candidate."""
        index_dir = str(tmp_path / "index")
        stream = _overlapping_clusters(7)
        ClusterIndexWriter.write_run(index_dir, stream, [],
                                     flush_intervals=2)
        asked = 0
        with ClusterIndexReader(index_dir) as reader:
            for interval, clusters in enumerate(stream):
                candidates = [c for c in clusters
                              if "hub0" in c.keywords]
                if len(candidates) < 2:
                    continue
                asked += 1
                assert reader.lookup("hub0", interval) is not None
                assert reader.cache_info()[:2] == (0, asked)
        assert asked

    def test_two_shards_agree_with_in_process(self, tmp_path):
        index_dir = str(tmp_path / "index")
        stream = _overlapping_clusters(11, intervals=3)
        ClusterIndexWriter.write_run(index_dir, stream, [],
                                     flush_intervals=2)
        with ClusterQueryService(index_dir) as service, \
                DistributedQueryService(index_dir,
                                        workers=2) as coordinator:
            for interval, clusters in enumerate(stream):
                for keyword in sorted(
                        ListClusterSource(clusters).stems()):
                    for build in (lookup_payload, refine_payload):
                        assert encode_payload(build(
                            coordinator, keyword, interval)) == \
                            encode_payload(build(
                                service, keyword, interval))
