"""Durability tests for the persistent cluster index.

The contract under test: build -> reopen -> query answers equal to the
in-memory ones, across both problems x gaps 0-2 x memory/disk/sharded
source runs; and damaged indexes are *rejected* (IndexCorruptError),
never silently misread.
"""

import json
import os

import pytest

from repro.engine import StableQuery
from repro.engine.planner import ExecutionPlan
from repro.graph.clusters import KeywordCluster
from repro.index import (
    ClusterIndexError,
    ClusterIndexReader,
    ClusterIndexWriter,
    IndexCorruptError,
)
from repro.index.format import manifest_path, segment_dir
from repro.pipeline import find_stable_clusters
from repro.search import QueryRefiner
from repro.storage import open_store
from repro.streaming import StreamingDocumentPipeline
from repro.text.documents import Document, IntervalCorpus


def _corpus(m=5):
    """A small corpus with a persistent event, a drifting event, and
    per-interval noise (enough structure for paths at every gap)."""
    docs = []
    doc = 0
    for interval in range(m):
        for _ in range(20):
            docs.append(Document(doc_id=f"s{doc}", interval=interval,
                                 text="somalia mogadishu ethiopian"))
            doc += 1
        if interval != 2:  # a gap in the middle
            for _ in range(18):
                docs.append(Document(
                    doc_id=f"f{doc}", interval=interval,
                    text="liverpool arsenal anfield goal"))
                doc += 1
        for i in range(6):
            docs.append(Document(doc_id=f"b{doc}", interval=interval,
                                 text=f"noise{i} filler{interval} "
                                      f"chatter{doc}"))
            doc += 1
    corpus = IntervalCorpus()
    corpus.extend(docs)
    return corpus


def _assert_round_trip(reader, interval_clusters, paths):
    """Reopened-index answers equal the in-memory ones."""
    assert reader.num_intervals == len(interval_clusters)
    assert reader.paths() == list(paths)
    for i, clusters in enumerate(interval_clusters):
        assert reader.clusters_at(i) == list(clusters)
        memory = QueryRefiner(clusters)
        indexed = reader.refiner(i)
        assert indexed.vocabulary() == memory.vocabulary()
        for keyword in memory.vocabulary():
            assert indexed.refine(keyword) == memory.refine(keyword)


class TestBatchRoundTrip:
    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    @pytest.mark.parametrize("gap", [0, 1, 2])
    def test_build_reopen_query_equality(self, tmp_path, problem, gap):
        index_dir = str(tmp_path / "index")
        result = find_stable_clusters(
            _corpus(), l=2, k=3, gap=gap, problem=problem,
            index_dir=index_dir)
        assert result.index_dir == index_dir
        assert result.plan.index_bytes > 0
        with ClusterIndexReader(index_dir) as reader:
            assert reader.complete
            _assert_round_trip(reader, result.interval_clusters,
                               result.paths)

    def test_lookups_without_source_documents(self, tmp_path):
        """A reopened index answers point lookups from its own bytes;
        the corpus object is long gone."""
        index_dir = str(tmp_path / "index")
        result = find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                                      index_dir=index_dir)
        expected = QueryRefiner(
            result.interval_clusters[3]).refine("somalia")
        del result
        with ClusterIndexReader(index_dir) as reader:
            cluster = reader.lookup("somalia", 3)
            assert cluster is not None
            assert "somalia" in cluster.keywords
            assert reader.refiner(3).refine("somalia") == expected
            # One random read, cached afterwards.
            hits_before = reader.cache_info()[0]
            reader.lookup("somalia", 3)
            assert reader.cache_info()[0] > hits_before

    def test_explain_reports_index_size(self, tmp_path):
        index_dir = str(tmp_path / "index")
        result = find_stable_clusters(_corpus(), l=2, k=3,
                                      index_dir=index_dir)
        rendered = result.plan.explain()
        assert "index:" in rendered
        assert index_dir in rendered

    def test_string_mode_round_trip(self, tmp_path):
        """Clusters built directly from strings (no vocabulary)
        persist and reopen identically."""
        clusters = [KeywordCluster(
            frozenset({"appl", "iphon", "cisco"}),
            edges=(("appl", "iphon", 0.9), ("appl", "cisco", 0.4)),
            interval=0)]
        index_dir = str(tmp_path / "index")
        ClusterIndexWriter.write_run(index_dir, [clusters], [])
        with ClusterIndexReader(index_dir) as reader:
            assert reader.token_kind == "str"
            assert reader.clusters_at(0) == clusters
            assert reader.lookup("apple", 0) == clusters[0]


class TestStreamingRoundTrip:
    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    @pytest.mark.parametrize("gap", [0, 1, 2])
    @pytest.mark.parametrize("backend", ["memory", "disk", "sharded"])
    def test_streamed_index_equals_batch_answers(
            self, tmp_path, problem, gap, backend):
        """A live index appended interval by interval — whatever
        StateStore the source run used — reopens to the same answers
        as the in-memory clusters."""
        corpus = _corpus()
        index_dir = str(tmp_path / "index")
        store = None if backend == "memory" else open_store(
            backend, directory=str(tmp_path / "state"))
        streamed = []
        try:
            with StreamingDocumentPipeline(
                    l=2, k=3, gap=gap, problem=problem, store=store,
                    index_dir=index_dir) as pipeline:
                for interval in corpus.interval_indices:
                    pipeline.add_documents(corpus.documents(interval))
                    streamed.append([
                        pipeline.cluster_for(
                            (pipeline.num_intervals - 1, i))
                        for i in range(
                            pipeline.reports[-1].num_clusters)])
                final_paths = pipeline.top_k()
        finally:
            if store is not None:
                store.close()
        with ClusterIndexReader(index_dir) as reader:
            assert reader.complete
            _assert_round_trip(reader, streamed, final_paths)

    def test_live_refresh_tails_appends(self, tmp_path):
        index_dir = str(tmp_path / "index")
        corpus = _corpus(m=3)
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            pipeline.add_documents(corpus.documents(0))
            reader = ClusterIndexReader(index_dir)
            assert reader.num_intervals == 1
            assert not reader.complete
            pipeline.add_documents(corpus.documents(1))
            assert reader.refresh()
            assert reader.num_intervals == 2
            assert reader.lookup("somalia", 1) is not None
            assert not reader.refresh()  # nothing new
        assert reader.refresh()          # the finalize
        assert reader.complete
        reader.close()


class TestWriterSafety:
    def test_refuses_existing_index_without_overwrite(self, tmp_path):
        index_dir = str(tmp_path / "index")
        ClusterIndexWriter.write_run(index_dir, [[]], [])
        with pytest.raises(ClusterIndexError, match="overwrite"):
            ClusterIndexWriter(index_dir)
        # overwrite=True rebuilds in place.
        ClusterIndexWriter.write_run(index_dir, [[], []], [])
        with ClusterIndexReader(index_dir) as reader:
            assert reader.num_intervals == 2

    def test_refuses_foreign_directory(self, tmp_path):
        victim = tmp_path / "notes"
        victim.mkdir()
        (victim / "precious.txt").write_text("do not delete")
        with pytest.raises(ClusterIndexError, match="non-empty"):
            ClusterIndexWriter(str(victim), overwrite=True)
        assert (victim / "precious.txt").exists()

    def test_append_after_finalize_rejected(self, tmp_path):
        writer = ClusterIndexWriter(str(tmp_path / "index"))
        writer.finalize()
        with pytest.raises(ClusterIndexError, match="finalized"):
            writer.append_interval([])
        with pytest.raises(ClusterIndexError, match="finalized"):
            writer.set_paths([])

    def test_abort_leaves_index_live_and_readable(self, tmp_path):
        """A writer that dies mid-run must not stamp its partial
        index complete; what was appended stays readable."""
        index_dir = str(tmp_path / "index")
        clusters = [KeywordCluster(frozenset({"a", "b"}),
                                   edges=(("a", "b", 0.5),),
                                   interval=0)]
        writer = ClusterIndexWriter(index_dir)
        writer.append_interval(clusters)
        writer.abort()
        with pytest.raises(ClusterIndexError, match="aborted"):
            writer.finalize()
        with ClusterIndexReader(index_dir) as reader:
            assert not reader.complete
            assert reader.clusters_at(0) == clusters

    def test_context_manager_aborts_on_exception(self, tmp_path):
        index_dir = str(tmp_path / "index")
        with pytest.raises(RuntimeError):
            with ClusterIndexWriter(index_dir) as writer:
                writer.append_interval([])
                raise RuntimeError("stream died")
        with ClusterIndexReader(index_dir) as reader:
            assert not reader.complete

    def test_streaming_abort_leaves_index_incomplete(self, tmp_path):
        """An exception inside the pipeline context mirrors into the
        live index staying `complete: false`."""
        index_dir = str(tmp_path / "index")
        corpus = _corpus(m=2)
        with pytest.raises(RuntimeError):
            with StreamingDocumentPipeline(
                    l=1, k=2, index_dir=index_dir) as pipeline:
                pipeline.add_documents(corpus.documents(0))
                raise RuntimeError("ingest died")
        with ClusterIndexReader(index_dir) as reader:
            assert not reader.complete
            assert reader.num_intervals == 1


def _segment_file(index_dir, filename, segment="seg-0000"):
    """A log file's path inside one of the index's segments."""
    return os.path.join(segment_dir(index_dir, segment), filename)


class TestCorruptionRejection:
    def _build(self, tmp_path):
        index_dir = str(tmp_path / "index")
        find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                             index_dir=index_dir)
        return index_dir

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ClusterIndexError, match="no cluster index"):
            ClusterIndexReader(str(tmp_path / "nowhere"))

    def test_unknown_version_rejected(self, tmp_path):
        index_dir = self._build(tmp_path)
        manifest = json.load(open(manifest_path(index_dir)))
        manifest["version"] = 99
        json.dump(manifest, open(manifest_path(index_dir), "w"))
        with pytest.raises(ClusterIndexError, match="version"):
            ClusterIndexReader(index_dir)

    def test_foreign_manifest_rejected(self, tmp_path):
        index_dir = str(tmp_path / "index")
        os.makedirs(index_dir)
        with open(manifest_path(index_dir), "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(ClusterIndexError, match="not a"):
            ClusterIndexReader(index_dir)

    @pytest.mark.parametrize("victim", ["postings.bin", "paths.bin",
                                        "vocabulary.bin",
                                        "clusters-000.bin"])
    def test_truncated_file_rejected(self, tmp_path, victim):
        index_dir = self._build(tmp_path)
        path = _segment_file(index_dir, victim)
        blob = open(path, "rb").read()
        assert blob, victim
        open(path, "wb").write(blob[:-3])
        with pytest.raises(IndexCorruptError, match="truncated"):
            ClusterIndexReader(index_dir)

    @pytest.mark.parametrize("victim", ["postings.bin",
                                        "clusters-001.bin"])
    def test_flipped_byte_rejected(self, tmp_path, victim):
        index_dir = self._build(tmp_path)
        path = _segment_file(index_dir, victim)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(IndexCorruptError):
            ClusterIndexReader(index_dir)

    def test_missing_log_file_rejected(self, tmp_path):
        index_dir = self._build(tmp_path)
        os.unlink(_segment_file(index_dir, "vocabulary.bin"))
        with pytest.raises(IndexCorruptError, match="missing"):
            ClusterIndexReader(index_dir)

    def test_torn_inflight_frame_beyond_manifest_is_invisible(
            self, tmp_path):
        """Bytes past the manifest's recorded size — a live writer's
        in-flight frame — must not fail (or even reach) the scan."""
        index_dir = self._build(tmp_path)
        for victim in ("postings.bin", "clusters-000.bin"):
            with open(_segment_file(index_dir, victim), "ab") as fh:
                fh.write(b"\xff\x03torn-partial-frame")
        with ClusterIndexReader(index_dir) as reader:
            assert reader.num_intervals == 5
            assert reader.lookup("somalia", 0) is not None

    def test_count_mismatch_rejected(self, tmp_path):
        index_dir = self._build(tmp_path)
        manifest = json.load(open(manifest_path(index_dir)))
        manifest["num_clusters"] += 1
        json.dump(manifest, open(manifest_path(index_dir), "w"))
        with pytest.raises(IndexCorruptError, match="manifest"):
            ClusterIndexReader(index_dir)

    def test_repeated_vocabulary_token_rejected(self, tmp_path):
        """Ids are positions in the token table: a token stored twice
        would give one keyword two ids, however well-framed the
        record and however consistent the manifest's sizes."""
        from repro.storage.codec import encode_compact
        from repro.storage.recordlog import append_record

        index_dir = self._build(tmp_path)
        with ClusterIndexReader(index_dir) as reader:
            token = reader.lookup("somalia", 0).vocab.decode(0)
        path = _segment_file(index_dir, "vocabulary.bin")
        with open(path, "ab") as fh:
            append_record(fh, encode_compact((token,)))
        manifest = json.load(open(manifest_path(index_dir)))
        manifest["vocab_size"] += 1
        manifest["segments"][0]["vocab_size"] += 1
        manifest["segments"][0]["files"]["vocabulary.bin"] = \
            os.path.getsize(path)
        json.dump(manifest, open(manifest_path(index_dir), "w"))
        with pytest.raises(IndexCorruptError, match="second time"):
            ClusterIndexReader(index_dir)


class TestManifestContents:
    def test_query_and_provenance_recorded(self, tmp_path):
        index_dir = str(tmp_path / "index")
        result = find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                                      index_dir=index_dir)
        assert result is not None
        manifest = json.load(open(manifest_path(index_dir)))
        assert manifest["complete"] is True
        assert manifest["query"]["problem"] == "kl"
        assert manifest["query"]["gap"] == 1
        assert manifest["provenance"]["solver"] == result.plan.solver
        assert manifest["provenance"]["vocab_size"] == len(
            result.vocabulary)
        assert manifest["generation"] >= 1
        segment = manifest["segments"][0]
        assert segment["sealed"] is True
        assert segment["files"]["postings.bin"] == os.path.getsize(
            _segment_file(index_dir, "postings.bin",
                          segment["name"]))

    def test_writer_records_stable_query(self, tmp_path):
        index_dir = str(tmp_path / "index")
        query = StableQuery(problem="normalized", l=2, k=4, gap=1)
        with ClusterIndexWriter(index_dir, query=query) as writer:
            writer.append_interval([])
        manifest = json.load(open(manifest_path(index_dir)))
        assert manifest["query"]["describe"] == query.describe()

    def test_provenance_does_not_depend_on_explain_wording(
            self, tmp_path, monkeypatch):
        def index_files(index_dir):
            files = {}
            for base, _, names in os.walk(index_dir):
                for name in names:
                    path = os.path.join(base, name)
                    with open(path, "rb") as fh:
                        files[os.path.relpath(path, index_dir)] = \
                            fh.read()
            return files

        as_worded = str(tmp_path / "as-worded")
        find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                             index_dir=as_worded)
        monkeypatch.setattr(ExecutionPlan, "explain",
                            lambda self: "reworded\nexplain output")
        reworded = str(tmp_path / "reworded")
        find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                             index_dir=reworded)
        expected = index_files(as_worded)
        assert len(expected) > 1
        assert index_files(reworded) == expected

    def test_inspect_renders_fields_and_legacy_explain_lines(
            self, tmp_path):
        index_dir = str(tmp_path / "index")
        result = find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                                      index_dir=index_dir)
        with ClusterIndexReader(index_dir) as reader:
            rendered = reader.describe()
        assert f"    solver: {result.plan.solver}\n" in rendered
        assert "    memory_budget: -\n" in rendered
        manifest = json.load(open(manifest_path(index_dir)))
        manifest["provenance"] = ["execution plan", "  solver:   bfs"]
        json.dump(manifest, open(manifest_path(index_dir), "w"))
        with ClusterIndexReader(index_dir) as reader:
            rendered = reader.describe()
        assert rendered.endswith("  provenance:\n    execution plan\n"
                                 "      solver:   bfs")
