"""Tests for the serving layer: ClusterQueryService and the CLI's
``index``/``query`` subcommands."""

import json
import threading

import pytest

from repro.cli import main
from repro.pipeline import find_stable_clusters
from repro.search import QueryRefiner, render_refinement
from repro.service import ClusterQueryService
from repro.streaming import StreamingDocumentPipeline
from repro.text.documents import Document, IntervalCorpus


def _corpus(m=4):
    docs = []
    doc = 0
    for interval in range(m):
        for _ in range(22):
            docs.append(Document(doc_id=f"e{doc}", interval=interval,
                                 text="beckham galaxy madrid soccer"))
            doc += 1
        for i in range(6):
            docs.append(Document(doc_id=f"b{doc}", interval=interval,
                                 text=f"noise{i} filler{interval} "
                                      f"chatter{doc}"))
            doc += 1
    corpus = IntervalCorpus()
    corpus.extend(docs)
    return corpus


def _write_jsonl(tmp_path, corpus):
    path = tmp_path / "posts.jsonl"
    lines = [json.dumps({"interval": doc.interval, "text": doc.text,
                         "id": doc.doc_id})
             for interval in corpus.interval_indices
             for doc in corpus.documents(interval)]
    path.write_text("\n".join(lines))
    return str(path)


@pytest.fixture()
def built(tmp_path):
    """A batch run persisted to an index, plus its in-memory result."""
    index_dir = str(tmp_path / "index")
    result = find_stable_clusters(_corpus(), l=2, k=3, gap=1,
                                  index_dir=index_dir)
    return index_dir, result


class TestClusterQueryService:
    def test_refine_matches_in_memory_byte_for_byte(self, built):
        index_dir, result = built
        with ClusterQueryService(index_dir) as service:
            for interval, clusters in enumerate(
                    result.interval_clusters):
                memory = QueryRefiner(clusters)
                for keyword in memory.vocabulary():
                    expected = render_refinement(
                        memory.refine(keyword))
                    served = render_refinement(
                        service.refine(keyword, interval))
                    assert served == expected

    def test_defaults_to_latest_interval(self, built):
        index_dir, result = built
        with ClusterQueryService(index_dir) as service:
            latest = len(result.interval_clusters) - 1
            assert service.latest_interval == latest
            assert service.refine("beckham") == service.refine(
                "beckham", latest)

    def test_lookup_and_paths(self, built):
        index_dir, result = built
        with ClusterQueryService(index_dir) as service:
            cluster = service.lookup("madrid", 0)
            assert cluster is not None
            assert "beckham" in cluster.keywords
            assert service.lookup("nonexistentterm", 0) is None
            assert service.stable_paths() == result.paths
            through = service.paths_for("beckham")
            assert through and all(p in result.paths
                                   for p in through)
            assert service.paths_for("nonexistentterm") == []

    def test_render_path_matches_batch_renderer(self, built):
        from repro.pipeline import render_stable_path
        index_dir, result = built
        with ClusterQueryService(index_dir) as service:
            for path in result.paths:
                assert service.render_path(path) == \
                    render_stable_path(result, path)

    def test_hot_keywords_hit_the_shared_cache(self, built):
        """Hot answers live in the service-wide LRU (shared across
        intervals and connections), not in per-refiner caches."""
        index_dir, _ = built
        with ClusterQueryService(index_dir) as service:
            service.refine("beckham")
            hits_before = service.stats()["refiner_hits"]
            service.refine("beckham")
            stats = service.stats()
            assert stats["refiner_hits"] == hits_before + 1
            # Stemming variants of the hot keyword share the entry.
            service.refine("Beckham")
            assert service.stats()["refiner_hits"] == hits_before + 2
            # The service-built refiners carry no private cache.
            assert service.refiner().cache_info()[3] == 0

    def test_describe_stats_before_any_query(self, built):
        """`query --stats` formatting at zero hits / zero misses."""
        index_dir, _ = built
        with ClusterQueryService(index_dir) as service:
            text = service.describe_stats()
            assert "refiner cache: no queries yet" in text
            assert "cluster cache:" in text
            assert "index:" in text

    def test_describe_stats_after_queries(self, built):
        index_dir, _ = built
        with ClusterQueryService(index_dir) as service:
            service.refine("beckham")
            service.refine("beckham")
            text = service.describe_stats()
            assert "refiner cache: 1/2 hits (50%)" in text

    def test_stats_monotonic_across_refresh(self, tmp_path):
        """Hot-cache counters survive refresh(); only entries are
        invalidated."""
        corpus = _corpus(m=3)
        index_dir = str(tmp_path / "live")
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            pipeline.add_documents(corpus.documents(0))
            with ClusterQueryService(index_dir) as service:
                service.refine("beckham")
                service.refine("beckham")
                before = service.stats()
                assert before["refiner_hits"] == 1
                assert before["refiner_misses"] == 1
                pipeline.add_documents(corpus.documents(1))
                assert service.refresh()
                after = service.stats()
                assert after["refiner_hits"] >= \
                    before["refiner_hits"]
                assert after["refiner_misses"] >= \
                    before["refiner_misses"]
                # The invalidated interval's answer is recomputed:
                # a miss, never a stale hit.
                service.refine("beckham")
                final = service.stats()
                assert final["refiner_misses"] == \
                    after["refiner_misses"] + 1

    def test_open_refiners_are_bounded(self, tmp_path):
        """A long-lived service is asked about every interval that
        ever existed; the refiners it keeps open must not grow with
        the index, and evicted ones are rebuilt with equal answers."""
        from repro.graph.clusters import KeywordCluster
        from repro.index import ClusterIndexWriter
        from repro.service.query_service import MAX_OPEN_REFINERS

        index_dir = str(tmp_path / "long")
        cluster = KeywordCluster(
            frozenset({"beckham", "madrid"}),
            edges=(("beckham", "madrid", 0.5),))
        with ClusterIndexWriter(index_dir) as writer:
            for _ in range(1000):
                writer.append_interval([cluster])
            with ClusterQueryService(index_dir) as service:
                first = service.refine("beckham", 0)
                assert first.strongest == "madrid"
                for interval in range(1000):
                    assert service.refine(
                        "beckham", interval) == first
                assert service.stats()["refiners_open"] == \
                    MAX_OPEN_REFINERS
                # A tailing refresh still drops what used to be the
                # latest interval's refiner, and only that one.
                writer.append_interval([cluster])
                assert service.refresh()
                assert service.stats()["refiners_open"] == \
                    MAX_OPEN_REFINERS - 1
                for interval in range(1000, 2000):
                    writer.append_interval([cluster])
                assert service.refresh()
                for interval in range(2000):
                    assert service.refiner(interval).refine(
                        "madrid") is not None
                stats = service.stats()
                assert stats["intervals"] == 2001
                assert stats["refiners_open"] == MAX_OPEN_REFINERS
                # Interval 0 was evicted long ago; its answer is not
                # in the hot LRU either (256 entries, 1000 since).
                assert service.refine("beckham", 0) == first

    def test_use_after_close_raises(self, built):
        """The pool use-after-close contract, mirrored."""
        index_dir, _ = built
        service = ClusterQueryService(index_dir)
        service.refine("beckham")
        service.close()
        service.close()  # idempotent, like the executors
        with pytest.raises(RuntimeError,
                           match="ClusterQueryService used after "
                                 "close"):
            service.refine("beckham")
        with pytest.raises(RuntimeError):
            service.stats()
        with pytest.raises(RuntimeError):
            service.latest_interval

    def test_close_leaves_external_reader_open(self, built):
        from repro.index import ClusterIndexReader
        index_dir, _ = built
        reader = ClusterIndexReader(index_dir)
        service = ClusterQueryService(reader)
        service.close()
        # The service is closed but the borrowed reader still works.
        assert reader.num_intervals > 0
        reader.close()

    def test_cluster_cache_size_needs_owned_reader(self, built):
        from repro.index import ClusterIndexReader
        index_dir, _ = built
        with ClusterIndexReader(index_dir) as reader:
            with pytest.raises(ValueError,
                               match="cluster_cache_size"):
                ClusterQueryService(reader, cluster_cache_size=8)

    def test_concurrent_queries_and_refresh(self, tmp_path):
        """Regression for the thread-unsafe service: two threads
        hammering refine() while a third refresh()-es a growing
        live index must neither crash nor return wrong answers."""
        corpus = _corpus(m=4)
        index_dir = str(tmp_path / "live")
        errors = []
        stop = threading.Event()
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            pipeline.add_documents(corpus.documents(0))
            service = ClusterQueryService(index_dir)
            expected = service.refine("beckham", 0)
            assert expected is not None

            def hammer():
                while not stop.is_set():
                    try:
                        result = service.refine("beckham", 0)
                        if result != expected:
                            errors.append(
                                f"answer changed: {result}")
                        service.lookup("madrid", 0)
                        service.stable_paths()
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        return

            workers = [threading.Thread(target=hammer)
                       for _ in range(2)]
            for worker in workers:
                worker.start()
            try:
                for interval in (1, 2, 3):
                    pipeline.add_documents(
                        corpus.documents(interval))
                    assert service.refresh()
            finally:
                stop.set()
                for worker in workers:
                    worker.join(timeout=10)
        assert not errors, errors[:3]
        assert service.num_intervals == 4
        service.close()

    def test_refresh_tails_a_live_stream(self, tmp_path):
        corpus = _corpus(m=3)
        index_dir = str(tmp_path / "live")
        with StreamingDocumentPipeline(
                l=1, k=2, index_dir=index_dir) as pipeline:
            pipeline.add_documents(corpus.documents(0))
            service = ClusterQueryService(index_dir)
            assert service.num_intervals == 1
            assert not service.complete
            first = service.refine("beckham")
            assert first is not None
            pipeline.add_documents(corpus.documents(1))
            assert service.refresh()
            assert service.num_intervals == 2
            assert service.refine("beckham") is not None
            assert not service.refresh()
        assert service.refresh()
        assert service.complete
        service.close()


class TestIndexCli:
    def test_build_inspect_and_refine_round_trip(self, tmp_path,
                                                 capsys):
        """`index build` + `query refine`: the served answer is
        byte-identical to the in-memory QueryRefiner's rendering."""
        corpus = _corpus()
        posts = _write_jsonl(tmp_path, corpus)
        index_dir = str(tmp_path / "index")
        assert main(["index", "build", posts, "--dir", index_dir,
                     "--length", "2", "-k", "3", "--gap", "1"]) == 0
        out = capsys.readouterr().out
        assert "indexed 4 intervals" in out

        result = find_stable_clusters(corpus, l=2, k=3, gap=1)
        expected = render_refinement(
            QueryRefiner(result.interval_clusters[2]).refine("madrid"))
        assert main(["query", "refine", index_dir, "madrid",
                     "--interval", "2"]) == 0
        out = capsys.readouterr().out
        assert expected in out

        assert main(["index", "inspect", index_dir]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "4 intervals" in out

    def test_query_lookup_and_paths(self, tmp_path, capsys):
        posts = _write_jsonl(tmp_path, _corpus())
        index_dir = str(tmp_path / "index")
        assert main(["index", "build", posts, "--dir", index_dir,
                     "--length", "2", "-k", "2"]) == 0
        capsys.readouterr()
        assert main(["query", "lookup", index_dir, "beckham"]) == 0
        out = capsys.readouterr().out
        assert "beckham" in out and "rho" in out
        assert main(["query", "paths", index_dir,
                     "--keyword", "beckham"]) == 0
        out = capsys.readouterr().out
        assert "stable path" in out
        assert main(["query", "lookup", index_dir,
                     "notaword"]) == 1
        capsys.readouterr()

    def test_stable_index_dir_flag(self, tmp_path, capsys):
        posts = _write_jsonl(tmp_path, _corpus())
        index_dir = str(tmp_path / "index")
        assert main(["stable", posts, "--length", "2", "-k", "2",
                     "--index-dir", index_dir, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "persisted cluster index" in out
        assert "index:" in out  # the plan line
        assert main(["query", "refine", index_dir, "beckham"]) == 0
        capsys.readouterr()

    def test_stream_index_dir_flag(self, tmp_path, capsys):
        posts = _write_jsonl(tmp_path, _corpus())
        index_dir = str(tmp_path / "index")
        assert main(["stream", posts, "--length", "2", "-k", "2",
                     "--index-dir", index_dir]) == 0
        out = capsys.readouterr().out
        assert "persisted cluster index" in out
        assert main(["query", "paths", index_dir]) == 0
        capsys.readouterr()

    def test_query_on_missing_index_is_clean_error(self, tmp_path,
                                                   capsys):
        assert main(["query", "refine",
                     str(tmp_path / "nowhere"), "word"]) == 2
        err = capsys.readouterr().err
        assert "no cluster index" in err

    def test_follow_on_complete_index_renders_once(self, tmp_path,
                                                   capsys):
        posts = _write_jsonl(tmp_path, _corpus())
        index_dir = str(tmp_path / "index")
        assert main(["index", "build", posts, "--dir", index_dir,
                     "--length", "2", "-k", "2"]) == 0
        capsys.readouterr()
        # complete index: --follow renders once and returns.
        assert main(["query", "refine", index_dir, "beckham",
                     "--follow", "--poll", "0.01"]) == 0
        out = capsys.readouterr().out
        assert out.count("query 'beckham'") == 1

    def test_follow_waits_on_an_empty_live_index(self, tmp_path,
                                                 capsys):
        """`query refine --follow` opened before the first interval
        lands must poll, not crash (the documented live pairing)."""
        index_dir = str(tmp_path / "live")
        corpus = _corpus(m=2)
        pipeline = StreamingDocumentPipeline(l=1, k=2,
                                             index_dir=index_dir)
        filled = threading.Event()

        def produce():
            filled.wait(timeout=10)
            pipeline.add_documents(corpus.documents(0))
            pipeline.add_documents(corpus.documents(1))
            pipeline.close()

        producer = threading.Thread(target=produce)
        producer.start()
        filled.set()
        code = main(["query", "refine", index_dir, "beckham",
                     "--follow", "--poll", "0.05",
                     "--max-polls", "200"])
        producer.join(timeout=10)
        out = capsys.readouterr().out
        assert code == 0
        assert "no intervals yet" in out or "query 'beckham'" in out
        assert "query 'beckham'" in out  # a real render arrived

    def test_lookup_follow_flag_works(self, tmp_path, capsys):
        posts = _write_jsonl(tmp_path, _corpus())
        index_dir = str(tmp_path / "index")
        assert main(["index", "build", posts, "--dir", index_dir,
                     "--length", "2", "-k", "2"]) == 0
        capsys.readouterr()
        # Complete index: --follow renders once and exits cleanly.
        assert main(["query", "lookup", index_dir, "beckham",
                     "--follow", "--poll", "0.01"]) == 0
        assert "beckham" in capsys.readouterr().out

    def test_follow_tails_a_concurrent_stream(self, tmp_path, capsys):
        """`query refine --follow` against an index a streaming run
        is appending to concurrently."""
        corpus = _corpus(m=3)
        index_dir = str(tmp_path / "live")
        barrier = threading.Event()

        def produce():
            with StreamingDocumentPipeline(
                    l=1, k=2, index_dir=index_dir) as pipeline:
                pipeline.add_documents(corpus.documents(0))
                barrier.set()
                for interval in (1, 2):
                    pipeline.add_documents(
                        corpus.documents(interval))

        producer = threading.Thread(target=produce)
        producer.start()
        barrier.wait(timeout=10)
        code = main(["query", "refine", index_dir, "beckham",
                     "--follow", "--poll", "0.05",
                     "--max-polls", "200"])
        producer.join(timeout=10)
        assert code == 0
        out = capsys.readouterr().out
        # At least the initial render; the final state is served from
        # the finalized index.
        assert "query 'beckham'" in out
        assert main(["query", "refine", index_dir, "beckham"]) == 0
        capsys.readouterr()
