"""Tests for the distributed scatter-gather tier.

The contract under test is byte-identity: every answer a
:class:`~repro.distributed.DistributedQueryService` merges from its
shard workers must encode to the exact bytes the in-process
:class:`~repro.service.ClusterQueryService` serves over the same
index — across both paper problems, gaps 0-2, batch/live/merged
index layouts, and through worker crashes and injected stragglers.
"""

import os
import signal
import time
import urllib.request

import pytest

from repro.cli import main
from repro.distributed import (
    DistributedQueryService,
    DistributedTimeout,
    build_refinement,
    build_sharded_index,
    detach_cluster,
    merge_best,
    merge_paths,
    revive_cluster,
)
from repro.graph.clusters import KeywordCluster
from repro.index import (
    ClusterIndexReader,
    ClusterIndexWriter,
    compact_index,
)
from repro.pipeline import find_stable_clusters
from repro.search.refinement import prefer_larger
from repro.service import ClusterQueryService
from repro.serving import (
    ClusterServer,
    encode_payload,
    lookup_payload,
    paths_payload,
    refine_payload,
)
from repro.text.documents import Document, IntervalCorpus

KEYWORDS = ("somalia", "mogadishu", "islamist", "noise1",
            "nosuchword")


def _corpus(m=4):
    docs = []
    doc = 0
    for interval in range(m):
        for _ in range(20):
            docs.append(Document(
                doc_id=f"e{doc}", interval=interval,
                text="somalia mogadishu ethiopian islamist"))
            doc += 1
        for i in range(6):
            docs.append(Document(doc_id=f"b{doc}", interval=interval,
                                 text=f"noise{i} filler{interval} "
                                      f"chatter{doc}"))
            doc += 1
    corpus = IntervalCorpus()
    corpus.extend(docs)
    return corpus


# One pipeline run per (problem, gap) for the whole module — the
# variants below re-persist the same in-memory result three ways.
_RESULTS = {}


def _result(problem, gap):
    key = (problem, gap)
    if key not in _RESULTS:
        _RESULTS[key] = find_stable_clusters(
            _corpus(), l=2, k=3, gap=gap, problem=problem)
    return _RESULTS[key]


def build_variant(directory, result, variant):
    """Persist *result* as a batch, live-streamed or merged index."""
    if variant == "batch":
        ClusterIndexWriter.write_run(
            directory, result.interval_clusters, result.paths,
            vocab=result.vocabulary, plan=result.plan)
        return
    if variant == "live":
        # Flush per interval and abort without finalizing: the
        # still-growing layout a tailing reader sees.
        writer = ClusterIndexWriter(directory, vocab=result.vocabulary,
                                    flush_intervals=1)
        for clusters in result.interval_clusters:
            writer.append_interval(clusters)
        writer.set_paths(result.paths)
        writer.abort()
        return
    assert variant == "merged"
    ClusterIndexWriter.write_run(
        directory, result.interval_clusters, result.paths,
        vocab=result.vocabulary, flush_intervals=1)
    compact_index(directory, full=True)


def assert_identical(service, coordinator):
    """Every probe payload must match the in-process bytes."""
    for keyword in KEYWORDS:
        for interval in (None, 0):
            assert encode_payload(
                refine_payload(coordinator, keyword, interval)
            ) == encode_payload(
                refine_payload(service, keyword, interval))
            assert encode_payload(
                lookup_payload(coordinator, keyword, interval)
            ) == encode_payload(
                lookup_payload(service, keyword, interval))
        assert encode_payload(
            paths_payload(coordinator, keyword)
        ) == encode_payload(paths_payload(service, keyword))
    assert encode_payload(paths_payload(coordinator)) == \
        encode_payload(paths_payload(service))


class TestByteIdentity:
    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    @pytest.mark.parametrize("gap", [0, 1, 2])
    @pytest.mark.parametrize("variant", ["batch", "live", "merged"])
    def test_matches_single_process(self, tmp_path, problem, gap,
                                    variant):
        directory = str(tmp_path / "index")
        build_variant(directory, _result(problem, gap), variant)
        with ClusterQueryService(directory) as service, \
                DistributedQueryService(directory,
                                        workers=2) as coordinator:
            assert coordinator.num_intervals == \
                service.num_intervals
            assert_identical(service, coordinator)
            assert coordinator.stats()["workers"] == 2

    def test_render_path_matches(self, tmp_path):
        directory = str(tmp_path / "index")
        result = _result("kl", 1)
        build_variant(directory, result, "batch")
        with ClusterQueryService(directory) as service, \
                DistributedQueryService(directory,
                                        workers=2) as coordinator:
            for path in service.stable_paths():
                assert coordinator.render_path(path) == \
                    service.render_path(path)


class TestFaultInjection:
    def test_killed_worker_respawns_and_answers(self, tmp_path):
        directory = str(tmp_path / "index")
        build_variant(directory, _result("kl", 1), "batch")
        with ClusterQueryService(directory) as service, \
                DistributedQueryService(
                    directory, workers=2, cache_size=0,
                    cluster_cache_size=0) as coordinator:
            assert_identical(service, coordinator)
            victim = coordinator.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            # The very next scatter sees the dead pipe, respawns the
            # worker, re-sends its pending partials — and still
            # produces the exact single-process answer.
            assert_identical(service, coordinator)
            stats = coordinator.stats()
            assert stats["worker_deaths"] >= 1
            assert stats["respawns"] >= 1
            assert coordinator.worker_pids()[0] != victim

    def test_straggler_is_hedged_not_waited_for(self, tmp_path):
        directory = str(tmp_path / "index")
        build_variant(directory, _result("kl", 1), "batch")
        with ClusterQueryService(directory) as service, \
                DistributedQueryService(
                    directory, workers=2, cache_size=0,
                    cluster_cache_size=0,
                    hedge_delay=0.05) as coordinator:
            coordinator.set_worker_delay(0, 0.8)
            started = time.perf_counter()
            assert_identical(service, coordinator)
            elapsed = time.perf_counter() - started
            # 22 scatters at 0.8s each would take ~18s unhedged; the
            # replica answers each hedged partial in milliseconds.
            assert elapsed < 0.7 * 22
            assert coordinator.stats()["hedged_calls"] >= 1

    def test_everyone_slow_raises_timeout(self, tmp_path):
        directory = str(tmp_path / "index")
        build_variant(directory, _result("kl", 1), "batch")
        with DistributedQueryService(
                directory, workers=2, cache_size=0,
                cluster_cache_size=0, request_timeout=0.3,
                hedge_delay=0.05) as coordinator:
            coordinator.set_worker_delay(0, 2.0)
            coordinator.set_worker_delay(1, 2.0)
            with pytest.raises(DistributedTimeout):
                coordinator.refine("somalia")
            assert coordinator.stats()["timeouts"] >= 1

    def test_closed_coordinator_refuses_queries(self, tmp_path):
        directory = str(tmp_path / "index")
        build_variant(directory, _result("kl", 1), "batch")
        coordinator = DistributedQueryService(directory, workers=2)
        coordinator.close()
        with pytest.raises(RuntimeError):
            coordinator.refine("somalia")


def _cluster(keywords, weight, interval=0):
    ordered = sorted(keywords)
    edges = tuple((a, b, weight) for i, a in enumerate(ordered)
                  for b in ordered[i + 1:])
    return KeywordCluster(frozenset(ordered), edges=edges,
                          interval=interval)


class TestMergeContract:
    def test_detach_revive_round_trip(self):
        cluster = _cluster(["b", "a", "c"], 0.5, interval=3)
        revived = revive_cluster(detach_cluster(cluster))
        assert revived.keywords == cluster.keywords
        assert tuple(revived.edges) == tuple(cluster.edges)
        assert revived.interval == cluster.interval

    def test_merge_best_replays_single_process_fold(self):
        small = _cluster(["a", "b"], 0.3)
        large = _cluster(["c", "d", "e"], 0.4)
        other = _cluster(["f", "g", "h"], 0.2)
        # Single-process rule over ascending node order.
        expected = None
        for cluster in (small, large, other):
            expected = prefer_larger(expected, cluster)
        merged = merge_best([
            ((0, 2), detach_cluster(other)),
            ((0, 0), detach_cluster(small)),
            None,
            ((0, 1), detach_cluster(large)),
        ])
        assert merged.keywords == expected.keywords
        assert merge_best([None, None]) is None

    def test_merge_best_tie_prefers_first_node(self):
        first = _cluster(["a", "b", "c"], 0.9)
        second = _cluster(["x", "y", "z"], 0.1)
        merged = merge_best([
            ((1, 5), detach_cluster(second)),
            ((1, 2), detach_cluster(first)),
        ])
        assert merged.keywords == first.keywords

    def test_build_refinement_matches_refiner_shape(self):
        cluster = _cluster(["somalia", "mogadishu"], 0.7)
        refinement = build_refinement("Somalia", cluster)
        assert refinement.query_stem == "somalia"
        assert refinement.cluster.keywords == cluster.keywords
        assert refinement.suggestions
        assert build_refinement("somalia", None) is None

    def test_merge_paths_dedups_and_orders(self):
        paths = ["p0", "p1", "p2"]
        merged = merge_paths([
            [(2, paths[2]), (0, paths[0])],
            [(2, paths[2]), (1, paths[1])],
        ])
        assert merged == paths


def _assert_same_files(expected_root, actual_root):
    def tree(root):
        names = []
        for base, _, files in os.walk(root):
            for name in files:
                full = os.path.join(base, name)
                names.append(os.path.relpath(full, root))
        return sorted(names)

    expected_files = tree(expected_root)
    assert tree(actual_root) == expected_files
    for name in expected_files:
        with open(os.path.join(expected_root, name), "rb") as fh:
            expected = fh.read()
        with open(os.path.join(actual_root, name), "rb") as fh:
            actual = fh.read()
        assert actual == expected, f"{name} diverged"


class TestShardedBuild:
    def test_sharded_build_is_byte_identical(self, tmp_path):
        result = _result("kl", 1)
        serial_dir = str(tmp_path / "serial")
        sharded_dir = str(tmp_path / "sharded")
        ClusterIndexWriter.write_run(
            serial_dir, result.interval_clusters, result.paths,
            vocab=result.vocabulary, plan=result.plan)
        build_sharded_index(
            sharded_dir, result.interval_clusters, result.paths,
            vocab=result.vocabulary, plan=result.plan, workers=2)
        _assert_same_files(serial_dir, sharded_dir)

    def test_sharded_build_without_a_plan_is_byte_identical(
            self, tmp_path):
        result = _result("kl", 1)
        serial_dir = str(tmp_path / "serial")
        sharded_dir = str(tmp_path / "sharded")
        ClusterIndexWriter.write_run(
            serial_dir, result.interval_clusters, result.paths,
            vocab=result.vocabulary)
        build_sharded_index(
            sharded_dir, result.interval_clusters, result.paths,
            vocab=result.vocabulary, workers=2)
        _assert_same_files(serial_dir, sharded_dir)

    def test_sharded_build_serves_queries(self, tmp_path):
        result = _result("kl", 1)
        directory = str(tmp_path / "index")
        build_sharded_index(
            directory, result.interval_clusters, result.paths,
            vocab=result.vocabulary, workers=2)
        with ClusterQueryService(directory) as service, \
                DistributedQueryService(directory,
                                        workers=2) as coordinator:
            assert_identical(service, coordinator)


class TestShardInspection:
    def test_shard_summary_accounts_for_every_record(self, tmp_path):
        result = _result("kl", 1)
        directory = str(tmp_path / "index")
        build_variant(directory, result, "batch")
        total = sum(len(clusters)
                    for clusters in result.interval_clusters)
        with ClusterIndexReader(directory) as reader:
            summary = reader.shard_summary()
            assert sum(info["records"] for info in summary) == total
            assert all(info["bytes"] > 0 for info in summary
                       if info["records"])
            described = reader.describe(shards=True)
        assert "shards:" in described
        assert "clusters-000.bin" in described

    def test_cli_inspect_shards_flag(self, tmp_path, capsys):
        directory = str(tmp_path / "index")
        build_variant(directory, _result("kl", 1), "batch")
        assert main(["index", "inspect", directory,
                     "--shards"]) == 0
        out = capsys.readouterr().out
        assert "shards:" in out
        assert "records" in out


class TestDistributedHTTP:
    def test_server_over_coordinator_serves_same_bytes(self,
                                                       tmp_path):
        directory = str(tmp_path / "index")
        build_variant(directory, _result("kl", 1), "batch")
        with ClusterQueryService(directory) as service, \
                DistributedQueryService(directory,
                                        workers=2) as coordinator:
            server = ClusterServer(coordinator).start()
            try:
                for probe, expected in (
                        ("/refine?keyword=somalia",
                         refine_payload(service, "somalia")),
                        ("/lookup?keyword=mogadishu",
                         lookup_payload(service, "mogadishu")),
                        ("/paths?keyword=somalia",
                         paths_payload(service, "somalia"))):
                    with urllib.request.urlopen(
                            server.url + probe) as response:
                        body = response.read()
                    assert body == encode_payload(expected)
                with urllib.request.urlopen(
                        server.url + "/stats") as response:
                    stats = response.read().decode("utf-8")
                assert '"workers": 2' in stats
            finally:
                server.close()
