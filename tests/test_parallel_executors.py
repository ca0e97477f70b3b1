"""Parallel execution layer: executor contract, pickling, and
parallel-vs-serial equivalence of the batch pipeline.

The layer's guarantee is that parallelism changes wall-clock only:
same clusters, same top-k paths whatever the executor.  These tests
pin that guarantee for both problems, gaps 0-2, and all three
executors, keep every task function shipped to
:class:`~repro.parallel.ProcessExecutor` picklable, and pin that the
streaming pipeline, which runs serially, refuses a workers request
and gives the same top-k whichever window-join path runs.
"""

import pickle
from functools import partial

import pytest

from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
)
from repro.engine import GraphStats, StableQuery, plan
from repro.graph.clusters import KeywordCluster
from repro.parallel import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_chunk_size,
    executor_for,
    make_executor,
    open_executor,
    resolve_workers,
)
from repro.parallel.executors import _apply_chunk
from repro.pipeline import (
    ClusterGenerationReport,
    find_stable_clusters,
    generate_interval_clusters_task,
)
from repro.pipeline.stable_pipeline import _generation_stage
from repro.streaming import StreamingDocumentPipeline
from repro.text.documents import Document

EXECUTOR_KINDS = ["serial", "thread", "process"]


def make_test_executor(kind: str) -> Executor:
    """A two-worker executor of the requested kind."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(workers=2)
    return ProcessExecutor(workers=2)


def square(x):
    """Module-level so ProcessExecutor can pickle it."""
    return x * x


def boom(x):
    """Raises for one input (error-propagation fixture)."""
    if x == 3:
        raise ValueError("item 3 exploded")
    return x


# ----------------------------------------------------------------------
# The executor contract
# ----------------------------------------------------------------------

class TestExecutorContract:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_results_in_item_order(self, kind):
        items = list(range(23))
        with make_test_executor(kind) as executor:
            assert executor.map_stages(square, items) == \
                [x * x for x in items]

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_explicit_chunk_size_changes_nothing(self, kind):
        items = list(range(10))
        with make_test_executor(kind) as executor:
            assert executor.map_stages(square, items, chunk_size=3) == \
                [x * x for x in items]

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_empty_items(self, kind):
        with make_test_executor(kind) as executor:
            assert executor.map_stages(square, []) == []

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_exceptions_propagate(self, kind):
        with make_test_executor(kind) as executor:
            with pytest.raises(ValueError, match="item 3"):
                executor.map_stages(boom, range(6))

    def test_pool_survives_repeated_maps(self):
        with ProcessExecutor(workers=2) as executor:
            first = executor.map_stages(square, range(5))
            second = executor.map_stages(square, range(5, 10))
        assert first + second == [x * x for x in range(10)]

    def test_close_is_idempotent(self):
        executor = ThreadExecutor(workers=2)
        executor.map_stages(square, range(3))
        executor.close()
        executor.close()

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_map_after_close_raises(self, kind):
        executor = make_test_executor(kind)
        executor.map_stages(square, range(3))
        executor.close()
        # Silently re-forking a pool here would leak it forever.
        with pytest.raises(RuntimeError, match="after close"):
            executor.map_stages(square, range(3))


class TestWorkerResolution:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # all cores
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_default_chunk_size(self):
        assert default_chunk_size(1, 4) == 1
        assert default_chunk_size(100, 2) >= 1
        # every item lands in some chunk
        size = default_chunk_size(7, 3)
        assert size * ((7 + size - 1) // size) >= 7

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread", workers=2),
                          ThreadExecutor)
        assert isinstance(make_executor("process", workers=2),
                          ProcessExecutor)
        instance = SerialExecutor()
        assert make_executor(instance) is instance
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")

    def test_executor_for(self):
        assert isinstance(executor_for(None), SerialExecutor)
        assert isinstance(executor_for(1), SerialExecutor)
        pool = executor_for(2)
        assert isinstance(pool, ProcessExecutor)
        assert pool.workers == 2
        pool.close()
        instance = ThreadExecutor(workers=2)
        assert executor_for(instance) is instance
        instance.close()

    def test_open_executor_does_not_close_borrowed(self):
        borrowed = ThreadExecutor(workers=2)
        with open_executor(borrowed) as executor:
            assert executor is borrowed
        # still usable: open_executor must not have closed it
        assert borrowed.map_stages(square, [2]) == [4]
        borrowed.close()


# ----------------------------------------------------------------------
# Pickling: every unit of work shipped to a ProcessExecutor
# ----------------------------------------------------------------------

def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestTaskPickling:
    def test_generation_task_function_pickles(self):
        fn = _roundtrip(generate_interval_clusters_task)
        docs = [Document(doc_id="d0", interval=0,
                         text="somalia mogadishu fighting somalia "
                              "mogadishu capital")]
        clusters, report = fn(docs, 0, min_edges=1)
        assert report.num_documents == 1

    def test_generation_stage_partial_pickles(self):
        stage = partial(_generation_stage, rho_threshold=0.2,
                        min_edges=2, external=False, directory=None)
        revived = _roundtrip(stage)
        clusters, report = revived((1, []))
        assert clusters == [] and report.interval == 1

    def test_apply_chunk_pickles(self):
        fn = _roundtrip(_apply_chunk)
        assert fn(square, [2, 3]) == [4, 9]

    def test_work_item_payloads_pickle(self):
        doc = Document(doc_id="x", interval=2, text="alpha beta")
        cluster = KeywordCluster(frozenset({"alpha", "beta"}),
                                 edges=(("alpha", "beta", 0.4),),
                                 interval=2)
        report = ClusterGenerationReport(interval=2, num_documents=5)
        assert _roundtrip(doc) == doc
        assert _roundtrip(cluster) == cluster
        assert _roundtrip(report) == report


# ----------------------------------------------------------------------
# Report aggregation
# ----------------------------------------------------------------------

class TestReportMerge:
    def test_merge_sums_counts_and_seconds(self):
        a = ClusterGenerationReport(interval=3, num_documents=10,
                                    num_keywords=100, num_edges=400,
                                    edges_after_chi2=50,
                                    edges_after_rho=20, num_clusters=4,
                                    seconds_counting=0.5,
                                    seconds_pruning=0.25,
                                    seconds_art=0.125)
        b = ClusterGenerationReport(interval=1, num_documents=7,
                                    num_keywords=30, num_edges=60,
                                    edges_after_chi2=9,
                                    edges_after_rho=6, num_clusters=2,
                                    seconds_counting=1.0,
                                    seconds_pruning=0.5,
                                    seconds_art=0.25)
        merged = ClusterGenerationReport.merge([a, b])
        assert merged.interval == 1  # labels the merged range
        assert merged.num_documents == 17
        assert merged.num_keywords == 130
        assert merged.num_edges == 460
        assert merged.edges_after_chi2 == 59
        assert merged.edges_after_rho == 26
        assert merged.num_clusters == 6
        assert merged.seconds_total == pytest.approx(2.625)
        assert (a + b) == merged

    def test_merge_empty_is_zero_row(self):
        merged = ClusterGenerationReport.merge([])
        assert merged.num_documents == 0
        assert merged.seconds_total == 0.0


# ----------------------------------------------------------------------
# Batch pipeline: parallel == serial, both problems, gaps 0-2
# ----------------------------------------------------------------------

SOMALIA = ["somalia", "mogadishu", "ethiopian", "islamist"]
FACUP = ["liverpool", "arsenal", "anfield", "rosicky"]


@pytest.fixture(scope="module")
def corpus():
    schedule = (EventSchedule()
                .add(Event.persistent("somalia", SOMALIA, 0, 4, 60))
                .add(Event.with_gaps("facup", FACUP, [0, 2], 60)))
    vocab = ZipfVocabulary(1200, seed=11)
    generator = BlogosphereGenerator(vocab, schedule,
                                     background_posts=120, seed=12)
    return generator.generate_corpus(4)


def _signature(result):
    """Executor-invariant view of a pipeline result."""
    clusters = [[c.keywords for c in interval]
                for interval in result.interval_clusters]
    paths = [(p.nodes, pytest.approx(p.weight)) for p in result.paths]
    return clusters, paths


@pytest.fixture(scope="module")
def serial_baselines(corpus):
    baselines = {}
    for problem in ("kl", "normalized"):
        for gap in (0, 1, 2):
            result = find_stable_clusters(corpus, l=2, k=5, gap=gap,
                                          problem=problem)
            baselines[(problem, gap)] = _signature(result)
    return baselines


class TestBatchEquivalence:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    @pytest.mark.parametrize("gap", [0, 1, 2])
    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    def test_same_clusters_and_paths(self, corpus, serial_baselines,
                                     problem, gap, kind):
        with make_test_executor(kind) as executor:
            result = find_stable_clusters(corpus, l=2, k=5, gap=gap,
                                          problem=problem,
                                          workers=executor)
        clusters, paths = _signature(result)
        base_clusters, base_paths = serial_baselines[(problem, gap)]
        assert clusters == base_clusters
        assert paths == base_paths

    def test_worker_count_request_equivalent(self, corpus,
                                             serial_baselines):
        result = find_stable_clusters(corpus, l=2, k=5, gap=1,
                                      workers=2)
        assert _signature(result) == serial_baselines[("kl", 1)]
        assert result.plan.workers == 2

    def test_oversized_request_clamped_and_equivalent(
            self, corpus, serial_baselines):
        # 4 intervals: the executed pool and the reported plan both
        # clamp a 16-worker request to 4.
        result = find_stable_clusters(corpus, l=2, k=5, gap=1,
                                      workers=16)
        assert _signature(result) == serial_baselines[("kl", 1)]
        assert result.plan.workers == 4

    def test_generation_summary_merges_intervals(self, corpus):
        result = find_stable_clusters(corpus, l=2, k=5, gap=0)
        summary = result.generation_summary()
        assert summary.num_documents == corpus.num_documents
        assert summary.num_clusters == sum(
            len(c) for c in result.interval_clusters)


# ----------------------------------------------------------------------
# Streaming pipeline: serial only
# ----------------------------------------------------------------------

def _interval_texts(num_intervals):
    texts = []
    for t in range(num_intervals):
        interval = [
            "somalia mogadishu ethiopian islamist fighting capital"
            for _ in range(12)]
        interval += [f"noise{t} filler{i} assorted chatter" + " padding"
                     for i in range(6)]
        texts.append(interval)
    return texts


class TestStreamingSerial:
    @pytest.mark.parametrize("cutoff", [0, 1], ids=["join", "mixed"])
    @pytest.mark.parametrize("gap", [0, 1, 2])
    @pytest.mark.parametrize("problem", ["kl", "normalized"])
    def test_same_topk_whichever_join_runs(self, problem, gap, cutoff,
                                           monkeypatch):
        """A huge cutoff keeps the all-pairs loop everywhere; cutoff 0
        engages the prefix-filter join on every interval, and cutoff
        1 only where window x new exceeds one pair.  The top-k over
        the same documents must not depend on which one ran."""
        texts = _interval_texts(4)

        def replay(cutoff):
            monkeypatch.setattr(
                "repro.affinity.windowjoin.SIMJOIN_CUTOFF", cutoff)
            with StreamingDocumentPipeline(l=2, k=4, gap=gap,
                                           problem=problem) as pipeline:
                for interval in texts:
                    pipeline.add_texts(interval)
                return [(p.nodes, pytest.approx(p.weight))
                        for p in pipeline.top_k()]

        baseline = replay(10 ** 9)
        assert baseline  # the stream must produce stable paths
        assert replay(cutoff) == baseline

    def test_from_query_refuses_workers_request(self):
        query = StableQuery(problem="kl", l=2, k=3, gap=1, workers=2)
        with pytest.raises(ValueError, match="serially"):
            StreamingDocumentPipeline.from_query(query)

    def test_generation_summary_accumulates(self):
        texts = _interval_texts(3)
        with StreamingDocumentPipeline(l=2, k=3, gap=1) as pipeline:
            for interval in texts:
                pipeline.add_texts(interval)
            summary = pipeline.generation_summary()
        assert summary.num_documents == sum(len(t) for t in texts)
        assert len(pipeline.generation_reports) == 3


# ----------------------------------------------------------------------
# The planner's worker dimension
# ----------------------------------------------------------------------

class TestPlannerWorkers:
    STATS = GraphStats(num_intervals=5, max_interval_nodes=40,
                       avg_out_degree=3.0, gap=1, num_nodes=200,
                       num_edges=600)

    def test_default_is_serial(self):
        execution = plan(StableQuery(problem="kl", l=3, k=5, gap=1),
                         self.STATS)
        assert execution.workers == 1
        assert "workers:  serial" in execution.explain()

    def test_requested_workers_reported(self):
        query = StableQuery(problem="kl", l=3, k=5, gap=1, workers=4)
        execution = plan(query, self.STATS)
        assert execution.workers == 4
        assert "workers:  4" in execution.explain()

    def test_batch_clamped_to_intervals(self):
        query = StableQuery(problem="kl", l=3, k=5, gap=1, workers=16)
        execution = plan(query, self.STATS)
        assert execution.workers == 5  # m = 5 generation tasks
        assert any("clamped" in reason for reason in execution.reasons)

    def test_workers_auto_resolves_to_cores(self):
        query = StableQuery(problem="kl", l=3, k=5, gap=1, workers=0)
        execution = plan(query, self.STATS)
        assert execution.workers >= 1
        assert "workers=auto" in query.describe()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            StableQuery(problem="kl", l=3, k=5, workers=-1)
