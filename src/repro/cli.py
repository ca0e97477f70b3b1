"""Command-line front end: ``stable-clusters``.

Subcommands (all documented in ``docs/cli.md``):

* ``demo`` — generate a synthetic blogosphere week with scripted
  events and print the stable clusters it discovers (the qualitative
  study of Section 5.3 in miniature).
* ``clusters`` — run Section 3 cluster generation over documents read
  from a file (one JSON object per line: ``{"interval": 0, "text":
  "..."}``) and print the per-interval keyword clusters.
* ``stable`` — full pipeline over the same input format, printing the
  top-k stable paths; ``--index-dir`` persists the run as a queryable
  cluster index.
* ``stream`` — replay the same JSONL input *incrementally* (Section
  4.6); ``--index-dir`` maintains a live index a concurrent ``query
  --follow`` can tail.
* ``corpus`` — real-corpus ingestion (:mod:`repro.corpus`): ``stats``
  measures a DBLP-XML/JSONL/CSV file (ingest report + per-interval
  histogram), ``ingest`` converts any of those formats to the
  canonical JSONL wire format; the same adapters mount on
  ``stable``/``stream``/``index build`` via ``--corpus FILE --format
  dblp|jsonl|csv``.
* ``index`` — ``build`` a persistent cluster index from a corpus,
  ``inspect`` an existing one (``--segments`` lists the live segment
  tier), or ``merge`` (compact) its sealed segments.
* ``query`` — serve from a persisted index without recomputing:
  ``refine`` (Section 1's query-refinement suggestions), ``lookup``
  (keyword -> cluster point lookup), ``paths`` (stable paths,
  optionally filtered by keyword).
* ``serve`` — expose a persisted (or live) index over HTTP: the
  concurrent JSON endpoints of :mod:`repro.serving`, with admission
  control under ``--memory-budget`` and single-flight request
  batching.
* ``explain`` — print the planner's decision for a described workload
  (graph shape + query) without running anything; ``--serve`` adds
  the cache split and admission bound ``serve`` would run with.
* ``bench-graph`` — generate a Section 5.2 synthetic cluster graph and
  time any set of registered solvers on it.

Every search path goes through the unified engine layer
(:mod:`repro.engine`); all serving paths go through
:mod:`repro.index` / :mod:`repro.service`.  Flags shared by several
subcommands (``--length``/``-k``/``--gap``/``--problem``, ``--rho``/
``--theta``, ``--solver``, ``--memory-budget``, ``--workers``, the
graph-shape flags) are defined once as parent parsers below, so their
help text and defaults cannot drift between subcommands.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.datagen import (
    BlogosphereGenerator,
    Event,
    EventSchedule,
    ZipfVocabulary,
    synthetic_cluster_graph,
)
from repro.datagen.events import drifting_event
from repro.distributed import (
    DistributedQueryService,
    build_sharded_index,
)
from repro.corpus import (
    ADAPTERS,
    CorpusAdapter,
    IntervalBucketing,
    dump_jsonl,
    open_adapter,
)
from repro.engine import (
    GraphStats,
    StableQuery,
    apply_serving_dimension,
    explain as plan_query,
    get_solver,
    plan_streaming,
    solve_report,
    solver_names,
)
from repro.index import (
    DEFAULT_FLUSH_INTERVALS,
    compact_index,
    load_manifest,
)
from repro.pipeline import (
    find_stable_clusters,
    generate_interval_clusters,
    render_path_clusters,
    render_stable_path,
)
from repro.search import render_refinement
from repro.service import ClusterQueryService
from repro.serving import ClusterServer
from repro.storage import open_store
from repro.streaming import (
    StreamingDocumentPipeline,
    interval_batches,
    read_jsonl_documents,
)
from repro.text.documents import IntervalCorpus

SOLVER_CHOICES = ["auto"] + solver_names()
STREAM_SOLVER_CHOICES = ["auto", "bfs", "normalized"]


def _demo_schedule() -> EventSchedule:
    schedule = EventSchedule()
    schedule.add(Event.burst(
        "stemcell", ["stem", "cell", "amniotic", "research", "atala"],
        interval=2, posts=60))
    schedule.add(Event.persistent(
        "somalia", ["somalia", "mogadishu", "ethiopian", "islamist",
                    "kamboni"],
        start=0, duration=7, posts=45, ramp=[1, 1, 1.6, 1.6, 1.2, 1, 1]))
    schedule.add(Event.with_gaps(
        "facup", ["liverpool", "arsenal", "anfield", "goal"],
        active_intervals=[0, 3, 4], posts=50))
    schedule.extend(drifting_event(
        "iphone", shared=["apple", "iphone"],
        first_phase=["touchscreen", "keynote", "features"],
        second_phase=["cisco", "lawsuit", "trademark"],
        start=3, phase1_len=2, phase2_len=2, posts=55))
    return schedule


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the synthetic-week walkthrough (Section 5.3 demo)."""
    vocab = ZipfVocabulary(args.vocabulary, seed=args.seed)
    generator = BlogosphereGenerator(
        vocab, _demo_schedule(), background_posts=args.background,
        seed=args.seed)
    corpus = generator.generate_corpus(7)
    print(f"generated {corpus.num_documents} posts over 7 days")
    result = find_stable_clusters(corpus, l=args.length, k=args.k,
                                  gap=args.gap, problem=args.problem,
                                  solver=args.solver,
                                  workers=args.workers)
    sizes = [len(c) for c in result.interval_clusters]
    print(f"clusters per day: {sizes}")
    print(f"cluster graph: {result.cluster_graph}")
    if not result.paths:
        print("no stable paths found")
        return 1
    for path in result.paths:
        print()
        print(render_stable_path(result, path))
    return 0


def _read_corpus(path: str) -> IntervalCorpus:
    corpus = IntervalCorpus()
    corpus.extend(read_jsonl_documents(path))
    return corpus


def _corpus_adapter(args: argparse.Namespace) -> CorpusAdapter:
    """Build the adapter ``--corpus``/``--format`` (and the field-
    mapping/bucketing flags) describe."""
    bucketing = None
    if args.bucket is not None:
        bucketing = IntervalBucketing.parse(args.bucket,
                                            origin=args.origin)
    elif args.origin is not None:
        cls = ADAPTERS[args.format]
        default = cls.default_bucketing()
        bucketing = IntervalBucketing(mode=default.mode,
                                      width=default.width,
                                      origin=args.origin)
    fields = {}
    if args.format != "dblp":
        fields = {"text_field": args.text_field,
                  "time_field": args.time_field,
                  "id_field": args.id_field}
    return open_adapter(args.format, args.corpus, bucketing=bucketing,
                        strict=args.strict, **fields)


def _load_corpus(args: argparse.Namespace):
    """Resolve a subcommand's input into an
    :class:`~repro.text.IntervalCorpus`.

    Either the positional JSONL ``input`` (the historical wire
    format) or ``--corpus FILE --format ...`` through an adapter —
    exactly one of the two.  Returns ``(corpus, adapter)``; the
    adapter is ``None`` on the positional path.
    """
    has_input = getattr(args, "input", None) is not None
    has_corpus = getattr(args, "corpus", None) is not None
    if has_input == has_corpus:
        raise ValueError(
            "supply either a positional JSONL input or "
            "--corpus FILE (with --format), not "
            + ("both" if has_input else "neither"))
    if has_input:
        return _read_corpus(args.input), None
    adapter = _corpus_adapter(args)
    corpus = IntervalCorpus.from_adapter(adapter)
    return corpus, adapter


def cmd_clusters(args: argparse.Namespace) -> int:
    """Print per-interval keyword clusters for a JSONL corpus."""
    corpus = _read_corpus(args.input)
    for interval in corpus.interval_indices:
        clusters = generate_interval_clusters(
            corpus, interval, rho_threshold=args.rho)
        print(f"interval {interval}: {len(clusters)} clusters")
        for cluster in sorted(clusters, key=len, reverse=True)[:args.top]:
            print(f"  {' '.join(sorted(cluster.keywords))}")
    return 0


def _memory_budget_bytes(args: argparse.Namespace) -> Optional[int]:
    if getattr(args, "memory_budget", None) is None:
        return None
    return int(args.memory_budget * 1024 * 1024)


def _run_batch(args: argparse.Namespace,
               index_dir: Optional[str]):
    """The shared ``stable``/``index build`` execution path."""
    corpus, adapter = _load_corpus(args)
    if adapter is not None:
        print(adapter.report.describe())
        print()
    return find_stable_clusters(corpus, l=args.length, k=args.k,
                                gap=args.gap, problem=args.problem,
                                rho_threshold=args.rho,
                                theta=args.theta,
                                solver=args.solver,
                                memory_budget=_memory_budget_bytes(args),
                                workers=args.workers,
                                index_dir=index_dir,
                                index_append=getattr(
                                    args, "index_append", False))


def cmd_stable(args: argparse.Namespace) -> int:
    """Run the full stable-cluster pipeline on a JSONL corpus."""
    result = _run_batch(args, args.index_dir)
    if args.explain and result.plan is not None:
        print(result.plan.explain())
        print()
    if result.index_dir is not None:
        print(f"persisted cluster index: {result.index_dir} "
              f"({result.plan.index_bytes} log bytes, "
              f"{result.plan.index_segments} segments)")
        print()
    if not result.paths:
        print("no stable paths found")
        return 1
    for path in result.paths:
        print(render_stable_path(result, path))
        print()
    return 0


def _render_stream_path(pipeline: StreamingDocumentPipeline,
                        path) -> str:
    """Render one maintained path; clusters older than the window
    have been evicted and render as such."""
    return render_path_clusters(
        path, pipeline.cluster_for,
        missing="(evicted from the g + 1 window)")


def cmd_stream(args: argparse.Namespace) -> int:
    """Replay a JSONL corpus interval by interval through the
    streaming ingestion pipeline (Section 4.6 serving mode)."""
    query = StableQuery(problem=args.problem, l=args.length,
                        k=args.k, gap=args.gap,
                        memory_budget=_memory_budget_bytes(args))
    if args.solver not in ("auto", query.streaming_solver):
        raise ValueError(
            f"solver {args.solver!r} cannot stream "
            f"problem={args.problem!r}; the streaming engine for it "
            f"is {query.streaming_solver!r}")
    corpus_in, adapter = _load_corpus(args)
    if adapter is not None:
        print(adapter.report.describe())
        print()
    all_documents = [doc for index in corpus_in.interval_indices
                     for doc in corpus_in.documents(index)]
    if not all_documents:
        print("error: no documents in input", file=sys.stderr)
        return 2
    first_seen = min(doc.interval for doc in all_documents)
    num_intervals = max(doc.interval
                        for doc in all_documents) - first_seen + 1

    # Cluster the first interval up front: its cluster count is the
    # planner's estimate of the per-interval shape (a live deployment
    # would measure the first intervals the same way); the remaining
    # batches are consumed lazily as the replay reaches them.
    batches = interval_batches(all_documents)
    first_interval, first_docs = next(batches)
    corpus0 = IntervalCorpus()
    corpus0.extend(first_docs)
    clustering_started = time.perf_counter()
    clusters0 = generate_interval_clusters(
        corpus0, first_interval, rho_threshold=args.rho)
    clustering_seconds = time.perf_counter() - clustering_started
    graph_stats = GraphStats(
        num_intervals=num_intervals,
        max_interval_nodes=max(1, len(clusters0)),
        avg_out_degree=0.0, gap=args.gap)
    execution = plan_streaming(query, graph_stats)
    if args.backend != "auto":
        execution.backend = args.backend
        if args.backend == "sharded" and execution.num_shards < 2:
            execution.num_shards = 4
        execution.reasons.append(
            f"backend {args.backend!r} forced by --backend")
    execution.index_dir = args.index_dir
    if args.explain:
        print(execution.explain())
        print()

    owned_dir: Optional[str] = None
    store = None
    pipeline = None
    replayed = False
    try:
        if execution.backend != "memory":
            state_dir = args.state_dir
            if state_dir is None:
                owned_dir = tempfile.mkdtemp(prefix="repro-stream-")
                state_dir = owned_dir
            store = open_store(
                execution.backend, directory=state_dir,
                num_shards=execution.num_shards,
                compact_garbage_bytes=execution.compact_garbage_bytes)
        pipeline = StreamingDocumentPipeline.from_query(
            query, rho_threshold=args.rho, theta=args.theta,
            store=store, index_dir=args.index_dir,
            index_append=not args.index_rebuild,
            flush_intervals=args.flush_intervals)

        def emit(report) -> None:
            if not args.follow:
                return
            print(report.describe())
            for path in pipeline.top_k():
                print(f"  {path}")

        report = pipeline.add_clusters(clusters0)
        report.num_documents = len(first_docs)
        report.seconds_clustering = clustering_seconds
        emit(report)
        for interval, documents in batches:
            emit(pipeline.add_documents(documents))
        replayed = True
        paths = pipeline.top_k()
        if not paths:
            print("no stable paths found")
            return 1
        if args.follow:
            print()
        for path in paths:
            print(_render_stream_path(pipeline, path))
            print()
    finally:
        if pipeline is not None:
            # An interrupted replay leaves the live index marked
            # incomplete rather than stamping a truncated run final.
            pipeline.close(finalize_index=replayed)
        if store is not None:
            store.close()
        if owned_dir is not None:
            shutil.rmtree(owned_dir, ignore_errors=True)
    if args.index_dir is not None:
        manifest = load_manifest(args.index_dir)
        print(f"persisted cluster index: {args.index_dir} "
              f"({len(manifest['segments'])} segments, "
              f"generation {manifest['generation']})")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the planner's decision for a described workload."""
    length = None if args.length == 0 else args.length
    if args.problem == "normalized" and length is None:
        print("explain: --problem normalized needs --length (lmin)",
              file=sys.stderr)
        return 2
    query = StableQuery(problem=args.problem, l=length,
                        k=args.k, gap=args.gap, workers=args.workers)
    graph_stats = GraphStats(
        num_intervals=args.m, max_interval_nodes=args.n,
        avg_out_degree=float(args.d), gap=args.gap,
        num_nodes=args.m * args.n,
        num_edges=int(args.m * args.n * args.d))
    execution = plan_query(graph_stats, query,
                           memory_budget=_memory_budget_bytes(args))
    if args.serve:
        apply_serving_dimension(execution)
    print(execution.explain())
    return 0


@dataclass(frozen=True)
class CorpusStats:
    """Measured shape of an ingested corpus (documents, not clusters)."""

    num_intervals: int
    num_documents: int
    max_interval_documents: int
    source: str = ""
    format: str = ""

    @classmethod
    def measure(cls, corpus, source: str = "",
                format: str = "") -> "CorpusStats":
        """Measure an :class:`~repro.text.IntervalCorpus` (one pass)."""
        sizes = [len(corpus.documents(i))
                 for i in corpus.interval_indices]
        return cls(num_intervals=corpus.num_intervals,
                   num_documents=corpus.num_documents,
                   max_interval_documents=max(sizes) if sizes else 0,
                   source=source, format=format)

    def describe(self) -> str:
        """Compact one-line rendering."""
        where = f" from {self.source}" if self.source else ""
        label = f" ({self.format})" if self.format else ""
        return (f"{self.num_documents} docs over "
                f"{self.num_intervals} intervals, max "
                f"{self.max_interval_documents}/interval"
                f"{where}{label}")


def cmd_corpus_stats(args: argparse.Namespace) -> int:
    """Measure a corpus file: ingest report plus interval shape."""
    adapter = _corpus_adapter(args)
    corpus = IntervalCorpus.from_adapter(adapter)
    print(adapter.report.describe())
    stats = CorpusStats.measure(corpus, source=adapter.source_name,
                                format=adapter.format_name)
    print(f"corpus: {stats.describe()}")
    peak = max(stats.max_interval_documents, 1)
    for interval in corpus.interval_indices:
        count = len(corpus.documents(interval))
        bar = "#" * round(40 * count / peak)
        print(f"  interval {interval:>4}: {count:>7} docs  {bar}")
    return 0


def cmd_corpus_ingest(args: argparse.Namespace) -> int:
    """Convert a corpus to the canonical JSONL wire format."""
    adapter = _corpus_adapter(args)
    corpus = IntervalCorpus.from_adapter(adapter)
    if args.output is not None:
        written = dump_jsonl(corpus, args.output)
        print(adapter.report.describe())
        print(f"wrote {written} documents over "
              f"{corpus.num_intervals} intervals to {args.output}")
    else:
        # JSONL to stdout, the report to stderr so pipes stay clean.
        written = dump_jsonl(corpus, sys.stdout)
        print(adapter.report.describe(), file=sys.stderr)
    return 0


def cmd_bench_graph(args: argparse.Namespace) -> int:
    """Time registered solvers on a synthetic graph and report each
    one's unified SolverStats counters."""
    graph = synthetic_cluster_graph(m=args.m, n=args.n, d=args.d,
                                    g=args.gap, seed=args.seed)
    print(f"graph: {graph}")
    length = args.length if args.length else graph.num_intervals - 1
    query = StableQuery(problem="kl", l=length, k=args.k, gap=args.gap)
    names = [name.strip() for name in args.solvers.split(",")
             if name.strip()]
    for name in names:
        solver = get_solver(name)
        unsupported = solver.supports(query, graph.num_intervals)
        if unsupported is not None:
            print(f"{name}: skipped ({unsupported})")
            continue
        stats = solver.new_stats()
        started = time.perf_counter()
        report = solve_report(graph, query, solver=name, stats=stats)
        elapsed = time.perf_counter() - started
        best = (f"{report.paths[0].weight:.3f}"
                if report.paths else "none")
        print(f"{name.upper()}: {elapsed:.3f}s  top weight: {best}")
        print(f"  stats: {stats.summary()}")
    return 0


# ----------------------------------------------------------------------
# Serving subcommands (the persistent index)
# ----------------------------------------------------------------------


def cmd_index_build(args: argparse.Namespace) -> int:
    """Build a persistent cluster index from a JSONL corpus."""
    if args.shards is None:
        result = _run_batch(args, args.dir)
    else:
        # Shard-parallel build: run the pipeline without a writer,
        # then let repro.distributed encode the segment shards in
        # parallel worker processes (byte-identical output).
        result = _run_batch(args, None)
        total = build_sharded_index(
            args.dir, result.interval_clusters, result.paths,
            vocab=result.vocabulary, plan=result.plan,
            num_shards=args.shards, workers=args.workers)
        if result.plan is not None:
            result.plan.index_dir = args.dir
            result.plan.index_bytes = total
            result.plan.index_segments = 1
    if args.explain and result.plan is not None:
        print(result.plan.explain())
        print()
    print(f"indexed {len(result.interval_clusters)} intervals, "
          f"{sum(len(c) for c in result.interval_clusters)} clusters, "
          f"{len(result.paths)} stable paths "
          f"({result.plan.index_bytes} log bytes) at {args.dir}")
    return 0


def cmd_index_inspect(args: argparse.Namespace) -> int:
    """Summarize a persisted index: shape, layout, provenance."""
    with ClusterQueryService(args.dir) as service:
        print(service.describe(segments=args.segments,
                               shards=args.shards))
    return 0


def cmd_index_merge(args: argparse.Namespace) -> int:
    """Compact an index's sealed segments (size-tiered merge)."""
    report = compact_index(args.dir, full=args.full, force=args.force)
    print(f"merged {args.dir}: "
          f"{report['segments_before']} -> "
          f"{report['segments_after']} segments in "
          f"{report['merges']} merge(s), "
          f"{report['bytes_before']} -> {report['bytes_after']} "
          f"log bytes (generation {report['generation']})")
    return 0


def _follow(service: ClusterQueryService, render, args) -> None:
    """Re-render whenever a live index grows, until its run
    finalizes (or --max-polls is exhausted)."""
    polls = 0
    while not service.complete and (args.max_polls is None
                                    or polls < args.max_polls):
        time.sleep(args.poll)
        polls += 1
        if service.refresh():
            print()
            render()


def _maybe_stats(service: ClusterQueryService,
                 args: argparse.Namespace) -> None:
    """Print serving counters when ``query ... --stats`` asked."""
    if args.stats:
        print()
        print(service.describe_stats())


def _query_interval(service: ClusterQueryService,
                    args: argparse.Namespace) -> Optional[int]:
    """The interval a query targets, or None while a live index has
    nothing yet (a --follow loop keeps polling instead of erroring)."""
    if args.interval is not None:
        return args.interval
    if service.num_intervals == 0:
        live = "" if service.complete else " (live)"
        print(f"the index holds no intervals yet{live}")
        return None
    return service.latest_interval


def cmd_query_refine(args: argparse.Namespace) -> int:
    """Refinement suggestions for a keyword, from the index."""
    found = False
    with ClusterQueryService(args.dir) as service:

        def render() -> None:
            nonlocal found
            interval = _query_interval(service, args)
            if interval is None:
                return
            live = "" if service.complete else " (live)"
            print(f"query {args.keyword!r} @ interval "
                  f"{interval}{live}")
            result = service.refine(args.keyword, interval)
            if result is None:
                print("  falls in no cluster this interval")
                return
            found = True
            print(render_refinement(result,
                                    max_suggestions=args.top))

        render()
        if args.follow:
            _follow(service, render, args)
        _maybe_stats(service, args)
    return 0 if found else 1


def cmd_query_lookup(args: argparse.Namespace) -> int:
    """Point lookup: the cluster a keyword falls into."""
    found = False
    with ClusterQueryService(args.dir) as service:

        def render() -> None:
            nonlocal found
            interval = _query_interval(service, args)
            if interval is None:
                return
            cluster = service.lookup(args.keyword, interval)
            if cluster is None:
                print(f"{args.keyword!r} falls in no cluster at "
                      f"interval {interval}")
                return
            found = True
            print(f"interval {interval}: "
                  f"{' '.join(sorted(cluster.keywords))}")
            for u, v, rho in cluster.edges:
                print(f"  {u} -- {v}  (rho {rho:.3f})")

        render()
        if args.follow:
            _follow(service, render, args)
        _maybe_stats(service, args)
    return 0 if found else 1


def cmd_query_paths(args: argparse.Namespace) -> int:
    """The run's stable paths, optionally filtered by keyword."""
    shown = False
    with ClusterQueryService(args.dir) as service:

        def render() -> None:
            nonlocal shown
            paths = (service.paths_for(args.keyword)
                     if args.keyword else service.stable_paths())
            if not paths:
                print("no stable paths"
                      + (f" through {args.keyword!r}"
                         if args.keyword else "")
                      + (" yet" if not service.complete else ""))
                return
            shown = True
            for path in paths:
                print(service.render_path(path))
                print()

        render()
        if args.follow:
            _follow(service, render, args)
        _maybe_stats(service, args)
    return 0 if shown else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a persisted (or live) index over HTTP."""
    try:
        # Exit through the finally blocks on SIGTERM so shard
        # workers get their stop sentinel instead of being orphaned.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    except ValueError:  # not the main thread (in-process tests)
        pass
    coordinator = None
    if args.shards:
        # Scatter-gather mode: the HTTP front door keeps its
        # single-flight batching and admission control, but queries
        # route through the distributed coordinator instead of the
        # in-process service.
        coordinator = DistributedQueryService(
            args.dir, workers=args.shards,
            request_timeout=args.request_timeout,
            hedge_delay=args.hedge_ms / 1000.0)
    try:
        server = ClusterServer(
            coordinator if coordinator is not None else args.dir,
            host=args.host, port=args.port,
            memory_budget=_memory_budget_bytes(args),
            cache_size=args.cache_size,
            max_inflight=args.max_inflight,
            batching=not args.no_batching,
            refresh_seconds=args.poll)
        with server:
            server.start()
            live = "complete" if server.service.complete else "live"
            tier = (f", {args.shards} shard workers"
                    if coordinator is not None else "")
            print(f"serving {args.dir} ({live}, "
                  f"{server.service.num_intervals} intervals{tier}) "
                  f"at {server.url}", flush=True)
            print(f"endpoints: /refine /lookup /paths /stats  "
                  f"(max {server.max_inflight} in flight, batching "
                  f"{'on' if server.batching else 'off'})",
                  flush=True)
            try:
                if args.max_seconds is not None:
                    time.sleep(args.max_seconds)
                else:
                    while True:
                        time.sleep(3600)
            except KeyboardInterrupt:
                print("shutting down")
    finally:
        if coordinator is not None:
            coordinator.close()
    return 0


# ----------------------------------------------------------------------
# Parser construction (shared flag definitions)
# ----------------------------------------------------------------------


def _add_gap(parent: argparse.ArgumentParser) -> None:
    """--gap, declared once so every subcommand defaults alike."""
    parent.add_argument("--gap", type=int, default=1,
                        help="max intervals a path may skip (g; "
                             "default: 1)")


def _shape_parent() -> argparse.ArgumentParser:
    """--length/-k/--gap/--problem, the query-shape flags every
    corpus-running subcommand shares."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--length", type=int, default=3,
                        help="target path length (lmin for "
                             "--problem normalized)")
    parent.add_argument("-k", type=int, default=5,
                        help="number of stable paths to report")
    _add_gap(parent)
    parent.add_argument("--problem", choices=["kl", "normalized"],
                        default="kl",
                        help="Problem 1 (kl: length exactly l) or "
                             "Problem 2 (normalized: weight/length, "
                             "length >= lmin)")
    return parent


def _generation_parent() -> argparse.ArgumentParser:
    """--rho/--theta, the Section-3/4 thresholds."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--rho", type=float, default=0.2,
                        help="correlation threshold for keyword-graph "
                             "pruning (Section 3)")
    parent.add_argument("--theta", type=float, default=0.1,
                        help="affinity threshold for cluster-graph "
                             "edges (Section 4.1)")
    return parent


def _solver_parent() -> argparse.ArgumentParser:
    """--solver/--memory-budget/--explain for batch search."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--solver", choices=SOLVER_CHOICES,
                        default="auto",
                        help="search algorithm; 'auto' lets the "
                             "cost-based planner pick")
    parent.add_argument("--memory-budget", type=float, default=None,
                        metavar="MIB",
                        help="planner memory budget in MiB")
    parent.add_argument("--explain", action="store_true",
                        help="print the execution plan before results")
    return parent


def _workers_parent() -> argparse.ArgumentParser:
    """--workers, the parallel dimension."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=None,
                        metavar="N",
                        help="parallel worker processes for the "
                             "per-interval and per-shard batch stages "
                             "(0 = all cores; default: serial)")
    return parent


def _graph_shape_parent() -> argparse.ArgumentParser:
    """-m/-n/-d/--gap/--length/-k, the synthetic workload shape
    shared by ``explain`` and ``bench-graph``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("-m", type=int, default=9,
                        help="temporal intervals")
    parent.add_argument("-n", type=int, default=400,
                        help="clusters per interval")
    parent.add_argument("-d", type=int, default=5,
                        help="average out degree")
    _add_gap(parent)
    parent.add_argument("--length", type=int, default=0,
                        help="path length l; 0 means full paths "
                             "(m - 1)")
    parent.add_argument("-k", type=int, default=5,
                        help="number of stable paths to report")
    return parent


def _corpus_format_parent() -> argparse.ArgumentParser:
    """--format plus the adapter field-mapping/bucketing flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=sorted(ADAPTERS),
                        default="jsonl",
                        help="corpus file format (adapter)")
    parent.add_argument("--text-field", default="text",
                        metavar="NAME",
                        help="jsonl/csv: field holding the document "
                             "text")
    parent.add_argument("--time-field", default="interval",
                        metavar="NAME",
                        help="jsonl/csv: field holding the timestamp")
    parent.add_argument("--id-field", default="id", metavar="NAME",
                        help="jsonl/csv: field holding the document "
                             "id (optional in the data)")
    parent.add_argument("--bucket", default=None, metavar="MODE",
                        help="interval bucketing: interval, year, "
                             "month, or epoch[:SECONDS] (default: "
                             "the format's own — year for dblp, "
                             "pass-through interval otherwise)")
    parent.add_argument("--origin", type=int, default=None,
                        metavar="BUCKET",
                        help="bucket value that becomes interval 0 "
                             "(default: the smallest seen)")
    parent.add_argument("--strict", action="store_true",
                        help="fail on the first malformed record "
                             "instead of skip-and-count")
    return parent


def _corpus_parent() -> argparse.ArgumentParser:
    """--corpus + the format flags, for subcommands where an adapter
    source is an alternative to the positional JSONL input."""
    parent = argparse.ArgumentParser(
        add_help=False, parents=[_corpus_format_parent()])
    parent.add_argument("--corpus", default=None, metavar="FILE",
                        help="read documents from FILE through the "
                             "--format adapter instead of a "
                             "positional JSONL input")
    return parent


def _query_service_parent() -> argparse.ArgumentParser:
    """The flags every ``query`` action shares: the index directory
    and the --follow polling loop for live (streaming) indexes."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("dir", help="cluster index directory")
    parent.add_argument("--follow", action="store_true",
                        help="keep polling a live streaming index "
                             "and re-print on growth, until its run "
                             "finalizes")
    parent.add_argument("--poll", type=float, default=0.5,
                        metavar="SECONDS",
                        help="--follow poll interval")
    parent.add_argument("--max-polls", type=int, default=None,
                        metavar="N",
                        help="stop --follow after N polls even if "
                             "the index is still live")
    parent.add_argument("--stats", action="store_true",
                        help="print serving counters after the "
                             "answer: refiner/cluster cache hit "
                             "rates, segments, bytes tailed, mmap")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="stable-clusters",
        description="Stable keyword clusters in temporal text "
                    "(Bansal et al., VLDB 2007 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    shape = _shape_parent()
    generation = _generation_parent()
    solver = _solver_parent()
    workers = _workers_parent()
    graph_shape = _graph_shape_parent()
    query_service = _query_service_parent()
    corpus_source = _corpus_parent()

    demo = sub.add_parser("demo", help="synthetic week walkthrough",
                          parents=[shape, workers])
    demo.add_argument("--vocabulary", type=int, default=3000,
                      help="synthetic Zipf vocabulary size")
    demo.add_argument("--background", type=int, default=600,
                      help="background (non-event) posts per day")
    demo.add_argument("--seed", type=int, default=2007,
                      help="random seed")
    demo.add_argument("--solver", choices=SOLVER_CHOICES,
                      default="auto",
                      help="search algorithm; 'auto' lets the "
                           "cost-based planner pick")
    demo.set_defaults(func=cmd_demo)

    clusters = sub.add_parser("clusters",
                              help="per-interval keyword clusters",
                              parents=[generation])
    clusters.add_argument("input", help="JSONL file of posts")
    clusters.add_argument("--top", type=int, default=10,
                          help="clusters to print per interval")
    clusters.set_defaults(func=cmd_clusters)

    stable = sub.add_parser("stable",
                            help="full stable-cluster search",
                            parents=[shape, generation, solver,
                                     workers, corpus_source])
    stable.add_argument("input", nargs="?", default=None,
                        help="JSONL file of posts (or use --corpus)")
    stable.add_argument("--index-dir", default=None, metavar="DIR",
                        help="persist the run as a queryable cluster "
                             "index at DIR")
    stable.add_argument("--index-append", action="store_true",
                        help="continue an existing index at "
                             "--index-dir as a new segment instead "
                             "of rebuilding it")
    stable.set_defaults(func=cmd_stable)

    stream = sub.add_parser(
        "stream",
        help="incremental top-k maintenance over a JSONL stream",
        parents=[shape, generation, corpus_source])
    stream.add_argument("input", nargs="?", default=None,
                        help="JSONL file of posts, replayed interval "
                             "by interval (or use --corpus)")
    # Streaming has exactly one engine per problem (Section 4.6), so
    # its --solver choices are narrower than the batch registry; this
    # is the single place they are defined.
    stream.add_argument("--solver", choices=STREAM_SOLVER_CHOICES,
                        default="auto",
                        help="streaming engine; 'auto' follows "
                             "--problem (bfs for kl)")
    stream.add_argument("--memory-budget", type=float, default=None,
                        metavar="MIB",
                        help="planner memory budget in MiB")
    stream.add_argument("--backend",
                        choices=["auto", "memory", "disk", "sharded"],
                        default="auto",
                        help="node-state backend; 'auto' lets the "
                             "streaming planner pick")
    stream.add_argument("--state-dir", default=None,
                        help="directory for disk-backed state "
                             "(default: a temporary directory)")
    stream.add_argument("--index-dir", default=None, metavar="DIR",
                        help="maintain a live cluster index at DIR "
                             "(append per interval; `query --follow` "
                             "can tail it); an existing index there "
                             "is continued across restarts")
    stream.add_argument("--index-rebuild", action="store_true",
                        help="wipe any existing index at --index-dir "
                             "instead of continuing its timeline")
    stream.add_argument("--flush-intervals", type=int,
                        default=DEFAULT_FLUSH_INTERVALS, metavar="N",
                        help="seal an index segment every N ingested "
                             "intervals")
    stream.add_argument("--follow", action="store_true",
                        help="print each interval's ingest report "
                             "and the evolving top-k")
    stream.add_argument("--explain", action="store_true",
                        help="print the execution plan before results")
    stream.set_defaults(func=cmd_stream)

    index = sub.add_parser(
        "index", help="build or inspect a persistent cluster index")
    index_sub = index.add_subparsers(dest="index_command",
                                     required=True)
    build = index_sub.add_parser(
        "build", help="run the batch pipeline and persist the "
                      "result as a queryable index",
        parents=[shape, generation, solver, workers, corpus_source])
    build.add_argument("input", nargs="?", default=None,
                       help="JSONL file of posts (or use --corpus)")
    build.add_argument("--dir", required=True,
                       help="directory to write the index to")
    build.add_argument("--shards", type=int, default=None,
                       metavar="N",
                       help="shard-parallel build: encode the "
                            "segment's N cluster shards in worker "
                            "processes (byte-identical to the "
                            "serial writer; default: serial write, "
                            "4 shards)")
    build.set_defaults(func=cmd_index_build)
    inspect = index_sub.add_parser(
        "inspect", help="summarize an index: shape, layout, "
                        "provenance")
    inspect.add_argument("dir", help="cluster index directory")
    inspect.add_argument("--segments", action="store_true",
                         help="also list each live segment's "
                              "intervals, clusters, and bytes")
    inspect.add_argument("--shards", action="store_true",
                         help="also list per-shard record counts "
                              "and bytes (the hash skew that bounds "
                              "scatter-gather balance)")
    inspect.set_defaults(func=cmd_index_inspect)
    merge = index_sub.add_parser(
        "merge", help="compact an index's sealed segments (rewrites "
                      "small segments, drops stale path "
                      "generations)")
    merge.add_argument("dir", help="cluster index directory")
    merge.add_argument("--full", action="store_true",
                       help="merge down to a single segment "
                            "regardless of the size-tiered policy")
    merge.add_argument("--force", action="store_true",
                       help="seal and merge unsealed segments too "
                            "(recovery after a crashed run; never "
                            "use against a live writer)")
    merge.set_defaults(func=cmd_index_merge)

    query = sub.add_parser(
        "query", help="serve refinements/lookups/paths from a "
                      "persisted index")
    query_sub = query.add_subparsers(dest="query_command",
                                     required=True)
    refine = query_sub.add_parser(
        "refine", help="refinement suggestions for a keyword "
                       "(Section 1)",
        parents=[query_service])
    refine.add_argument("keyword", help="query keyword (stemmed)")
    refine.add_argument("--interval", type=int, default=None,
                        help="interval to query (default: latest)")
    refine.add_argument("--top", type=int, default=8,
                        help="suggestions to print")
    refine.set_defaults(func=cmd_query_refine)
    lookup = query_sub.add_parser(
        "lookup", help="the cluster a keyword falls into",
        parents=[query_service])
    lookup.add_argument("keyword", help="query keyword (stemmed)")
    lookup.add_argument("--interval", type=int, default=None,
                        help="interval to query (default: latest)")
    lookup.set_defaults(func=cmd_query_lookup)
    paths = query_sub.add_parser(
        "paths", help="the run's stable paths, with clusters read "
                      "from the index",
        parents=[query_service])
    paths.add_argument("--keyword", default=None,
                       help="only paths visiting a cluster that "
                            "contains this keyword")
    paths.set_defaults(func=cmd_query_paths)

    serve = sub.add_parser(
        "serve", help="expose a persisted or live index over "
                      "concurrent HTTP (JSON endpoints)")
    serve.add_argument("dir", help="cluster index directory")
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind")
    serve.add_argument("--port", type=int, default=8021,
                       help="port to bind (0 = ephemeral; the banner "
                            "prints the real URL)")
    serve.add_argument("--memory-budget", type=float, default=None,
                       metavar="MIB",
                       help="serving memory budget in MiB, split "
                            "across the hot-answer cache, the "
                            "cluster cache, and request admission")
    serve.add_argument("--cache-size", type=int, default=None,
                       metavar="N",
                       help="hot-keyword answer cache entries "
                            "(overrides the budget split)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="admitted concurrent requests; beyond "
                            "this clients get 429 + Retry-After "
                            "(overrides the budget split)")
    serve.add_argument("--no-batching", action="store_true",
                       help="disable single-flight request batching "
                            "(each request pays its own index read)")
    serve.add_argument("--poll", type=float, default=0.5,
                       metavar="SECONDS",
                       help="live-index refresh cadence (0 disables "
                            "tailing)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       metavar="S",
                       help="exit after S seconds (smoke tests; "
                            "default: serve until interrupted)")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="scatter-gather over N shard worker "
                            "processes (answers stay byte-identical "
                            "to in-process serving; 0 = serve "
                            "in-process)")
    serve.add_argument("--request-timeout", type=float, default=10.0,
                       metavar="S",
                       help="with --shards: total deadline per "
                            "scatter-gather query")
    serve.add_argument("--hedge-ms", type=float, default=250.0,
                       metavar="MS",
                       help="with --shards: straggler budget before "
                            "a partial query is re-sent to its "
                            "replica worker")
    serve.set_defaults(func=cmd_serve)

    corpus = sub.add_parser(
        "corpus", help="ingest or measure a real corpus file "
                       "(dblp/jsonl/csv adapters)")
    corpus_sub = corpus.add_subparsers(dest="corpus_command",
                                       required=True)
    ingest = corpus_sub.add_parser(
        "ingest", help="convert any corpus format to the canonical "
                       "JSONL wire format",
        parents=[_corpus_format_parent()])
    ingest.add_argument("corpus", metavar="FILE",
                        help="corpus file to ingest")
    ingest.add_argument("--output", default=None, metavar="OUT",
                        help="write JSONL to OUT (default: stdout, "
                             "report on stderr)")
    ingest.set_defaults(func=cmd_corpus_ingest)
    stats = corpus_sub.add_parser(
        "stats", help="ingest report + per-interval document "
                      "histogram for a corpus file",
        parents=[_corpus_format_parent()])
    stats.add_argument("corpus", metavar="FILE",
                       help="corpus file to measure")
    stats.set_defaults(func=cmd_corpus_stats)

    explain = sub.add_parser(
        "explain",
        help="print the planner's decision for a workload shape",
        parents=[graph_shape, workers])
    explain.add_argument("--problem", choices=["kl", "normalized"],
                         default="kl",
                         help="Problem 1 (kl) or Problem 2 "
                              "(normalized)")
    explain.add_argument("--memory-budget", type=float, default=None,
                         metavar="MIB",
                         help="planner memory budget in MiB")
    explain.add_argument("--serve", action="store_true",
                         help="also plan the serving tier: the cache "
                              "budget split and admission bound "
                              "`serve` runs with")
    explain.set_defaults(func=cmd_explain)

    bench = sub.add_parser("bench-graph",
                           help="time solvers on a synthetic graph",
                           parents=[graph_shape])
    bench.add_argument("--seed", type=int, default=1,
                       help="random seed for the synthetic graph")
    bench.add_argument("--solvers", default="bfs,dfs",
                       help="comma-separated registry names to time")
    bench.set_defaults(func=cmd_bench_graph)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Domain errors (unsupported solver/problem combination,
        # invalid query bounds, unusable index directories) become
        # clean CLI errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
