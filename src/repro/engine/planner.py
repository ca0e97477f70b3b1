"""Cost-based planning: which solver, which backend, how much memory.

The paper's Section 4 analyses each algorithm's memory footprint: the
BFS keeps a sliding window of ``g + 1`` intervals of per-node heaps
(``Mreq`` below), degrades to block-nested passes when the buffer M is
smaller ("this situation is very similar to block-nested loops"), while
the DFS keeps only O(m) frames resident with annotations on disk, and
the TA adaptation is practical only when its probe count — up to
``m^(d-1)`` — stays small.  The planner turns that analysis into code:
given a :class:`~repro.engine.query.StableQuery` and the graph's shape
statistics it estimates the window footprint and emits an
:class:`ExecutionPlan` naming the solver, the storage backend, and the
block size when the window must be processed in pieces.  ``explain()``
renders the decision the way database EXPLAIN statements do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.cluster_graph import ClusterGraph
from repro.engine.query import StableQuery
from repro.parallel import resolve_workers

# Footprint model constants (CPython-ish object sizes; the estimate
# only needs to be proportionally right, budgets are advisory).
PATH_OVERHEAD_BYTES = 96      # Path object + tuple header
NODE_ID_BYTES = 16            # one (interval, index) entry
HEAP_OVERHEAD_BYTES = 120     # TopK + list headers per heap

# TA is chosen only when its probe count stays below this bound.
TA_MAX_PROBES = 2000

# When the window overshoots the budget by more than this factor,
# block-nested BFS would need that many passes per interval; beyond it
# the DFS + on-disk annotations is the better trade (paper Table 3's
# regime boundary, qualitatively).
MAX_BLOCK_PASSES = 16

# Estimated on-disk annotation volume above which the disk backend is
# sharded so compaction and future parallel I/O work per-partition.
SHARD_BYTES = 8 * 1024 * 1024
SHARD_TARGET_BYTES = 4 * 1024 * 1024
MAX_SHARDS = 16

# Dead bytes a shard may accumulate before it compacts itself.
COMPACT_GARBAGE_BYTES = SHARD_TARGET_BYTES

# Serving-tier cost model (the repro.serving HTTP layer): how a
# --memory-budget splits between the two read caches and the
# per-request working memory that bounds the admission pool.
SERVING_ANSWER_BYTES = 480       # one cached Refinement + suggestions
SERVING_CLUSTER_BYTES = 900      # one decoded KeywordCluster + LRU slot
SERVING_REQUEST_BYTES = 64 * 1024  # working memory per in-flight request
SERVING_HOT_SHARE = 0.4          # budget share: hot-keyword answers
SERVING_CLUSTER_SHARE = 0.4      # budget share: decoded clusters
SERVING_MIN_ENTRIES = 32         # caches never sized below this
SERVING_MIN_INFLIGHT = 2         # admission pool bounds
SERVING_MAX_INFLIGHT = 128
# Defaults when serving without a budget (match the service/reader
# constructor defaults: 256 hot answers, 1024 decoded clusters).
SERVING_DEFAULT_HOT = 256
SERVING_DEFAULT_CLUSTERS = 1024
SERVING_DEFAULT_INFLIGHT = 32

@dataclass(frozen=True)
class GraphStats:
    """Shape statistics of a cluster graph (the paper's m, n, d, g)."""

    num_intervals: int              # m
    max_interval_nodes: int         # n (largest T_i)
    avg_out_degree: float           # d
    gap: int                        # g
    num_nodes: int = 0
    num_edges: int = 0

    @classmethod
    def from_graph(cls, graph: ClusterGraph) -> "GraphStats":
        """Measure *graph* (one cheap pass over interval sizes)."""
        sizes = [graph.interval_size(i)
                 for i in range(graph.num_intervals)]
        num_nodes = sum(sizes)
        avg_degree = (graph.num_edges / num_nodes) if num_nodes else 0.0
        return cls(num_intervals=graph.num_intervals,
                   max_interval_nodes=max(sizes) if sizes else 0,
                   avg_out_degree=avg_degree,
                   gap=graph.gap,
                   num_nodes=num_nodes,
                   num_edges=graph.num_edges)

    def describe(self) -> str:
        """Compact m/n/d/g rendering for explain output."""
        return (f"m={self.num_intervals} n={self.max_interval_nodes} "
                f"d={self.avg_out_degree:.1f} g={self.gap} "
                f"nodes={self.num_nodes} edges={self.num_edges}")


@dataclass
class ExecutionPlan:
    """The planner's decision: solver, backend, and sizing.

    ``backend`` is a spec for :func:`repro.storage.open_store`
    (``"memory"``, ``"disk"`` or ``"sharded"``); ``window_block_nodes``
    is set only for block-nested BFS.  ``reasons`` records each rule
    that fired, in order, for :meth:`explain`.
    """

    solver: str
    backend: str = "memory"
    workers: int = 1
    window_block_nodes: Optional[int] = None
    num_shards: int = 1
    compact_garbage_bytes: Optional[int] = None
    estimated_window_bytes: int = 0
    memory_budget: Optional[int] = None
    query: Optional[StableQuery] = None
    graph_stats: Optional[GraphStats] = None
    # Interned-keyword count of the run's corpus vocabulary; filled in
    # by pipelines once generation has run (the planner cannot know it
    # up front).  None = no vocabulary measured for this plan.
    vocab_size: Optional[int] = None
    # Persistent index: where the run serialized its clusters/postings/
    # paths, how many log bytes that took and how many segments the
    # tier holds.  Filled in by the pipelines after the write (like
    # vocab_size); None = the run was not asked to persist an index.
    index_dir: Optional[str] = None
    index_bytes: Optional[int] = None
    index_segments: Optional[int] = None
    # Serving dimension (apply_serving_dimension): how the HTTP tier's
    # cache budget splits into hot-keyword answers and decoded cluster
    # records, and the admission pool that bounds in-flight requests
    # (the split ``serve`` runs).  None = no serving tier planned.
    serving_hot_entries: Optional[int] = None
    serving_cluster_entries: Optional[int] = None
    serving_max_inflight: Optional[int] = None
    reasons: List[str] = field(default_factory=list)

    def explain(self) -> str:
        """Multi-line EXPLAIN-style rendering of the decision."""
        lines = ["execution plan"]
        if self.query is not None:
            lines.append(f"  query:    {self.query.describe()}")
        if self.graph_stats is not None:
            lines.append(f"  graph:    {self.graph_stats.describe()}")
        if self.vocab_size is not None:
            lines.append(f"  vocab:    {self.vocab_size} interned "
                         f"keywords (ids end-to-end, strings decoded "
                         f"at the edge)")
        lines.append(
            f"  window:   ~{_human_bytes(self.estimated_window_bytes)} "
            f"estimated (Section 4 model)")
        budget = ("unbounded" if self.memory_budget is None
                  else _human_bytes(self.memory_budget))
        lines.append(f"  budget:   {budget}")
        choice = f"  solver:   {self.solver}"
        if self.window_block_nodes is not None:
            choice += (f" (block-nested, "
                       f"{self.window_block_nodes} window nodes/pass)")
        lines.append(choice)
        backend = f"  backend:  {self.backend}"
        if self.backend == "sharded":
            backend += f" ({self.num_shards} shards)"
        lines.append(backend)
        if self.index_dir is not None:
            size = ("pending" if self.index_bytes is None
                    else _human_bytes(self.index_bytes))
            lines.append(
                f"  index:    {size} persisted at {self.index_dir} "
                f"(clusters + keyword postings + stable paths)")
        if self.index_segments is not None:
            lines.append(f"  segments: {self.index_segments} in the "
                         f"index's tier")
        if self.serving_hot_entries is not None:
            lines.append(
                f"  serving:  {self.serving_hot_entries} hot answers "
                f"+ {self.serving_cluster_entries} cluster records "
                f"cached, {self.serving_max_inflight} in-flight "
                f"requests admitted")
        if self.workers > 1:
            # The plan fixes the degree, not the pool kind — a caller
            # may supply a thread executor instead of the default
            # process pool.
            lines.append(f"  workers:  {self.workers} (pipeline "
                         f"stages fan out in parallel)")
        else:
            lines.append("  workers:  serial")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def _human_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KiB"
    return f"{n}B"


def estimate_window_bytes(query: StableQuery,
                          graph_stats: GraphStats) -> int:
    """Section 4's ``Mreq``: bytes the BFS sliding window needs.

    The window holds ``g + 1`` intervals of up to ``n`` nodes; each
    node keeps a heap of ``k`` paths per admissible length.  For
    Problem 1 that is up to ``l`` heaps per node (one per length),
    except in the full-path case where only one length is reachable
    per node; for Problem 2 the ``smallpaths``/``bestpaths`` state is
    modelled the same way with ``lmin`` length classes.  A path of
    length ``x <= l`` stores at most ``l + 1`` node ids.
    """
    m = graph_stats.num_intervals
    n = graph_stats.max_interval_nodes
    if m < 1 or n < 1:
        return 0
    length = max(1, min(query.length_for(m), max(1, m - 1)))
    if query.problem == "kl" and query.is_full_paths(m):
        heaps_per_node = 1  # only one span is reachable per node
    else:
        heaps_per_node = length
    window_nodes = n * (graph_stats.gap + 1)
    path_bytes = PATH_OVERHEAD_BYTES + NODE_ID_BYTES * (length + 1)
    return window_nodes * heaps_per_node * (
        HEAP_OVERHEAD_BYTES + query.k * path_bytes)


def estimate_annotation_bytes(query: StableQuery,
                              graph_stats: GraphStats) -> int:
    """On-disk volume of a DFS run's node annotations.

    Unlike the BFS window (``g + 1`` resident intervals), the DFS
    annotates nodes of *all* ``m`` intervals with state of the same
    per-node magnitude, so the volume scales the window estimate by
    ``m / (g + 1)``.
    """
    m = graph_stats.num_intervals
    per_window = estimate_window_bytes(query, graph_stats)
    return int(per_window * m / (graph_stats.gap + 1))


def split_serving_budget(memory_budget: Optional[int]
                         ) -> Tuple[int, int, int]:
    """Split a serving memory budget into cache sizes and admission.

    Returns ``(hot_entries, cluster_entries, max_inflight)``:
    :data:`SERVING_HOT_SHARE` of the budget buys hot-keyword answer
    slots, :data:`SERVING_CLUSTER_SHARE` buys decoded-cluster slots,
    and the remainder bounds the admission pool at one request per
    :data:`SERVING_REQUEST_BYTES` of working memory.  ``None`` means
    no budget: the service/reader constructor defaults apply.
    """
    if memory_budget is None:
        return (SERVING_DEFAULT_HOT, SERVING_DEFAULT_CLUSTERS,
                SERVING_DEFAULT_INFLIGHT)
    hot = max(SERVING_MIN_ENTRIES,
              int(memory_budget * SERVING_HOT_SHARE
                  // SERVING_ANSWER_BYTES))
    clusters = max(SERVING_MIN_ENTRIES,
                   int(memory_budget * SERVING_CLUSTER_SHARE
                       // SERVING_CLUSTER_BYTES))
    request_budget = memory_budget * (
        1.0 - SERVING_HOT_SHARE - SERVING_CLUSTER_SHARE)
    inflight = int(request_budget // SERVING_REQUEST_BYTES)
    inflight = max(SERVING_MIN_INFLIGHT,
                   min(SERVING_MAX_INFLIGHT, inflight))
    return hot, clusters, inflight


def apply_serving_dimension(result: ExecutionPlan,
                            memory_budget: Optional[int] = None
                            ) -> None:
    """Record the serving-tier split on a plan (``explain --serve``).

    Splits *memory_budget* (falling back to the plan's own budget)
    across the hot-keyword and cluster caches plus the admission
    pool — the sizes :class:`~repro.serving.ClusterServer` runs with.
    """
    budget = memory_budget if memory_budget is not None \
        else result.memory_budget
    hot, clusters, inflight = split_serving_budget(budget)
    result.serving_hot_entries = hot
    result.serving_cluster_entries = clusters
    result.serving_max_inflight = inflight
    if budget is None:
        result.reasons.append(
            "serving without a memory budget: constructor-default "
            f"caches ({SERVING_DEFAULT_HOT} answers, "
            f"{SERVING_DEFAULT_CLUSTERS} clusters), "
            f"{SERVING_DEFAULT_INFLIGHT} in-flight requests")
    else:
        result.reasons.append(
            f"serving budget {_human_bytes(budget)} split "
            f"{100 * SERVING_HOT_SHARE:.0f}/"
            f"{100 * SERVING_CLUSTER_SHARE:.0f}/"
            f"{100 * (1 - SERVING_HOT_SHARE - SERVING_CLUSTER_SHARE):.0f}"
            f"%: hot answers / cluster records / request admission")


def estimate_ta_probes(graph_stats: GraphStats) -> float:
    """Upper-bound the TA solver's random-probe work.

    Every full path may be enumerated, ~``n * d^(m-1)`` of them.
    """
    m = graph_stats.num_intervals
    if m < 2:
        return 0.0
    d = max(graph_stats.avg_out_degree, 1.0)
    try:
        return graph_stats.max_interval_nodes * d ** (m - 1)
    except OverflowError:
        return float("inf")


def apply_worker_dimension(result: ExecutionPlan, query: StableQuery,
                           graph_stats: GraphStats) -> None:
    """Set the plan's parallel dimension from the query's ``workers``.

    A batch run fans the Section-3 generation out across the ``m``
    intervals; requests beyond that cannot help, so the planner clamps
    and says why.  ``workers=None`` stays serial (parallelism is
    opt-in — it changes wall-clock, never answers, and small corpora
    lose to pool start-up).
    """
    if query.workers is None:
        return
    requested = resolve_workers(query.workers)
    units = max(1, graph_stats.num_intervals)
    unit_name = f"{units} per-interval generation tasks (m)"
    result.workers = max(1, min(requested, units))
    asked = "workers=auto (all cores)" if query.workers == 0 \
        else f"workers={requested}"
    if result.workers < requested:
        result.reasons.append(
            f"{asked} clamped to {result.workers}: only {unit_name}")
    elif result.workers > 1:
        result.reasons.append(
            f"{asked}: parallel stages fan out on "
            f"{result.workers} workers over {unit_name}")
    else:
        result.reasons.append(f"{asked} resolves to serial")


def plan(query: StableQuery, graph_stats: GraphStats,
         memory_budget: Optional[int] = None) -> ExecutionPlan:
    """Pick a solver and backend for *query*.

    *graph_stats* describes the target graph's shape.
    *memory_budget* (bytes) overrides ``query.memory_budget``;
    ``None`` means unbounded.  Rules, in order:

    * normalized queries have one engine — the normalized BFS;
    * full-path kl queries go to TA when the probe bound is small;
    * the BFS runs in memory when the estimated window fits the
      budget;
    * a window within ``MAX_BLOCK_PASSES`` budgets runs block-nested
      BFS with a budget-sized block;
    * anything larger runs the DFS with annotations on disk — sharded
      once the annotation volume justifies per-partition compaction.
    """
    budget = (memory_budget if memory_budget is not None
              else query.memory_budget)
    window_bytes = estimate_window_bytes(query, graph_stats)
    result = ExecutionPlan(solver="bfs", backend="memory",
                           estimated_window_bytes=window_bytes,
                           memory_budget=budget, query=query,
                           graph_stats=graph_stats)
    apply_worker_dimension(result, query, graph_stats)

    if query.problem == "normalized":
        result.solver = "normalized"
        result.reasons.append(
            "normalized scoring: Theorem-1 sliding-window engine "
            "is the only normalized solver")
        return result

    m = graph_stats.num_intervals
    if query.is_full_paths(m):
        probes = estimate_ta_probes(graph_stats)
        if probes <= TA_MAX_PROBES:
            result.solver = "ta"
            result.reasons.append(
                f"full-path query and ~{probes:.0f} probes <= "
                f"{TA_MAX_PROBES}: threshold algorithm stops early "
                f"on sorted edge lists")
            return result
        result.reasons.append(
            f"full-path query but ~{probes:.0f} probes > "
            f"{TA_MAX_PROBES}: TA's random probes are exponential "
            f"in m, falling through to BFS/DFS")

    if budget is None or window_bytes <= budget:
        result.reasons.append(
            "sliding window fits the budget: single-pass BFS "
            "(Algorithm 2) in memory")
        return result

    passes = window_bytes / budget
    if passes <= MAX_BLOCK_PASSES:
        window_nodes = max(
            1, graph_stats.max_interval_nodes * (graph_stats.gap + 1))
        bytes_per_node = max(1, window_bytes // window_nodes)
        block = max(1, int(budget // bytes_per_node))
        result.window_block_nodes = block
        result.backend = "disk"
        result.reasons.append(
            f"window exceeds budget {passes:.1f}x "
            f"(<= {MAX_BLOCK_PASSES}): block-nested BFS, "
            f"{block} window nodes per pass, heaps spilled to disk")
        return result

    result.solver = "dfs"
    result.reasons.append(
        f"window exceeds budget {passes:.1f}x "
        f"(> {MAX_BLOCK_PASSES}): DFS (Algorithm 3) keeps O(m) "
        f"frames resident with node annotations on disk")
    size_disk_backend(result, estimate_annotation_bytes(query,
                                                        graph_stats))
    return result


def plan_streaming(query: StableQuery, graph_stats: GraphStats,
                   memory_budget: Optional[int] = None) -> ExecutionPlan:
    """Pick the engine and backend for a *streaming* query.

    Streaming has one incremental engine per problem (the BFS of
    Section 4.6 for kl, the normalized sliding-window engine for
    Problem 2), so the planner's job reduces to the storage decision.
    Because the stream evicts node state older than ``g + 1``
    intervals, the resident volume is the window estimate — not the
    all-intervals annotation volume a batch DFS would pay — and the
    backend is chosen by comparing that window to the budget:
    in-memory when it fits, disk otherwise, sharded at volume.
    ``graph_stats`` describes the *expected* interval shape (for a
    live stream, measured from the first intervals seen).
    """
    query.streaming_length()  # raises for full paths and workers
    budget = (memory_budget if memory_budget is not None
              else query.memory_budget)
    window_bytes = estimate_window_bytes(query, graph_stats)
    solver = query.streaming_solver
    result = ExecutionPlan(solver=solver, backend="memory",
                           estimated_window_bytes=window_bytes,
                           memory_budget=budget, query=query,
                           graph_stats=graph_stats)
    result.reasons.append(
        f"streaming query: incremental {solver} engine, store "
        f"eviction bounds state to g + 1 = {graph_stats.gap + 1} "
        f"intervals")
    if budget is None or window_bytes <= budget:
        result.reasons.append(
            "evicted window fits the budget: node state stays "
            "in memory")
        return result
    size_disk_backend(result, window_bytes)
    # Eviction deletes keys but an append-only file only grows;
    # streaming stores must compact whatever the layout (the sharded
    # store self-compacts, the streaming maintainer compacts plain
    # disk stores past this threshold).
    result.compact_garbage_bytes = COMPACT_GARBAGE_BYTES
    result.reasons.append(
        f"window exceeds budget {window_bytes / budget:.1f}x: "
        f"node state spilled to the {result.backend} backend and "
        f"evicted as intervals expire")
    return result


def size_disk_backend(result: ExecutionPlan,
                      annotation_bytes: int) -> None:
    """Pick the disk vs sharded layout for spilled node state.

    Sizes the backend for *annotation_bytes*, recording the decision
    on *result* (shared between the planner and forced-solver
    plans)."""
    result.backend = "disk"
    if annotation_bytes > SHARD_BYTES:
        result.backend = "sharded"
        result.num_shards = min(
            MAX_SHARDS,
            max(2, annotation_bytes // SHARD_TARGET_BYTES))
        result.compact_garbage_bytes = COMPACT_GARBAGE_BYTES
        result.reasons.append(
            f"~{_human_bytes(annotation_bytes)} of annotations: "
            f"hash-partitioned across {result.num_shards} shards, "
            f"each self-compacting past "
            f"{_human_bytes(COMPACT_GARBAGE_BYTES)} of garbage")
