"""Streaming (online) stable-cluster maintenance (Section 4.6).

New intervals arrive continuously; the BFS engine is incremental by
construction — "when nodes for the next temporal interval G_{m+1}
arrive, heaps for them can be computed without redoing any past
computation".  The paper notes that once streaming, the BFS- and
DFS-based algorithms perform the same per-interval operation and
differ only in bootstrap, so a single streaming front end is provided
for both problems (kl-stable and normalized).

``StreamingStableClusters`` owns a growing cluster timeline: callers
push each new interval's clusters and affinity edges (or raw
per-interval keyword clusters, letting the affinity threshold and gap
policy of Section 4.1 build the edges), and read the current top-k at
any time.  Both modes honour a pluggable
:class:`~repro.storage.StateStore` and evict stored node state once an
interval leaves the ``gap + 1`` window, so memory (and store size)
stays bounded no matter how long the stream runs.

For raw *documents* rather than clusters or edges, see
:class:`repro.streaming.StreamingDocumentPipeline`, which runs the
Section-3 cluster generation per interval and feeds this module.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.affinity.simjoin import JoinStats
from repro.affinity.windowjoin import (
    WindowFrequencyTracker,
    window_affinity_edges,
)
from repro.core.bfs import BFSEngine
from repro.core.cluster_graph import EPSILON
from repro.core.normalized import NormalizedBFSEngine
from repro.core.paths import NodeId, Path
from repro.storage.backends import StateStore

# Dead bytes a disk-backed store may accumulate before the streaming
# maintainer compacts it.  Eviction deletes keys, but an append-only
# layout only grows — without compaction the state file would expand
# with stream length even though the live key set is bounded.
# Mirrors the planner's COMPACT_GARBAGE_BYTES.
STREAM_COMPACT_GARBAGE_BYTES = 4 * 1024 * 1024


class StreamingStableClusters:
    """Incrementally maintained top-k stable clusters.

    ``mode='kl'`` maintains Problem 1 (paths of length exactly ``l``);
    ``mode='normalized'`` maintains Problem 2 (length >= ``lmin``,
    score weight/length).  ``l`` is interpreted accordingly.  ``store``
    may be any :class:`~repro.storage.StateStore` backend for the
    per-node state; both modes honour it, and stored state is evicted
    with the sliding window (``evict=False`` keeps every interval, the
    batch Algorithm-2 behaviour).  Disk-backed stores are additionally
    compacted once their dead bytes pass *compact_garbage_bytes*
    (``None`` disables), so the state *file* stays bounded too, not
    just the key count.
    """

    def __init__(self, l: int, k: int, gap: int = 0,
                 mode: str = "kl",
                 store: Optional[StateStore] = None,
                 evict: bool = True,
                 compact_garbage_bytes: Optional[int] =
                 STREAM_COMPACT_GARBAGE_BYTES) -> None:
        if mode not in ("kl", "normalized"):
            raise ValueError(
                f"mode must be 'kl' or 'normalized', got {mode!r}")
        self.mode = mode
        self.gap = gap
        self.compact_garbage_bytes = compact_garbage_bytes
        if mode == "kl":
            self._engine = BFSEngine(l=l, k=k, gap=gap, store=store,
                                     evict_store=evict)
        else:
            self._engine = NormalizedBFSEngine(lmin=l, k=k, gap=gap,
                                               store=store,
                                               evict_store=evict)
        self._next_interval = 0
        self._interval_sizes: List[int] = []

    @classmethod
    def from_query(cls, query,
                   store: Optional[StateStore] = None
                   ) -> "StreamingStableClusters":
        """Build a streaming maintainer for a
        :class:`~repro.engine.StableQuery` (full-path queries cannot
        stream — the target length must be known up front)."""
        return cls(l=query.streaming_length(), k=query.k,
                   gap=query.gap, mode=query.problem, store=store)

    # ------------------------------------------------------------------
    # Feeding the stream
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Intervals consumed so far."""
        return self._next_interval

    def add_interval(self, num_clusters: int,
                     edges: Sequence[Tuple[NodeId, int, float]]
                     ) -> List[NodeId]:
        """Append one interval with *num_clusters* clusters.

        ``edges`` are ``(parent_node, local_index, weight)`` where
        ``parent_node`` is a node id returned for one of the previous
        ``gap + 1`` intervals and ``local_index`` indexes this
        interval's new clusters.  Weights follow the batch graph's
        semantics — ``(0, 1]`` up to float slop, clamped to 1.0 —
        so a streamed graph and a batch-built one are identical.
        Returns the new node ids.
        """
        interval = self._next_interval
        nodes = [(interval, j) for j in range(num_clusters)]
        incoming: Dict[NodeId, List[Tuple[NodeId, float]]] = {
            node: [] for node in nodes}
        for parent, local_index, weight in edges:
            if not 0 <= local_index < num_clusters:
                raise ValueError(
                    f"edge targets cluster {local_index}, interval has "
                    f"{num_clusters}")
            length = interval - parent[0]
            if not 1 <= length <= self.gap + 1:
                raise ValueError(
                    f"parent {parent} is {length} intervals back; the "
                    f"gap policy allows 1..{self.gap + 1}")
            if not 0.0 < weight <= 1.0 + EPSILON:
                raise ValueError(
                    f"affinity weight must be in (0, 1], got {weight}")
            incoming[(interval, local_index)].append(
                (parent, min(weight, 1.0)))
        self._engine.process_interval(
            interval, [(node, incoming[node]) for node in nodes])
        self._maybe_compact_store()
        self._interval_sizes.append(num_clusters)
        self._next_interval += 1
        return nodes

    def _maybe_compact_store(self) -> None:
        """Compact a disk-backed store once evicted records have left
        enough dead bytes behind (no-op for stores without a
        garbage/compact surface, e.g. MemoryStore; a backstop for
        sharded stores not configured to self-compact)."""
        store = self._engine.store
        if store is None or self.compact_garbage_bytes is None:
            return
        garbage = getattr(store, "garbage_bytes", None)
        compact = getattr(store, "compact", None)
        if garbage is not None and compact is not None \
                and garbage > self.compact_garbage_bytes:
            compact()

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------

    def top_k(self) -> List[Path]:
        """Current top-k paths, best first."""
        return self._engine.results()

    @property
    def stats(self):
        """The underlying engine's work counters."""
        return self._engine.stats


class StreamingAffinityPipeline:
    """Streams *keyword clusters* instead of pre-built edges.

    Wraps :class:`StreamingStableClusters`, computing affinity edges
    against the clusters of the previous ``gap + 1`` intervals with the
    supplied measure and threshold θ (Section 4.1's construction,
    applied online).  Cluster objects must expose ``keywords``.  The
    comparison is the batch graph builder's own window join
    (:func:`~repro.affinity.window_affinity_edges`) with the same
    weight semantics — edges above θ, weights in ``(0, 1]``; an
    unbounded measure raises instead of being silently clamped, since
    a stream cannot normalize by a maximum it has not seen.  ``store``
    is forwarded to the underlying maintainer.
    """

    def __init__(self, l: int, k: int, gap: int = 0,
                 affinity: Optional[Callable] = None,
                 theta: float = 0.1,
                 mode: str = "kl",
                 store: Optional[StateStore] = None) -> None:
        from repro.affinity import jaccard
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {theta}")
        self.affinity = affinity if affinity is not None else jaccard
        self.theta = theta
        self.stream = StreamingStableClusters(l=l, k=k, gap=gap,
                                              mode=mode, store=store)
        self.last_num_edges = 0
        # Token frequencies of the window join, maintained across
        # ingests (per-interval deltas instead of full recounts), and
        # the two-level filter's running candidate/verified counters.
        self.frequency_tracker = WindowFrequencyTracker()
        self.join_stats = JoinStats()
        self._recent: List[Tuple[List[NodeId], List]] = []  # per interval

    def add_interval(self, clusters: Sequence) -> List[NodeId]:
        """Append one interval's keyword clusters; affinity edges to
        the recent window are computed here."""
        edges = window_affinity_edges(
            self._recent, clusters, measure=self.affinity,
            theta=self.theta,
            frequency_tracker=self.frequency_tracker,
            join_stats=self.join_stats)
        self._check_bounded(edges)
        self.last_num_edges = len(edges)
        node_ids = self.stream.add_interval(len(clusters), edges)
        self._recent.append((node_ids, list(clusters)))
        if len(self._recent) > self.stream.gap + 1:
            self._recent.pop(0)
        return node_ids

    def _check_bounded(self, edges) -> None:
        for _, _, weight in edges:
            if weight > 1.0 + EPSILON:
                name = getattr(self.affinity, "__name__",
                               repr(self.affinity))
                raise ValueError(
                    f"affinity measure {name} returned {weight}, "
                    f"outside (0, 1]: a stream cannot renormalize past "
                    f"edges by a global maximum — use a bounded measure "
                    f"(jaccard, dice, overlap) or pre-normalized "
                    f"weights")

    def top_k(self) -> List[Path]:
        """Current top-k paths, best first."""
        return self.stream.top_k()

    def cluster_for(self, node: NodeId):
        """The cluster object behind *node*, if still in the recent
        window (older intervals have been evicted — streaming keeps
        only g + 1 of them)."""
        for node_ids, clusters in self._recent:
            if node in node_ids:
                return clusters[node_ids.index(node)]
        return None
