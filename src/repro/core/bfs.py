"""BFS-based kl-stable clusters (Algorithm 2).

One pass over the intervals in temporal order.  Each node ``c_ij`` is
annotated with up to ``l`` bounded heaps ``h^x_ij`` — the top-k paths
of length (temporal span) ``x`` ending at ``c_ij``.  Because a node's
parents live at most ``g + 1`` intervals back, keeping a sliding
window of the last ``g + 1`` intervals of heaps in memory lets every
heap be computed without re-reading older intervals; the global heap
``H`` collects paths of length exactly ``l``.

The special case ``l = m - 1`` (full paths) needs only one heap per
node; the implementation gets this for free by materializing heaps
lazily (a node at interval ``i`` can only ever hold heaps for lengths
``<= i``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.cluster_graph import ClusterGraph
from repro.core.heaps import TopK
from repro.core.paths import NodeId, Path, edge_path
from repro.core.solver_stats import SolverStats
from repro.storage.backends import StateStore

NodeHeaps = Dict[int, TopK]  # path length -> top-k paths of that length


def path_key(path: Path) -> Tuple[float, Tuple[NodeId, ...]]:
    """Problem 1 total order: weight, then nodes for determinism."""
    return (path.weight, path.nodes)


def path_heap(heaps: NodeHeaps, length: int, k: int) -> TopK:
    """The top-k heap of *heaps* for paths of *length*, made on first
    use."""
    heap = heaps.get(length)
    if heap is None:
        heap = heaps[length] = TopK(k, key=path_key)
    return heap


def retain(heap: TopK, path: Path, overall: Optional[TopK]) -> None:
    """Offer *path* to its node's *heap* and, when that keeps it and
    the path has the target length, to the *overall* top-k.  A path
    its node's heap turns down has k better paths of its length
    there, all offered to *overall* before it."""
    if heap.check(path) and overall is not None:
        overall.check(path)


@dataclass
class BFSStats(SolverStats):
    """Work counters for a BFS run (benchmark output)."""

    nodes_processed: int = 0
    edges_processed: int = 0
    paths_generated: int = 0
    window_passes: int = 0


class BFSEngine:
    """Sliding-window BFS over a cluster graph.

    ``store`` may be any :class:`~repro.storage.StateStore` backend
    (e.g. a :class:`~repro.storage.DiskDict` or sharded store); the
    paper's Algorithm 2 saves each node's heaps to disk after
    computing them (line 17), which also enables the streaming mode of
    Section 4.6.  ``evict_store=True`` deletes a node's stored heaps
    when its interval slides out of the ``g + 1`` window, so a
    long-running stream holds state for at most ``g + 1`` intervals
    (batch runs default to keeping every node, preserving the
    Algorithm-2 "saved to disk" artifact).

    ``window_block_nodes`` bounds how many window nodes' heaps are
    consulted per pass.  When the window exceeds the bound, an
    interval is processed in ``ceil(window / bound)`` passes, each
    restricted to one block of parents — the paper's M < Mreq case:
    "this situation is very similar to block-nested loops".  Results
    are identical; only the pass count (``stats.window_passes``)
    changes.
    """

    def __init__(self, l: int, k: int, gap: int,
                 store: Optional[StateStore] = None,
                 window_block_nodes: Optional[int] = None,
                 evict_store: bool = False,
                 stats: Optional[BFSStats] = None) -> None:
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if window_block_nodes is not None and window_block_nodes < 1:
            raise ValueError(
                f"window_block_nodes must be >= 1, "
                f"got {window_block_nodes}")
        self.l = l
        self.k = k
        self.gap = gap
        self.store = store
        self.evict_store = evict_store
        self.window_block_nodes = window_block_nodes
        self.stats = stats if stats is not None else BFSStats()
        self.global_heap: TopK[Path] = TopK(k, key=path_key)
        self._window: Dict[NodeId, Dict[int, List[Path]]] = {}
        self._window_intervals: Deque[int] = deque()
        self._window_nodes: Dict[int, List[NodeId]] = {}

    # ------------------------------------------------------------------
    # Per-interval step (shared with the streaming version)
    # ------------------------------------------------------------------

    def process_interval(self, interval: int,
                         nodes_with_parents: Sequence[
                             Tuple[NodeId, Sequence[Tuple[NodeId, float]]]]
                         ) -> None:
        """Compute heaps for every node of *interval* and slide the
        window.  Parents must lie within the previous ``gap + 1``
        intervals and have been processed already."""
        interval_nodes: List[NodeId] = []
        heaps_by_node: Dict[NodeId, NodeHeaps] = {
            node: {} for node, _ in nodes_with_parents}

        for block in self._window_blocks():
            self.stats.window_passes += 1
            for node, parent_edges in nodes_with_parents:
                self._accumulate_heaps(heaps_by_node[node], node,
                                       parent_edges, block)

        for node, _ in nodes_with_parents:
            # A finished heap is only ever read: keep its best-first
            # list, sorted here once, for the children to extend.
            paths = {x: heap.items()
                     for x, heap in heaps_by_node[node].items()}
            self._window[node] = paths
            interval_nodes.append(node)
            self.stats.nodes_processed += 1
            if self.store is not None:
                self.store[node] = paths
        self._window_intervals.append(interval)
        self._window_nodes[interval] = interval_nodes
        while (self._window_intervals
               and self._window_intervals[0] < interval - self.gap):
            expired = self._window_intervals.popleft()
            for node in self._window_nodes.pop(expired, []):
                self._window.pop(node, None)
                if self.store is not None and self.evict_store:
                    del self.store[node]

    def _window_blocks(self):
        """Partition the current window's nodes into memory-sized
        blocks (a single unrestricted block when unbounded)."""
        if (self.window_block_nodes is None
                or len(self._window) <= self.window_block_nodes):
            yield None
            return
        nodes = list(self._window)
        for start in range(0, len(nodes), self.window_block_nodes):
            yield frozenset(nodes[start:start + self.window_block_nodes])

    def _accumulate_heaps(self, heaps: NodeHeaps, node: NodeId,
                          parent_edges: Sequence[Tuple[NodeId, float]],
                          block) -> None:
        """Offer *node*'s heaps every path arriving over
        *parent_edges*.  A candidate's weight is known before the
        candidate is: only one that the heap of its length can still
        admit is built (``paths_generated`` counts candidates, built
        or not)."""
        for parent, weight in parent_edges:
            if block is not None and parent not in block:
                continue
            length = node[0] - parent[0]
            if length > self.l:
                continue
            self.stats.edges_processed += 1
            self.stats.paths_generated += 1
            heap = path_heap(heaps, length, self.k)
            if heap.admits(weight):
                retain(heap, edge_path(parent, node, weight),
                       self.global_heap if length == self.l else None)
            for x, paths in self._window.get(parent, {}).items():
                total = x + length
                if total > self.l:
                    continue
                self.stats.paths_generated += len(paths)
                heap = path_heap(heaps, total, self.k)
                overall = self.global_heap if total == self.l else None
                for path in paths:
                    if heap.admits(path.weight + weight):
                        retain(heap, path.append(node, weight), overall)

    # ------------------------------------------------------------------
    # Results and introspection
    # ------------------------------------------------------------------

    def results(self) -> List[Path]:
        """Current top-k paths of length exactly l, best first."""
        return self.global_heap.items()

    def window_heap_count(self) -> int:
        """Heaps currently resident in the window (memory benchmark)."""
        return sum(len(heaps) for heaps in self._window.values())

    def window_path_count(self) -> int:
        """Paths currently retained across the window's heaps."""
        return sum(len(heap) for heaps in self._window.values()
                   for heap in heaps.values())


def bfs_stable_clusters(graph: ClusterGraph, l: int, k: int,
                        store: Optional[StateStore] = None,
                        window_block_nodes: Optional[int] = None,
                        stats: Optional[BFSStats] = None) -> List[Path]:
    """Top-k paths of length exactly *l*, best first (Problem 1)."""
    if l > graph.num_intervals - 1:
        return []
    engine = BFSEngine(l=l, k=k, gap=graph.gap, store=store,
                       window_block_nodes=window_block_nodes,
                       stats=stats)
    for i in range(graph.num_intervals):
        engine.process_interval(
            i, [(node, graph.parents(node)) for node in graph.nodes_at(i)])
    return engine.results()
