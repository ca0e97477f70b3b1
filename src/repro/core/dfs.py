"""DFS-based kl-stable clusters (Algorithm 3).

A depth-first traversal from a virtual source whose children are every
node that could *start* a path of length ``l`` (for full paths,
``l = m - 1``, exactly the first interval — the paper's source).  Each
node carries, on disk:

* a ``visited`` flag — set means the node's subtree has been fully
  considered and its ``bestpaths`` may be reused (memoization);
* ``maxweight[x]`` — the weight of the heaviest known path of length
  ``x`` *ending* at the node (pruning bound);
* ``bestpaths[x]`` — top-k paths of length ``x`` *starting* at the
  node (note the direction flip versus the BFS heaps).

Pruning (``CanPrune``): with ``min-k`` the weight of the k-th best
length-``l`` path so far, a freshly pushed node is abandoned when
every known prefix of length ``x`` satisfies
``maxweight[x] + (l - x) < min-k`` — the remaining length can add at
most ``l - x`` because edge weights are in (0, 1].  Abandoning a node
unmarks the visited flag of everything on the stack (their subtrees
are no longer fully explored); a later, heavier arrival re-explores.

Two correctness refinements over the paper's pseudocode (documented in
docs/architecture.md):

* a node that could still be the *first* node of a top-k path (i.e.
  ``interval + l <= last interval``) is never pruned — the paper's
  bound only covers paths entering the node from a prefix;
* a pruned pop still merges the node's current ``bestpaths`` (and the
  entering edge) into its parent, so paths *ending* at the pruned node
  are not lost.

The stack never holds more than one frame per interval plus the
source, honouring the paper's O(m) memory claim; all other state lives
in the node store (a DiskDict in I/O-accounted runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.cluster_graph import ClusterGraph
from repro.core.heaps import TopK
from repro.core.paths import NodeId, Path, edge_path
from repro.core.bfs import NodeHeaps, path_heap, path_key, retain
from repro.core.solver_stats import SolverStats
from repro.storage.backends import StateStore

SOURCE: NodeId = (-1, -1)


@dataclass
class NodeAnnotation:
    """Per-node on-disk state of Algorithm 3."""

    visited: bool = False
    maxweight: Dict[int, float] = field(default_factory=dict)
    bestpaths: NodeHeaps = field(default_factory=dict)


@dataclass
class DFSStats(SolverStats):
    """Work/I-O counters for a DFS run (benchmark output)."""

    pushes: int = 0
    pops: int = 0
    prunes: int = 0
    merges: int = 0
    node_reads: int = 0
    node_writes: int = 0


@dataclass
class _Frame:
    node: NodeId
    annotation: NodeAnnotation
    children: List[Tuple[NodeId, float]]
    next_child: int = 0
    entry_weight: float = 0.0  # weight of the edge the DFS arrived by


class DFSEngine:
    """Depth-first kl-stable cluster search over a cluster graph."""

    def __init__(self, graph: ClusterGraph, l: int, k: int,
                 store: Optional[StateStore] = None,
                 prune: bool = True,
                 stats: Optional[DFSStats] = None) -> None:
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.l = l
        self.k = k
        self.prune = prune
        self.stats = stats if stats is not None else DFSStats()
        self.global_heap: TopK[Path] = TopK(k, key=path_key)
        self._store: Union[StateStore, dict]
        self._store = store if store is not None else {}
        self._last_interval = graph.num_intervals - 1

    # ------------------------------------------------------------------
    # Node store access (one random I/O per read/write when disk-backed)
    # ------------------------------------------------------------------

    def _read(self, node: NodeId) -> NodeAnnotation:
        self.stats.node_reads += 1
        annotation = self._store.get(node)
        return annotation if annotation is not None else NodeAnnotation()

    def _write(self, node: NodeId, annotation: NodeAnnotation) -> None:
        self.stats.node_writes += 1
        self._store[node] = annotation

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> List[Path]:
        """Execute the search; returns top-k length-l paths, best first."""
        if self.l > self._last_interval:
            return []
        source_frame = _Frame(
            node=SOURCE, annotation=NodeAnnotation(),
            children=self._source_children())
        stack: List[_Frame] = [source_frame]

        while stack:
            frame = stack[-1]
            if frame.next_child < len(frame.children):
                child, weight = frame.children[frame.next_child]
                frame.next_child += 1
                self._consider_child(stack, frame, child, weight)
            else:
                self._pop(stack)
        return self.global_heap.items()

    def _source_children(self) -> List[Tuple[NodeId, float]]:
        """Every node that can start a length-l path, earliest first."""
        children: List[Tuple[NodeId, float]] = []
        for interval in range(self._last_interval - self.l + 1):
            for node in self.graph.nodes_at(interval):
                children.append((node, 0.0))
        return children

    def _consider_child(self, stack: List[_Frame], frame: _Frame,
                        child: NodeId, weight: float) -> None:
        annotation = self._read(child)
        if annotation.visited:
            # Memoized subtree: propagate its bestpaths into the parent.
            if frame.node != SOURCE:
                self._merge_into(frame, child, weight, annotation)
            return
        # Fresh (or previously unmarked) node: push and explore.
        annotation.visited = True
        if frame.node != SOURCE:
            self._update_maxweight(frame, child, weight, annotation)
        child_frame = _Frame(node=child, annotation=annotation,
                             children=list(self.graph.children(child)),
                             entry_weight=weight)
        stack.append(child_frame)
        self.stats.pushes += 1
        if self.prune and self._can_prune(child, annotation):
            self.stats.prunes += 1
            # Nothing below this node can reach the top-k right now:
            # postpone its subtree until a heavier prefix arrives.
            for pending in stack:
                pending.annotation.visited = False
            self._pop(stack)

    def _update_maxweight(self, frame: _Frame, child: NodeId,
                          weight: float,
                          annotation: NodeAnnotation) -> None:
        length = child[0] - frame.node[0]
        self._raise_maxweight(annotation, length, weight)
        for x, best in frame.annotation.maxweight.items():
            total = x + length
            if total <= self.l:
                self._raise_maxweight(annotation, total, best + weight)

    @staticmethod
    def _raise_maxweight(annotation: NodeAnnotation, length: int,
                         weight: float) -> None:
        current = annotation.maxweight.get(length)
        if current is None or weight > current:
            annotation.maxweight[length] = weight

    def _can_prune(self, node: NodeId, annotation: NodeAnnotation) -> bool:
        min_key = self.global_heap.min_key()
        if min_key is None:
            return False
        min_weight = min_key[0]
        interval = node[0]
        if interval + self.l <= self._last_interval:
            # A top-k path could *start* here; its weight is bounded
            # only by l, which always reaches min-k (weights are <= 1
            # per unit length).  Never prune such a node.
            return False
        for x, best in annotation.maxweight.items():
            if x >= self.l:
                continue
            if best + (self.l - x) >= min_weight:
                return False
        return True

    def _pop(self, stack: List[_Frame]) -> None:
        frame = stack.pop()
        if frame.node == SOURCE:
            return
        self.stats.pops += 1
        self._write(frame.node, frame.annotation)
        parent = stack[-1]
        if parent.node != SOURCE:
            self._merge_into(parent, frame.node, frame.entry_weight,
                             frame.annotation)

    def _merge_into(self, frame: _Frame, child: NodeId, weight: float,
                    child_annotation: NodeAnnotation) -> None:
        """Extend the child's suffix paths backward into the parent
        (paper: "update bestpaths(c) using info from c'").  Only a
        suffix whose extended weight the parent's heap of that length
        can still admit is built."""
        self.stats.merges += 1
        length = child[0] - frame.node[0]
        if length > self.l:
            return
        best = frame.annotation.bestpaths
        heap = path_heap(best, length, self.k)
        if heap.admits(weight):
            retain(heap, edge_path(frame.node, child, weight),
                   self.global_heap if length == self.l else None)
        for x, suffixes in child_annotation.bestpaths.items():
            total = x + length
            if total > self.l:
                continue
            heap = path_heap(best, total, self.k)
            overall = self.global_heap if total == self.l else None
            for path in suffixes:
                if heap.admits(path.weight + weight):
                    retain(heap, path.prepend(frame.node, weight),
                           overall)


def dfs_stable_clusters(graph: ClusterGraph, l: int, k: int,
                        store: Optional[StateStore] = None,
                        prune: bool = True,
                        stats: Optional[DFSStats] = None) -> List[Path]:
    """Top-k paths of length exactly *l*, best first (Problem 1)."""
    engine = DFSEngine(graph, l=l, k=k, store=store, prune=prune,
                       stats=stats)
    return engine.run()
