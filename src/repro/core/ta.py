"""Threshold-Algorithm adaptation for full stable paths (Section 4.4).

For every interval pair ``(i, j)`` with ``j - i <= g + 1`` a list of
edges sorted by descending weight is maintained (sorted access).
Edges are consumed round-robin; each newly seen edge triggers random
probes that enumerate every full path (first interval to last)
containing it — all prefixes ending at its tail times all suffixes
starting at its head.  The scan stops when the k-th best discovered
path is at least the *threshold*: the best weight any undiscovered
path could still achieve, computed by a dynamic program over the
current per-list ceilings (for ``g = 0`` this reduces to Fagin's
classic sum-of-heads virtual tuple).

As the paper observes, the number of random probes can reach
``m^(d-1)``, so the adaptation is only practical for small ``m``; the
``startwts`` / ``endwts`` hash tables (aggregate weight of the best
path starting/ending at a node, filled in as probes complete) bound
whole edges away without I/O and are implemented here as well.

This algorithm only finds *full* paths: ``l`` is fixed to ``m - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.bfs import path_key
from repro.core.cluster_graph import ClusterGraph
from repro.core.heaps import TopK
from repro.core.paths import NodeId, Path
from repro.core.solver_stats import SolverStats

NEG_INF = float("-inf")


@dataclass
class TAStats(SolverStats):
    """Work counters for a TA run (benchmark output)."""

    sorted_accesses: int = 0
    random_probes: int = 0
    paths_enumerated: int = 0
    edges_skipped_by_bounds: int = 0
    rounds: int = 0


@dataclass
class _EdgeList:
    """One sorted edge list for an interval pair."""

    pair: Tuple[int, int]
    edges: List[Tuple[float, NodeId, NodeId]]  # weight-desc
    cursor: int = 0

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.edges)

    @property
    def ceiling(self) -> float:
        """Largest weight an *unseen* edge of this list can have.

        Once exhausted, the last weight keeps bounding paths that use a
        seen edge of this list (classic TA behaviour).
        """
        if not self.edges:
            return NEG_INF
        if self.exhausted:
            return self.edges[-1][0]
        return self.edges[self.cursor][0]


class TAEngine:
    """Threshold-algorithm search for top-k full paths."""

    def __init__(self, graph: ClusterGraph, k: int,
                 stats: Optional[TAStats] = None) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = k
        self.stats = stats if stats is not None else TAStats()
        self.global_heap: TopK[Path] = TopK(k, key=path_key)
        self._m = graph.num_intervals
        self._startwts: Dict[NodeId, float] = {}
        self._endwts: Dict[NodeId, float] = {}
        # Canonical per-edge weights: a path found through different
        # seed edges must get bit-identical weight (left-to-right sum)
        # or the top-k heap would retain float-jittered duplicates.
        self._edge_weight: Dict[Tuple[NodeId, NodeId], float] = {}
        self._lists = self._build_lists()

    def _build_lists(self) -> List[_EdgeList]:
        by_pair: Dict[Tuple[int, int], List[Tuple[float, NodeId, NodeId]]]
        by_pair = {}
        for parent, child, weight in self.graph.edges():
            by_pair.setdefault((parent[0], child[0]), []).append(
                (weight, parent, child))
            known = self._edge_weight.get((parent, child))
            if known is None or weight > known:
                self._edge_weight[(parent, child)] = weight
        lists = []
        for pair in sorted(by_pair):
            edges = sorted(by_pair[pair],
                           key=lambda e: (-e[0], e[1], e[2]))
            lists.append(_EdgeList(pair=pair, edges=edges))
        return lists

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> List[Path]:
        """Round-robin over the sorted lists until the threshold test
        certifies the current top-k."""
        if self._m < 2 or not self._lists:
            return []
        while True:
            self.stats.rounds += 1
            progressed = False
            for edge_list in self._lists:
                if edge_list.exhausted:
                    continue
                weight, tail, head = edge_list.edges[edge_list.cursor]
                edge_list.cursor += 1
                self.stats.sorted_accesses += 1
                progressed = True
                self._process_edge(tail, head, weight)
                if self._can_stop():
                    return self.global_heap.items()
            if not progressed:
                # Every list exhausted: all paths have been enumerated.
                return self.global_heap.items()

    def _process_edge(self, tail: NodeId, head: NodeId,
                      weight: float) -> None:
        min_key = self.global_heap.min_key()
        start_bound = self._startwts.get(head)
        end_bound = self._endwts.get(tail)
        if (min_key is not None and start_bound is not None
                and end_bound is not None
                and end_bound + weight + start_bound < min_key[0]):
            # Upper bound already below min-k: skip all probes.
            self.stats.edges_skipped_by_bounds += 1
            return
        prefixes = list(self._paths_ending_at(tail))
        suffixes = list(self._paths_starting_at(head))
        self._endwts[tail] = max((p for p, _ in prefixes), default=NEG_INF)
        self._startwts[head] = max((s for s, _ in suffixes),
                                   default=NEG_INF)
        for prefix_weight, prefix_nodes in prefixes:
            for suffix_weight, suffix_nodes in suffixes:
                nodes = prefix_nodes + suffix_nodes
                total = 0.0
                for a, b in zip(nodes, nodes[1:]):
                    total += self._edge_weight[(a, b)]
                self.stats.paths_enumerated += 1
                if self.global_heap.admits(total):
                    self.global_heap.check(Path(weight=total, nodes=nodes))

    # ------------------------------------------------------------------
    # Random probes
    # ------------------------------------------------------------------

    def _paths_ending_at(self, node: NodeId
                         ) -> Iterator[Tuple[float, Tuple[NodeId, ...]]]:
        """All (weight, nodes) of paths from the first interval ending
        at *node* — including the trivial one when *node* is there."""
        if node[0] == 0:
            yield (0.0, (node,))
            return
        for parent, weight in self.graph.parents(node):
            self.stats.random_probes += 1
            for prefix_weight, prefix_nodes in self._paths_ending_at(parent):
                yield (prefix_weight + weight, prefix_nodes + (node,))

    def _paths_starting_at(self, node: NodeId
                           ) -> Iterator[Tuple[float, Tuple[NodeId, ...]]]:
        """All (weight, nodes) of paths from *node* to the last
        interval — including the trivial one when *node* is there."""
        if node[0] == self._m - 1:
            yield (0.0, (node,))
            return
        for child, weight in self.graph.children(node):
            self.stats.random_probes += 1
            for suffix_weight, suffix_nodes in self._paths_starting_at(child):
                yield (suffix_weight + weight, (node,) + suffix_nodes)

    # ------------------------------------------------------------------
    # Threshold
    # ------------------------------------------------------------------

    def _threshold(self) -> float:
        """Best conceivable weight of a not-yet-discovered full path.

        Dynamic program over intervals: the ceiling of list (i, j)
        bounds any unseen edge between those intervals.  For g = 0
        this is exactly the sum of the per-list heads (Fagin's virtual
        tuple); with gaps it is the heaviest head-chain.
        """
        ceilings: Dict[Tuple[int, int], float] = {
            edge_list.pair: edge_list.ceiling for edge_list in self._lists}
        best = [NEG_INF] * self._m
        best[0] = 0.0
        for j in range(1, self._m):
            for i in range(max(0, j - self.graph.gap - 1), j):
                ceiling = ceilings.get((i, j), NEG_INF)
                if best[i] > NEG_INF and ceiling > NEG_INF:
                    candidate = best[i] + ceiling
                    if candidate > best[j]:
                        best[j] = candidate
        return best[self._m - 1]

    def _can_stop(self) -> bool:
        # Strict inequality: an undiscovered path tying min-k could
        # still beat the retained one under the deterministic
        # (weight, nodes) order, so only a strictly larger min-k is a
        # safe certificate.
        min_key = self.global_heap.min_key()
        if min_key is None:
            return False
        return min_key[0] > self._threshold()


def ta_stable_clusters(graph: ClusterGraph, k: int,
                       stats: Optional[TAStats] = None) -> List[Path]:
    """Top-k full paths (length m - 1), best first, via TA."""
    return TAEngine(graph, k=k, stats=stats).run()
