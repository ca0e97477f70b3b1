"""Paths in the cluster graph.

A node of the cluster graph is identified by ``(interval, index)`` —
the paper's :math:`c_{ij}`.  A path is a tuple of nodes with strictly
increasing intervals; its **length** is the temporal span (sum of edge
lengths, where an edge over a gap counts the skipped intervals — "the
length of an edge over a single gap of length g is considered to be
g + 1"), and its **weight** is the sum of edge affinities.

Paths order by ``(weight, nodes)``: weight first, node tuple as a
deterministic tie break.  That makes top-k sets unique, which lets the
BFS, DFS, TA and brute-force implementations be compared for exact
equality in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

NodeId = Tuple[int, int]


@dataclass(frozen=True, order=True)
class Path:
    """An immutable weighted path (ordering: weight, then nodes)."""

    weight: float
    nodes: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError(
                f"a path needs at least two nodes, got {self.nodes!r}")
        intervals = [interval for interval, _ in self.nodes]
        if any(a >= b for a, b in zip(intervals, intervals[1:])):
            raise ValueError(
                f"path intervals must strictly increase, got {intervals}")

    @staticmethod
    def unchecked(weight: float, nodes: Tuple[NodeId, ...]) -> "Path":
        """A path over *nodes* the caller guarantees valid.

        The frozen dataclass's two field stores without
        ``__post_init__`` walking every interval: for a node tuple
        that was validated once already (an extension of a valid
        path, a decoded record).
        """
        path = object.__new__(Path)
        object.__setattr__(path, "weight", weight)
        object.__setattr__(path, "nodes", nodes)
        return path

    @property
    def length(self) -> int:
        """Temporal span: last interval minus first interval."""
        return self.nodes[-1][0] - self.nodes[0][0]

    @property
    def num_edges(self) -> int:
        """Number of edges: one fewer than the number of nodes.

        At most ``length``, and smaller exactly when the path crosses
        a gap — an edge over a gap of ``g`` intervals adds ``g + 1``
        to the length but is still one edge.
        """
        return len(self.nodes) - 1

    @property
    def stability(self) -> float:
        """Normalized weight: weight / length (Problem 2's score)."""
        return self.weight / self.length

    @property
    def start(self) -> NodeId:
        """First node."""
        return self.nodes[0]

    @property
    def end(self) -> NodeId:
        """Last node."""
        return self.nodes[-1]

    def append(self, node: NodeId, edge_weight: float) -> "Path":
        """Path extended forward by one edge (paper's ``append``).

        The receiver is already a valid path, so only the new end is
        checked, against its neighbour, in O(1): *node* must lie in a
        later interval than :attr:`end`.  Otherwise the constructor's
        full validation runs and raises its ``ValueError``.
        """
        build = Path.unchecked if node[0] > self.nodes[-1][0] else Path
        return build(self.weight + edge_weight, self.nodes + (node,))

    def prepend(self, node: NodeId, edge_weight: float) -> "Path":
        """Path extended backward by one edge (DFS builds suffixes).

        As :meth:`append`, with the O(1) check on the new start:
        *node* must lie in an earlier interval than :attr:`start`,
        else ``ValueError``.
        """
        build = Path.unchecked if node[0] < self.nodes[0][0] else Path
        return build(self.weight + edge_weight, (node,) + self.nodes)

    def is_suffix_of(self, other: "Path") -> bool:
        """True when this path's nodes are a suffix of *other*'s."""
        n = len(self.nodes)
        return n <= len(other.nodes) and other.nodes[-n:] == self.nodes

    def __str__(self) -> str:
        chain = "-".join(f"c{i}.{j}" for i, j in self.nodes)
        return f"{chain} (w={self.weight:.3f}, len={self.length})"


def edge_path(u: NodeId, v: NodeId, weight: float) -> Path:
    """The single-edge path ``u -> v``."""
    return Path(weight=weight, nodes=(u, v))
