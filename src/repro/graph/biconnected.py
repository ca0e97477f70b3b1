"""Articulation points and biconnected components (Algorithm 1).

The paper's Algorithm 1 is the classic Hopcroft–Tarjan scheme: a DFS
assigns discovery numbers ``un[u]`` and low-links ``low[u]``; tree
edges and back edges are pushed on a stack, and whenever a child ``w``
of ``u`` finishes with ``low[w] >= un[u]`` the edges above (and
including) ``(u, w)`` form one biconnected component.

The paper stresses secondary-storage behaviour: the only in-memory
data structure is the edge stack, "efficiently paged to secondary
storage if its size exceeds available resources".  Here the edge
stack is a plain list: no caller has needed it paged out.  The DFS
itself is iterative, so million-vertex graphs do not hit Python's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.graph.adjacency import Graph

Vertex = Any
Edge = Tuple[Vertex, Vertex]


@dataclass
class BiconnectedResult:
    """Output of Algorithm 1 over one graph.

    ``components`` holds each biconnected component as a list of edges
    (in stack pop order); ``articulation_points`` is the set of cut
    vertices; ``isolated_vertices`` are degree-0 vertices, which belong
    to no component.
    """

    components: List[List[Edge]] = field(default_factory=list)
    articulation_points: Set[Vertex] = field(default_factory=set)
    isolated_vertices: Set[Vertex] = field(default_factory=set)

    def vertex_sets(self) -> List[Set[Vertex]]:
        """Vertex set of each component, in component order."""
        result = []
        for component in self.components:
            vertices: Set[Vertex] = set()
            for u, v in component:
                vertices.add(u)
                vertices.add(v)
            result.append(vertices)
        return result


def biconnected_components(graph: Graph) -> BiconnectedResult:
    """Run Algorithm 1 over every connected component of *graph*."""
    result = BiconnectedResult()
    un: Dict[Vertex, int] = {}
    low: Dict[Vertex, int] = {}
    time = 0
    edge_stack: List[Edge] = []
    for root in graph.vertices():
        if root in un:
            continue
        if graph.degree(root) == 0:
            result.isolated_vertices.add(root)
            continue
        time = _dfs_from_root(graph, root, un, low, time, edge_stack,
                              result)
    return result


def _dfs_from_root(graph: Graph, root: Vertex, un: Dict, low: Dict,
                   time: int, edge_stack: List[Edge],
                   result: BiconnectedResult) -> int:
    """Iterative Hopcroft–Tarjan from one root; returns updated clock."""
    time += 1
    un[root] = low[root] = time
    root_children = 0
    # Frames: (vertex, parent, neighbour iterator).
    dfs_stack = [(root, None, graph.neighbors(root))]

    while dfs_stack:
        u, parent, neighbours = dfs_stack[-1]
        w = next(neighbours, None)

        if w is None:
            # u is finished: backtrack and test the articulation
            # condition low[u] >= un[p] at the parent p.
            dfs_stack.pop()
            if not dfs_stack:
                continue
            p = dfs_stack[-1][0]
            if low[u] >= un[p]:
                # Pop all edges on top of the stack until
                # (inclusively) edge (p, u), newest first.
                component = []
                while True:
                    edge = edge_stack.pop()
                    component.append(edge)
                    if edge == (p, u):
                        break
                result.components.append(component)
                is_root = len(dfs_stack) == 1
                if not is_root:
                    result.articulation_points.add(p)
            low[p] = min(low[p], low[u])
            continue

        if w == parent:
            continue
        if w not in un:
            # Tree edge.
            edge_stack.append((u, w))
            time += 1
            un[w] = low[w] = time
            if u == root:
                root_children += 1
            dfs_stack.append((w, u, graph.neighbors(w)))
        elif un[w] < un[u]:
            # Back edge to a proper ancestor.
            edge_stack.append((u, w))
            low[u] = min(low[u], un[w])
        # else: w is an already-finished descendant; the edge was
        # pushed when w scanned u, so nothing to do.

    if root_children >= 2:
        result.articulation_points.add(root)
    return time


def articulation_points(graph: Graph) -> Set[Vertex]:
    """Cut vertices of *graph* (convenience over Algorithm 1)."""
    return biconnected_components(graph).articulation_points


def biconnected_vertex_sets(graph: Graph) -> Iterator[Set[Vertex]]:
    """Yield the vertex set of each biconnected component."""
    for vertices in biconnected_components(graph).vertex_sets():
        yield vertices
