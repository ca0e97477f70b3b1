"""Graph substrate: adjacency structures and Algorithm 1.

The paper reports the biconnected components of the pruned keyword
graph G' as keyword clusters (Section 3, Algorithm 1).  This package
provides the undirected weighted graph type, an iterative
Hopcroft–Tarjan implementation of articulation points / biconnected
components, and the cluster extraction that layers the paper's
reporting rules on top.
"""

from repro.graph.adjacency import Graph
from repro.graph.biconnected import (
    BiconnectedResult,
    articulation_points,
    biconnected_components,
)
from repro.graph.clusters import (
    KeywordCluster,
    compact_clusters,
    extract_clusters,
)
from repro.graph.components import connected_components

__all__ = [
    "BiconnectedResult",
    "Graph",
    "KeywordCluster",
    "articulation_points",
    "biconnected_components",
    "compact_clusters",
    "connected_components",
    "extract_clusters",
]
