"""The Section-3 stages, re-driven one call at a time under spans.

``find_stable_clusters`` and ``StreamingDocumentPipeline`` both run
``generate_interval_clusters_task`` per interval; that function is
one call from outside, so its stages cannot be timed through it.
The traced runs call the same public stage functions in the same
order with the same defaults instead, and the workloads check that
the clusters (and, downstream, the paths) come out identical — so
the decomposition is faithful, and a later PR that changes what the
pipeline composes fails that check rather than silently drifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cooccur.keyword_graph import KeywordGraph, PruneReport
from repro.graph.clusters import (
    KeywordCluster,
    compact_clusters,
    extract_clusters,
)
from repro.text.documents import Document
from repro.vocab import Vocabulary

from e2ebench.spans import Tracer


@dataclass
class StageCounts:
    """Work counted at the stage boundaries, summed over intervals."""

    tokens: int = 0
    pairs: int = 0
    edges_after_chi2: int = 0
    edges_after_rho: int = 0
    clusters: int = 0

    def layers(self, ops: int) -> dict:
        """Per-operation values under their per-layer metric names."""
        return {
            "text.tokens": self.tokens / ops,
            "cooccur.pairs": self.pairs / ops,
            "cooccur.edges_after_chi2": self.edges_after_chi2 / ops,
            "cooccur.edges_after_rho": self.edges_after_rho / ops,
            "cooccur.edge_survival":
                self.edges_after_rho / self.pairs if self.pairs else 0,
            "graph.clusters": self.clusters / ops,
        }


def generate_clusters(tracer: Tracer, documents: Sequence[Document],
                      interval: int, counts: StageCounts
                      ) -> List[KeywordCluster]:
    """One interval's keyword clusters, a span per stage."""
    if not documents:
        return []
    vocab = Vocabulary()
    with tracer.span("text.keywords"):
        keywords = [doc.keywords() for doc in documents]
    with tracer.span("vocab.intern"):
        keyword_sets = vocab.intern_sets(keywords)
    with tracer.span("cooccur.count"):
        graph = KeywordGraph.from_keyword_sets(keyword_sets)
    report = PruneReport()
    with tracer.span("cooccur.prune"):
        pruned = graph.prune(report=report)
    with tracer.span("graph.clusters"):
        clusters = compact_clusters(extract_clusters(
            pruned, interval=interval, vocab=vocab))
    counts.tokens += sum(len(kws) for kws in keywords)
    counts.pairs += graph.num_edges
    counts.edges_after_chi2 += report.after_chi2
    counts.edges_after_rho += report.after_rho
    counts.clusters += len(clusters)
    return clusters
