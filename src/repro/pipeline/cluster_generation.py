"""Section 3 end to end: documents of one interval -> keyword clusters.

The driver performs the paper's full cluster-generation procedure:
read the interval's documents, build the co-occurrence triplets
(optionally through the external-memory sort), run the chi-square and
correlation-coefficient pruning, and report the biconnected components
of the pruned graph as keyword clusters.  A report object records the
stage-by-stage sizes the Figure 6 experiment plots.

Two entry points cover the two calling shapes:

* :func:`generate_interval_clusters` — the corpus-facing call the
  batch pipeline and CLI use;
* :func:`generate_interval_clusters_task` — the same procedure as a
  *pure function of plain documents*, returning ``(clusters,
  report)``.  It closes over nothing and every argument and result
  pickles, so it is the unit of work
  :class:`~repro.parallel.ProcessExecutor` fans out across intervals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

from repro.cooccur.keyword_graph import KeywordGraph, PruneReport, RHO_DEFAULT
from repro.graph.clusters import (
    KeywordCluster,
    compact_clusters,
    extract_clusters,
)
from repro.stats import CHI2_CRITICAL_95
from repro.storage.iostats import IOStats
from repro.text.documents import Document, IntervalCorpus
from repro.vocab import Vocabulary


@dataclass
class ClusterGenerationReport:
    """Stage sizes and timings of one cluster-generation run.

    ``num_edges`` counts the keyword pairs the build counted, those
    whose two keywords meet the support floor
    (:data:`~repro.cooccur.keyword_graph.MIN_SUPPORT`), not every
    co-occurring pair of G; ``edges_after_chi2`` and
    ``edges_after_rho`` are the survivors of each pruning test.
    """

    interval: int = 0
    num_documents: int = 0
    num_keywords: int = 0
    num_edges: int = 0
    edges_after_chi2: int = 0
    edges_after_rho: int = 0
    num_clusters: int = 0
    seconds_counting: float = 0.0
    seconds_pruning: float = 0.0
    seconds_art: float = 0.0

    @property
    def seconds_total(self) -> float:
        """Whole-procedure wall time (the Figure 6 y-axis)."""
        return self.seconds_counting + self.seconds_pruning \
            + self.seconds_art

    @classmethod
    def merge(cls, reports: Sequence["ClusterGenerationReport"]
              ) -> "ClusterGenerationReport":
        """Sum per-interval (or per-worker) reports into one row.

        Counts and stage seconds add; ``interval`` becomes the
        smallest merged interval (the row labels a range, not one
        tick).  Parallel runs merge each worker's report through this
        so a fanned-out generation still yields one Figure-6 row.
        """
        merged = cls()
        if not reports:
            return merged
        merged.interval = min(report.interval for report in reports)
        for report in reports:
            for spec in fields(cls):
                if spec.name == "interval":
                    continue
                setattr(merged, spec.name,
                        getattr(merged, spec.name)
                        + getattr(report, spec.name))
        return merged

    def __add__(self, other: "ClusterGenerationReport"
                ) -> "ClusterGenerationReport":
        return type(self).merge([self, other])


def generate_interval_clusters_task(
        documents: Sequence[Document], interval: int,
        rho_threshold: float = RHO_DEFAULT,
        chi2_critical: float = CHI2_CRITICAL_95,
        min_edges: int = 2,
        include_bridge_trees: bool = False,
        external: bool = False,
        directory: Optional[str] = None,
        stats: Optional[IOStats] = None
) -> Tuple[List[KeywordCluster], ClusterGenerationReport]:
    """The full Section 3 procedure as a pure, picklable unit of work.

    Takes plain documents (not a corpus) and returns both the clusters
    and the stage report, so per-interval runs can be shipped to
    worker processes and their outputs merged.  The whole procedure
    computes on interned keyword ids: documents are interned into an
    interval-local vocabulary (new tokens in sorted order, so id
    order mirrors lexicographic keyword order and the run is
    positionally identical to a string-token run), counting, pruning
    and biconnected components operate on int pairs, and the reported
    clusters come back bound to a minimal
    :class:`~repro.vocab.FrozenVocabulary` — a pickled result ships
    each surviving keyword string once, not once per cluster.
    Drivers rebind the clusters into their corpus vocabulary
    (:meth:`~repro.graph.clusters.KeywordCluster.rebind`).  ``stats``
    is only meaningful in-process (a worker's copy would mutate in
    vain).
    """
    report = ClusterGenerationReport(interval=interval)
    if not documents:
        return [], report

    started = time.perf_counter()
    vocab = Vocabulary()
    keyword_sets = vocab.intern_sets(
        doc.keywords() for doc in documents)
    graph = KeywordGraph.from_keyword_sets(
        keyword_sets, external=external, directory=directory, stats=stats)
    counted = time.perf_counter()

    prune_report = PruneReport()
    pruned = graph.prune(rho_threshold=rho_threshold,
                         chi2_critical=chi2_critical,
                         report=prune_report)
    pruned_at = time.perf_counter()

    clusters = compact_clusters(extract_clusters(
        pruned, interval=interval, min_edges=min_edges,
        include_bridge_trees=include_bridge_trees, vocab=vocab))
    finished = time.perf_counter()

    report.num_documents = len(documents)
    report.num_keywords = graph.num_keywords
    report.num_edges = graph.num_edges
    report.edges_after_chi2 = prune_report.after_chi2
    report.edges_after_rho = prune_report.after_rho
    report.num_clusters = len(clusters)
    report.seconds_counting = counted - started
    report.seconds_pruning = pruned_at - counted
    report.seconds_art = finished - pruned_at
    return clusters, report


def generate_interval_clusters(corpus: IntervalCorpus, interval: int,
                               rho_threshold: float = RHO_DEFAULT,
                               chi2_critical: float = CHI2_CRITICAL_95,
                               min_edges: int = 2,
                               include_bridge_trees: bool = False,
                               external: bool = False,
                               directory: Optional[str] = None,
                               stats: Optional[IOStats] = None,
                               report: Optional[ClusterGenerationReport]
                               = None) -> List[KeywordCluster]:
    """Run the full Section 3 procedure for one temporal interval."""
    documents = corpus.documents(interval)
    if not documents:
        return []
    clusters, task_report = generate_interval_clusters_task(
        documents, interval, rho_threshold=rho_threshold,
        chi2_critical=chi2_critical, min_edges=min_edges,
        include_bridge_trees=include_bridge_trees, external=external,
        directory=directory, stats=stats)
    if report is not None:
        for spec in fields(ClusterGenerationReport):
            setattr(report, spec.name, getattr(task_report, spec.name))
    return clusters
