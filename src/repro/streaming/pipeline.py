"""End-to-end streaming ingestion: raw documents -> incremental top-k.

The batch pipeline (:func:`repro.pipeline.find_stable_clusters`) sees
the whole corpus at once; a serving tier sees one interval at a time.
:class:`StreamingDocumentPipeline` runs the same two stages
incrementally: each pushed interval's documents go through Section-3
cluster generation (co-occurrence counting, chi-square and
correlation pruning, biconnected components), the resulting keyword
clusters are joined against the previous ``gap + 1`` intervals with
the inverted-keyword-index candidate join of Section 4.1, and the
edges feed the incremental BFS engines of Section 4.6 — so after m
intervals the maintained top-k equals what the batch pipeline computes
over the same m-interval corpus, while resident state (and any
:class:`~repro.storage.StateStore` backend) holds at most ``gap + 1``
intervals.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.affinity import get_measure
from repro.cooccur.keyword_graph import RHO_DEFAULT
from repro.core.online import StreamingAffinityPipeline
from repro.core.paths import NodeId, Path
from repro.core.stability import THETA_DEFAULT
from repro.engine.query import StableQuery
from repro.index.merge import MergePolicy
from repro.index.writer import (
    DEFAULT_FLUSH_INTERVALS,
    ClusterIndexWriter,
)
from repro.pipeline.cluster_generation import (
    ClusterGenerationReport,
    generate_interval_clusters_task,
)
from repro.storage.backends import StateStore
from repro.text.documents import Document, IntervalCorpus
from repro.vocab import Vocabulary


@dataclass
class IntervalIngestReport:
    """What ingesting one interval cost and produced."""

    interval: int = 0
    num_documents: int = 0
    num_clusters: int = 0
    num_edges: int = 0
    vocab_size: int = 0
    seconds_clustering: float = 0.0
    seconds_linking: float = 0.0

    @property
    def seconds_total(self) -> float:
        """Whole per-interval ingest latency."""
        return self.seconds_clustering + self.seconds_linking

    def describe(self) -> str:
        """One status line for monitors and the CLI's --follow mode."""
        vocab = f", vocab {self.vocab_size}" if self.vocab_size else ""
        return (f"interval {self.interval}: {self.num_documents} docs "
                f"-> {self.num_clusters} clusters, "
                f"{self.num_edges} edges{vocab} "
                f"({self.seconds_total * 1000:.1f}ms)")


@dataclass
class _PipelineConfig:
    rho_threshold: float = RHO_DEFAULT
    min_edges: int = 2
    theta: float = THETA_DEFAULT


class StreamingDocumentPipeline:
    """Ingests per-interval documents, maintains incremental top-k.

    ``problem`` selects kl-stable (``'kl'``, paths of length exactly
    *l*) or normalized (``'normalized'``, length >= *l*, scored
    weight/length) maintenance.  ``store`` may be any
    :class:`~repro.storage.StateStore`; node state older than
    ``gap + 1`` intervals is evicted from it, so the store stays
    bounded however long the stream runs.  Per-interval costs are
    recorded as :class:`IntervalIngestReport` objects on ``reports``.

    ``index_dir`` maintains a *live* persistent index
    (:mod:`repro.index`) alongside the stream: every ingested
    interval's clusters and the evolving top-k are appended as they
    arrive, so a concurrent :class:`~repro.service.ClusterQueryService`
    can serve (and ``refresh()``-tail) the stream's results;
    :meth:`close` finalizes the index.  An existing index at
    ``index_dir`` is *continued* — its vocabulary deltas preload the
    pipeline's vocabulary and new intervals extend the stored
    timeline — unless ``index_append=False`` rebuilds it from
    scratch.  ``flush_intervals`` seals an index segment every N
    ingested intervals and ``merge_policy``/``background_merge``
    control the compaction of sealed segments
    (:class:`~repro.index.merge.MergePolicy`; ``None`` disables
    merging).
    """

    def __init__(self, l: int, k: int, gap: int = 0,
                 problem: str = "kl",
                 rho_threshold: float = RHO_DEFAULT,
                 affinity: Union[str, Callable] = "jaccard",
                 theta: float = THETA_DEFAULT,
                 min_edges: int = 2,
                 store: Optional[StateStore] = None,
                 index_dir: Optional[str] = None,
                 index_append: bool = True,
                 flush_intervals: Optional[int]
                 = DEFAULT_FLUSH_INTERVALS,
                 merge_policy: Optional[MergePolicy] = MergePolicy(),
                 background_merge: bool = False) -> None:
        measure = get_measure(affinity) if isinstance(affinity, str) \
            else affinity
        self.config = _PipelineConfig(rho_threshold=rho_threshold,
                                      min_edges=min_edges, theta=theta)
        # The stream's corpus vocabulary: grows incrementally as
        # intervals arrive; every ingested cluster is rebound into it,
        # so the whole window computes on one id namespace.
        self.vocab = Vocabulary()
        self.linker = StreamingAffinityPipeline(
            l=l, k=k, gap=gap, affinity=measure, theta=theta,
            mode=problem, store=store)
        self.reports: List[IntervalIngestReport] = []
        self.generation_reports: List[ClusterGenerationReport] = []
        self.index_dir = index_dir
        self._index_writer: Optional[ClusterIndexWriter] = None
        if index_dir is not None:
            self._index_writer = ClusterIndexWriter(
                index_dir, vocab=self.vocab,
                query=StableQuery(problem=problem, l=l, k=k, gap=gap),
                overwrite=not index_append,
                append=index_append,
                flush_intervals=flush_intervals,
                merge_policy=merge_policy,
                background_merge=background_merge)

    @property
    def index_writer(self) -> Optional[ClusterIndexWriter]:
        """The live index writer, when one is maintained."""
        return self._index_writer

    def close(self, finalize_index: bool = True) -> None:
        """Close the live index, if one is being maintained.

        ``finalize_index=False`` closes the index *without* marking
        it complete — the right call when the stream died mid-run, so
        tailing readers see ``complete: false`` instead of mistaking
        a truncated run for a finished one (the context-manager form
        picks automatically from the exception state).
        """
        if self._index_writer is not None:
            if finalize_index:
                self._index_writer.finalize()
            else:
                self._index_writer.abort()

    def __enter__(self) -> "StreamingDocumentPipeline":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(finalize_index=exc_type is None)

    @classmethod
    def from_query(cls, query, **kwargs) -> "StreamingDocumentPipeline":
        """Build a document pipeline for a
        :class:`~repro.engine.StableQuery` (keyword arguments pass
        through to the constructor).  A query that requests
        ``workers`` raises: the stream runs serially."""
        return cls(l=query.streaming_length(), k=query.k,
                   gap=query.gap, problem=query.problem, **kwargs)

    # ------------------------------------------------------------------
    # Feeding the stream
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Intervals ingested so far."""
        return self.linker.stream.num_intervals

    def add_texts(self, texts: Sequence[str]) -> IntervalIngestReport:
        """Ingest one interval given raw post texts."""
        interval = self.num_intervals
        return self.add_documents([
            Document(doc_id=f"t{interval}.{i}", interval=interval,
                     text=text)
            for i, text in enumerate(texts)])

    def add_documents(self, documents: Sequence[Document]
                      ) -> IntervalIngestReport:
        """Ingest one interval's documents (cluster, link, search).

        Documents are re-homed to the stream's current interval index;
        their own ``interval`` fields are ignored (the stream defines
        time, not the payload).
        """
        interval = self.num_intervals
        started = time.perf_counter()
        rehomed = [doc if doc.interval == interval
                   else dataclasses.replace(doc, interval=interval)
                   for doc in documents]
        clusters, generation = generate_interval_clusters_task(
            rehomed, interval,
            rho_threshold=self.config.rho_threshold,
            min_edges=self.config.min_edges)
        clustered = time.perf_counter()
        self.generation_reports.append(generation)
        report = self.add_clusters(clusters)
        report.num_documents = len(documents)
        report.seconds_clustering = clustered - started
        return report

    def ingest_adapter(self, adapter) -> List[IntervalIngestReport]:
        """Replay a :class:`repro.corpus` adapter through the stream.

        Buffers the adapter into an
        :meth:`~repro.text.IntervalCorpus.from_adapter` corpus first
        (adapter record order need not be time-sorted), then feeds
        each interval — including empty ones inside the span, so the
        timeline matches the batch pipeline's — through
        :meth:`add_documents` in ascending order.  Returns the
        per-interval reports of this replay; the adapter's own
        :class:`~repro.corpus.IngestReport` is complete afterwards.
        """
        corpus = IntervalCorpus.from_adapter(adapter)
        return [self.add_documents(corpus.documents(interval))
                for interval in range(corpus.num_intervals)]

    def add_clusters(self, clusters: Sequence) -> IntervalIngestReport:
        """Ingest one interval's pre-generated keyword clusters
        (the document stages already ran elsewhere).

        Interned clusters — whatever vocabulary they arrive bound to —
        are rebound into this pipeline's growing vocabulary first, so
        the window join always intersects ids of one namespace.
        Cluster-like objects without a token representation pass
        through unchanged (the join falls back to keyword strings).
        """
        interval = self.num_intervals
        started = time.perf_counter()
        rebound = [cluster.rebind(self.vocab)
                   if hasattr(cluster, "rebind") else cluster
                   for cluster in clusters]
        self.linker.add_interval(rebound)
        if self._index_writer is not None:
            self._index_writer.append_interval(rebound)
            self._index_writer.set_paths(self.top_k())
        finished = time.perf_counter()
        report = IntervalIngestReport(
            interval=interval,
            num_clusters=len(rebound),
            num_edges=self.linker.last_num_edges,
            vocab_size=len(self.vocab),
            seconds_linking=finished - started)
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # Reading results
    # ------------------------------------------------------------------

    def top_k(self) -> List[Path]:
        """Current top-k paths, best first."""
        return self.linker.top_k()

    def cluster_for(self, node: NodeId):
        """The keyword cluster behind *node*, if its interval is still
        within the ``gap + 1`` window (older clusters are evicted)."""
        return self.linker.cluster_for(node)

    def generation_summary(self) -> ClusterGenerationReport:
        """Every ingested interval's Section-3 stage report merged
        into one Figure-6 row (document-fed intervals only;
        :meth:`add_clusters` skips the generation stage)."""
        return ClusterGenerationReport.merge(self.generation_reports)

    @property
    def stats(self):
        """The underlying engine's work counters."""
        return self.linker.stream.stats
