"""The interactive query front end over a persisted cluster index.

:class:`ClusterQueryService` is what a serving tier instantiates per
index: it owns a :class:`~repro.index.ClusterIndexReader`, keeps a
bounded LRU of :class:`~repro.search.QueryRefiner` objects (one per
recently queried interval, at most :data:`MAX_OPEN_REFINERS`), and
answers the paper's Section-1 questions — refinement suggestions,
keyword -> cluster lookups, stable paths — without ever touching the
source documents.  Against a *live* index (a streaming run still
appending) :meth:`refresh` tails the growth and invalidates the
per-interval refiners that changed.

The service is thread-safe and built to be shared by every connection
of a concurrent server (:mod:`repro.serving`): queries hold a shared
read lock while :meth:`refresh` takes the write side, so a tailing
poll or a merge's segment swap rewrites the index structures only
once in-flight readers drain — and never corrupts one mid-answer.
Hot refinement answers live in a *single* LRU shared across all
intervals and connections (keyed ``(interval, stem)``), replacing the
per-refiner caches of the single-threaded era, so its hit/miss
counters survive refreshes and one memory budget bounds the whole
working set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.core.paths import Path
from repro.graph.clusters import KeywordCluster
from repro.index.reader import ClusterIndexReader
from repro.pipeline.stable_pipeline import render_path_clusters
from repro.search.refinement import QueryRefiner, Refinement
from repro.storage.lru import LRUCache
from repro.storage.rwlock import RWLock
from repro.text.stemmer import stem

DEFAULT_REFINER_CACHE = 256

# Refiners kept open at once.  They are stateless views of one
# interval's postings (rebuilding one is cheap), but a tailing service
# is asked about every interval that ever existed, so the set must
# not grow with the index.
MAX_OPEN_REFINERS = 64

_MISSING = object()


class ClusterQueryService:
    """Serve refinements, lookups, and stable paths from an index.

    Accepts a directory path (the reader is opened and owned — closed
    with the service) or an already-open
    :class:`~repro.index.ClusterIndexReader` (left open on close).
    ``cache_size`` bounds the shared hot-keyword LRU of refinement
    answers; ``cluster_cache_size`` sizes the owned reader's
    decoded-cluster LRU (only valid with a directory path, where this
    service opens the reader itself).

    All query methods are thread-safe and may be called from any
    number of threads concurrently with :meth:`refresh`.  After
    :meth:`close`, queries raise :class:`RuntimeError` (the same
    use-after-close contract as :mod:`repro.parallel` pools) instead
    of failing deep inside the reader.
    """

    def __init__(self, index: Union[str, ClusterIndexReader],
                 cache_size: int = DEFAULT_REFINER_CACHE,
                 cluster_cache_size: Optional[int] = None) -> None:
        self._owns_reader = isinstance(index, str)
        if isinstance(index, str):
            if cluster_cache_size is None:
                self.reader = ClusterIndexReader(index)
            else:
                self.reader = ClusterIndexReader(
                    index, cache_size=cluster_cache_size)
        else:
            if cluster_cache_size is not None:
                raise ValueError(
                    "cluster_cache_size applies only when the service "
                    "opens the reader itself (pass a directory path)")
            self.reader = index
        self._cache_size = cache_size
        self._refiners = LRUCache(MAX_OPEN_REFINERS)
        # One hot-keyword answer cache for every interval and every
        # connection, keyed (interval, stem).  Counters survive
        # refresh(), unlike the per-refiner caches they replace.
        self._hot = LRUCache(cache_size)
        self._rwlock = RWLock()
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} used after close()")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Intervals the index currently covers."""
        return self.reader.num_intervals

    @property
    def latest_interval(self) -> int:
        """The most recent indexed interval, the default target.

        Raises ValueError while the index is empty."""
        self._check_open()
        if self.reader.num_intervals == 0:
            raise ValueError("the index holds no intervals yet")
        return self.reader.num_intervals - 1

    def refiner(self, interval: Optional[int] = None) -> QueryRefiner:
        """The (cached) refiner for *interval* (default: latest).

        Service-built refiners carry no private answer cache; hot
        answers live in the service's shared LRU instead."""
        self._check_open()
        interval = self.latest_interval if interval is None \
            else interval
        refiner = self._refiners.get(interval)
        if refiner is None:
            # Two threads racing a cold interval may both build one;
            # refiners hold no state, so the later put simply wins.
            refiner = self.reader.refiner(interval, cache_size=0)
            self._refiners.put(interval, refiner)
        return refiner

    def refine(self, keyword: str,
               interval: Optional[int] = None) -> Optional[Refinement]:
        """Refinement suggestions for *keyword*, or None.

        *interval* defaults to the latest indexed interval; None
        means the keyword falls in no cluster there.  Answers for hot
        ``(interval, keyword)`` pairs come from the shared LRU."""
        self._check_open()
        with self._rwlock.read_locked():
            if interval is None:
                interval = self.latest_interval
            key = (interval, stem(keyword.lower()))
            cached = self._hot.get(key, _MISSING)
            if cached is not _MISSING:
                return cached
            result = self.refiner(interval).refine(keyword)
            self._hot.put(key, result)
            return result

    def lookup(self, keyword: str,
               interval: Optional[int] = None
               ) -> Optional[KeywordCluster]:
        """The cluster *keyword* falls into, or None.

        *interval* defaults to the latest indexed interval."""
        self._check_open()
        with self._rwlock.read_locked():
            return self.reader.lookup(keyword, interval)

    def stable_paths(self) -> List[Path]:
        """The run's current top-k stable paths."""
        self._check_open()
        with self._rwlock.read_locked():
            return self.reader.paths()

    def paths_for(self, keyword: str) -> List[Path]:
        """Stable paths visiting any cluster containing *keyword*."""
        self._check_open()
        with self._rwlock.read_locked():
            return self.reader.paths_through(keyword)

    def render_path(self, path: Path, max_keywords: int = 8) -> str:
        """Render one stable path, clusters read from the index.

        Uses the same renderer as the batch/stream CLI."""
        self._check_open()
        with self._rwlock.read_locked():
            return render_path_clusters(
                path, lambda node: self.reader.cluster(node)
                if self.reader.has_node(node) else None,
                max_keywords=max_keywords,
                missing="(not in index)")

    # ------------------------------------------------------------------
    # Live indexes
    # ------------------------------------------------------------------

    def refresh(self) -> bool:
        """Tail a live index; True when new intervals/paths arrived.

        Runs under the write lock, so in-flight queries finish on the
        old segment view and queries arriving during the swap wait for
        the new one.  The refiner and hot answers for what used to be
        the latest interval are invalidated (a streaming writer only
        appends, so older intervals' answers cannot change)."""
        self._check_open()
        with self._rwlock.write_locked():
            before = self.reader.num_intervals
            if not self.reader.refresh():
                return False
            for interval in self._refiners.keys():
                if interval >= before - 1:
                    self._refiners.pop(interval)
            for key in self._hot.keys():
                if key[0] >= before - 1:
                    self._hot.pop(key)
            return True

    @property
    def complete(self) -> bool:
        """True once the producing run finalized the index."""
        return self.reader.complete

    def describe(self, segments: bool = False,
                 shards: bool = False) -> str:
        """The underlying index summary (``index inspect``).

        ``segments=True`` appends one line per live segment
        (``index inspect --segments``); ``shards=True`` adds the
        per-shard skew view (``index inspect --shards``)."""
        self._check_open()
        with self._rwlock.read_locked():
            return self.reader.describe(segments=segments,
                                        shards=shards)

    # ------------------------------------------------------------------
    # Serving statistics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Serving counters: cache hit/miss totals and index shape.

        ``refiner_hits``/``refiner_misses`` count the shared
        hot-keyword answer LRU (monotonic across :meth:`refresh` —
        invalidation drops entries, never counters);
        ``cluster_hits``/``cluster_misses`` are the reader's
        decoded-cluster LRU; the rest describe what the reader
        currently serves (segment count, manifest generation, bytes
        tailed so far, whether records come off an mmap).  All
        counters reset with the process, not the index.
        """
        self._check_open()
        with self._rwlock.read_locked():
            hot_hits, hot_misses, hot_size, _ = self._hot.info()
            hits, misses, size, capacity = self.reader.cache_info()
            return {
                "refiner_hits": hot_hits,
                "refiner_misses": hot_misses,
                "refiner_entries": hot_size,
                "refiners_open": len(self._refiners),
                "cluster_hits": hits,
                "cluster_misses": misses,
                "cluster_entries": size,
                "cluster_capacity": capacity,
                "segments": self.reader.num_segments,
                "generation": self.reader.generation,
                "intervals": self.reader.num_intervals,
                "bytes_scanned": self.reader.bytes_scanned,
                "mmap_active": int(self.reader.mmap_active),
            }

    def describe_stats(self) -> str:
        """:meth:`stats` rendered for ``query --stats``."""
        stats = self.stats()

        def rate(hits: int, misses: int) -> str:
            total = hits + misses
            if total == 0:
                return "no queries yet"
            return (f"{hits}/{total} hits "
                    f"({100.0 * hits / total:.0f}%)")

        lines = [
            "service stats:",
            f"  refiner cache: "
            f"{rate(stats['refiner_hits'], stats['refiner_misses'])}"
            f", {stats['refiner_entries']} entries across "
            f"{stats['refiners_open']} interval(s)",
            f"  cluster cache: "
            f"{rate(stats['cluster_hits'], stats['cluster_misses'])}"
            f", {stats['cluster_entries']}/"
            f"{stats['cluster_capacity']} entries",
            f"  index: {stats['segments']} segments "
            f"(generation {stats['generation']}), "
            f"{stats['intervals']} intervals, "
            f"{stats['bytes_scanned']} bytes scanned, "
            f"mmap {'on' if stats['mmap_active'] else 'off'}",
        ]
        return "\n".join(lines)

    def close(self) -> None:
        """Close the reader if this service opened it (idempotent).

        Queries after close raise RuntimeError — mirroring the
        :mod:`repro.parallel` pool use-after-close contract — instead
        of failing deep in the reader."""
        if self._closed:
            return
        self._closed = True
        with self._rwlock.write_locked():
            if self._owns_reader:
                self.reader.close()

    def __enter__(self) -> "ClusterQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ClusterQueryService(dir={self.reader.directory!r}, "
                f"intervals={self.reader.num_intervals})")
