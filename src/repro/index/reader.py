"""Read path of the persistent cluster index.

:class:`ClusterIndexReader` rebuilds its lookup state — the token
table, the keyword -> (interval, cluster) postings, the per-node
record offsets and sizes, and the current top-k paths — by scanning
each segment's logs once on open, then serves point lookups with one
random read per cluster (LRU-cached, zero-copy when the logs are
memory-mapped), never touching the source documents.  A keyword
lookup picks its cluster among the interval's candidates by the sizes
kept from that scan and reads only the winner.

A reader over a *live* index (a streaming run still appending) can
:meth:`refresh` to tail the growth: each segment remembers its
consumed byte offset per log, so a poll scans only the bytes the
writer appended since the last one — never the whole log again.
Scans stop at the manifest's recorded sizes, so a torn in-flight
frame is never decoded.  When a merge swaps the segment set (the
manifest generation no longer extends the segments this reader
loaded), the reader rebuilds from the new segment list; the decoded
cluster cache survives, because merged records are byte-identical.

An id-token index is decoded against **one** append-only
:class:`~repro.vocab.Vocabulary` per reader: ids are positions in the
token table and never change, so a tailing refresh interns only the
tokens the new generation added, and every cluster this reader hands
out shares that one object.  Only a structural rebuild starts a new
table.  A token the stored table carries twice would make two ids
decode to one keyword, so it is rejected as corruption.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.paths import NodeId, Path
from repro.graph.clusters import KeywordCluster
from repro.index.format import (
    IndexCorruptError,
    PATHS_FILE,
    POSTINGS_FILE,
    VOCABULARY_FILE,
    load_manifest,
    segment_dir,
    shard_file,
)
from repro.search.refinement import QueryRefiner
from repro.storage.codec import decode_record
from repro.storage.lru import LRUCache
from repro.storage.recordlog import (
    RecordLogCorruptError,
    RecordLogReader,
)
from repro.text.stemmer import stem
from repro.vocab import Vocabulary

# A cluster record's address and token count: (segment name, file,
# offset, length, size).  The size is read off the decoded record at
# scan time, so ranking an interval's candidates needs no read.
_NodeRef = Tuple[str, str, int, int, int]


class _SegmentView:
    """One segment's open logs and tail state inside a reader."""

    __slots__ = ("name", "meta", "directory", "use_mmap", "consumed",
                 "logs", "postings_seen", "paths_seen", "_open_lock")

    def __init__(self, directory: str, meta: Dict[str, Any],
                 use_mmap: bool) -> None:
        self.name: str = meta["name"]
        self.meta = meta
        self.directory = segment_dir(directory, self.name)
        self.use_mmap = use_mmap
        self.consumed: Dict[str, int] = {}
        self.logs: Dict[str, RecordLogReader] = {}
        self.postings_seen = 0
        self.paths_seen = 0
        # Serving threads point-read concurrently; without the lock
        # two threads racing the first read of a log would each open
        # it and leak one handle.
        self._open_lock = threading.Lock()

    def log(self, name: str) -> RecordLogReader:
        reader = self.logs.get(name)
        if reader is None:
            with self._open_lock:
                reader = self.logs.get(name)
                if reader is None:
                    path = os.path.join(self.directory, name)
                    try:
                        reader = RecordLogReader(path, self.use_mmap)
                    except FileNotFoundError:
                        raise IndexCorruptError(
                            f"segment {self.name!r} is missing "
                            f"{name!r}") from None
                    self.logs[name] = reader
        return reader

    def close(self) -> None:
        for reader in self.logs.values():
            reader.close()
        self.logs.clear()


class ClusterIndexReader:
    """Point lookups, scans, and path queries over a persisted index.

    ``cache_size`` bounds the LRU of decoded clusters (cluster
    records are immutable — merges copy them byte-for-byte — so
    cached entries never go stale, even across :meth:`refresh` and
    compactions).  ``use_mmap=False`` forces buffered reads; the
    default memory-maps each log and falls back transparently where
    mapping is unavailable.
    """

    def __init__(self, directory: str, cache_size: int = 1024,
                 use_mmap: bool = True) -> None:
        self.directory = directory
        self._cache = LRUCache(cache_size)
        self._use_mmap = use_mmap
        self._views: Dict[str, _SegmentView] = {}
        self._vocab: Optional[Vocabulary] = None  # id indexes only
        self._nodes: Dict[NodeId, _NodeRef] = {}
        self._per_interval: Dict[int, List[NodeId]] = {}
        self._postings: Dict[Any, List[NodeId]] = {}
        self._paths: List[Path] = []
        self._path_generations = 0
        self._postings_intervals = 0
        self._bytes_scanned = 0
        self._manifest: Dict[str, Any] = {}
        self._closed = False
        self._apply(load_manifest(self.directory))

    # ------------------------------------------------------------------
    # Loading and refreshing
    # ------------------------------------------------------------------

    def _reset(self) -> None:
        """Drop per-segment state ahead of a structural rebuild.

        The decoded-cluster cache is kept: a merge copies records
        byte-for-byte, so cached clusters stay correct."""
        for view in self._views.values():
            view.close()
        self._views = {}
        self._vocab = None
        self._nodes = {}
        self._per_interval = {}
        self._postings = {}
        self._paths = []
        self._path_generations = 0
        self._postings_intervals = 0

    def _apply(self, manifest: Dict[str, Any]) -> None:
        if self._manifest and (
                manifest["num_shards"] != self._manifest["num_shards"]
                or manifest["token_kind"]
                != self._manifest["token_kind"]):
            raise IndexCorruptError(
                f"index at {self.directory!r} changed shape under a "
                f"live reader; reopen it")
        names = [meta["name"] for meta in manifest["segments"]]
        known = list(self._views)
        if known != names[:len(known)]:
            # A merge (or rebuild) swapped the segment set: the tail
            # state no longer lines up, so rebuild from scratch.
            self._reset()
        self._manifest = manifest
        if manifest["token_kind"] == "id" and self._vocab is None:
            self._vocab = Vocabulary()
        for meta in manifest["segments"]:
            view = self._views.get(meta["name"])
            if view is None:
                held = 0 if self._vocab is None else len(self._vocab)
                if meta["vocab_base"] != held:
                    raise IndexCorruptError(
                        f"segment {meta['name']!r} expects vocab "
                        f"base {meta['vocab_base']}, reader holds "
                        f"{held} tokens")
                view = _SegmentView(self.directory, meta,
                                    self._use_mmap)
                self._views[meta["name"]] = view
            view.meta = meta
            self._scan_segment(view)
        if self._vocab is not None \
                and len(self._vocab) != manifest["vocab_size"]:
            raise IndexCorruptError(
                f"vocabulary holds {len(self._vocab)} tokens, "
                f"manifest records {manifest['vocab_size']}")
        self._validate(manifest)

    def _scan_segment(self, view: _SegmentView) -> None:
        sizes = view.meta["files"]
        vocab = self._vocab
        if vocab is not None:
            for record in self._scan(
                    view, VOCABULARY_FILE,
                    sizes.get(VOCABULARY_FILE, 0)):
                for token in record:
                    if token in vocab:
                        raise IndexCorruptError(
                            f"segment {view.name!r} adds token "
                            f"{token!r} to the vocabulary a second "
                            f"time")
                    vocab.intern(token)
        for shard in range(self._manifest["num_shards"]):
            name = shard_file(shard)
            self._scan_shard(view, name, sizes.get(name, 0))
        for record in self._scan(
                view, POSTINGS_FILE, sizes.get(POSTINGS_FILE, 0)):
            self._fold_postings(view, record)
        for record in self._scan(
                view, PATHS_FILE, sizes.get(PATHS_FILE, 0)):
            generation, paths = record
            if generation != view.paths_seen:
                raise IndexCorruptError(
                    f"path generations out of order in segment "
                    f"{view.name!r}: expected {view.paths_seen}, "
                    f"found {generation}")
            view.paths_seen += 1
            self._paths = list(paths)
        self._path_generations = sum(
            v.paths_seen for v in self._views.values())

    def _scan_frames(self, view: _SegmentView, name: str,
                     limit: int) -> Iterator[Tuple[Any, int]]:
        """Yield ``(payload, end_offset)`` frames of one segment log
        from its consumed offset up to *limit* (the manifest's
        recorded size — bytes beyond it, e.g. a live writer's
        in-flight frame, are never read).  Advances the consumed
        offset as it goes and maps every framing failure to
        :class:`IndexCorruptError`."""
        offset = view.consumed.get(name, 0)
        if offset >= limit:
            return
        log = view.log(name)
        if log.size() < limit:
            raise IndexCorruptError(
                f"{name!r} in segment {view.name!r} is truncated: "
                f"manifest records {limit} bytes, file has "
                f"{log.size()}")
        try:
            for payload, end in log.records(offset=offset, end=limit):
                yield payload, end
                offset = end
        except (RecordLogCorruptError, ValueError, IndexError) as exc:
            raise IndexCorruptError(
                f"corrupt record in {name!r} of segment "
                f"{view.name!r}: {exc}") from None
        finally:
            self._bytes_scanned += offset - view.consumed.get(name, 0)
            view.consumed[name] = offset

    def _scan(self, view: _SegmentView, name: str,
              limit: int) -> Iterator[Any]:
        """Decode one segment log's records within the bound."""
        for payload, _ in self._scan_frames(view, name, limit):
            try:
                yield decode_record(payload)
            except (ValueError, IndexError) as exc:
                raise IndexCorruptError(
                    f"corrupt record in {name!r} of segment "
                    f"{view.name!r}: {exc}") from None

    def _scan_shard(self, view: _SegmentView, name: str,
                    limit: int) -> None:
        touched = set()
        for payload, end in self._scan_frames(view, name, limit):
            try:
                interval, idx, _, tokens, _ = decode_record(payload)
                size = len(tokens)
            except (ValueError, IndexError, TypeError) as exc:
                raise IndexCorruptError(
                    f"corrupt record in {name!r} of segment "
                    f"{view.name!r}: {exc}") from None
            node = (interval, idx)
            self._nodes[node] = (view.name, name, end - len(payload),
                                 len(payload), size)
            self._per_interval.setdefault(interval, []).append(node)
            touched.add(interval)
        for interval in touched:
            self._per_interval[interval].sort()

    def _fold_postings(self, view: _SegmentView, record: Any) -> None:
        interval, by_token = record
        expected = view.meta["first_interval"] + view.postings_seen
        if interval != expected:
            raise IndexCorruptError(
                f"postings records out of order in segment "
                f"{view.name!r}: expected interval {expected}, "
                f"found {interval}")
        for token, indices in by_token.items():
            nodes = self._postings.setdefault(token, [])
            nodes.extend((interval, idx) for idx in indices)
        view.postings_seen += 1
        self._postings_intervals += 1

    def _validate(self, manifest: Dict[str, Any]) -> None:
        if len(self._nodes) != manifest["num_clusters"]:
            raise IndexCorruptError(
                f"cluster shards hold {len(self._nodes)} records, "
                f"manifest records {manifest['num_clusters']}")
        if self._postings_intervals != manifest["num_intervals"]:
            raise IndexCorruptError(
                f"postings cover {self._postings_intervals} "
                f"intervals, manifest records "
                f"{manifest['num_intervals']}")
        if self._path_generations != manifest["path_generations"]:
            raise IndexCorruptError(
                f"paths logs hold {self._path_generations} "
                f"generations, manifest records "
                f"{manifest['path_generations']}")
        expected_first = 0
        for meta in manifest["segments"]:
            if meta["first_interval"] != expected_first:
                raise IndexCorruptError(
                    f"segment {meta['name']!r} starts at interval "
                    f"{meta['first_interval']}, expected "
                    f"{expected_first}")
            expected_first += meta["num_intervals"]
        for interval, nodes in self._per_interval.items():
            if interval >= self._postings_intervals:
                raise IndexCorruptError(
                    f"cluster record for interval {interval} beyond "
                    f"the {self._postings_intervals} indexed "
                    f"intervals")
            if [idx for _, idx in nodes] != list(range(len(nodes))):
                raise IndexCorruptError(
                    f"interval {interval} cluster indices are not "
                    f"dense: {[idx for _, idx in nodes]}")

    def refresh(self) -> bool:
        """Pick up whatever a writer published since last load.

        Returns True when a new manifest generation arrived.  A pure
        append tails only the new bytes of the grown segments; a
        merge triggers a structural rebuild over the new segment
        set."""
        manifest = load_manifest(self.directory)
        if manifest.get("generation") == \
                self._manifest.get("generation"):
            return False
        self._apply(manifest)
        return True

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Intervals indexed so far."""
        return self._manifest["num_intervals"]

    @property
    def num_clusters(self) -> int:
        """Total cluster records."""
        return self._manifest["num_clusters"]

    @property
    def vocab_size(self) -> int:
        """Interned keyword count (0 for string-token indexes)."""
        return self._manifest["vocab_size"]

    @property
    def complete(self) -> bool:
        """True once the producing run finalized the index."""
        return bool(self._manifest["complete"])

    @property
    def token_kind(self) -> str:
        """``'id'`` (interned) or ``'str'`` (keyword strings)."""
        return self._manifest["token_kind"]

    @property
    def generation(self) -> int:
        """Manifest generation this reader currently serves."""
        return int(self._manifest.get("generation", 0))

    @property
    def num_segments(self) -> int:
        """Segments in the generation this reader serves."""
        return len(self._manifest["segments"])

    @property
    def bytes_scanned(self) -> int:
        """Log bytes scanned since open, across loads and refreshes.

        A tailing reader's growth between polls is the new bytes
        only — the per-segment offsets make re-scans incremental."""
        return self._bytes_scanned

    @property
    def mmap_active(self) -> bool:
        """True when at least one open log serves from an mmap."""
        return any(log.mmapped
                   for view in self._views.values()
                   for log in view.logs.values())

    @property
    def total_bytes(self) -> int:
        """Log bytes the manifest accounts for."""
        return sum(sum(meta["files"].values())
                   for meta in self._manifest["segments"])

    def cache_info(self) -> Tuple[int, int, int, int]:
        """``(hits, misses, size, capacity)`` of the cluster cache."""
        return self._cache.info()

    def segments(self) -> List[Dict[str, Any]]:
        """Per-segment shape summaries, in manifest order."""
        out = []
        for meta in self._manifest["segments"]:
            out.append({
                "name": meta["name"],
                "first_interval": meta["first_interval"],
                "num_intervals": meta["num_intervals"],
                "num_clusters": meta["num_clusters"],
                "vocab_size": meta.get("vocab_size", 0),
                "path_generations": meta["path_generations"],
                "bytes": sum(meta["files"].values()),
                "sealed": bool(meta.get("sealed")),
            })
        return out

    def shard_summary(self) -> List[Dict[str, Any]]:
        """Per-shard record counts and log bytes across segments.

        Hash-shard balance bounds how evenly distributed
        scatter-gather fan-out splits the work, so skew is worth
        inspecting before choosing ``serve --shards N`` (the
        ``index inspect --shards`` CLI flag)."""
        num_shards = int(self._manifest["num_shards"])
        shard_of = {shard_file(shard): shard
                    for shard in range(num_shards)}
        records = [0] * num_shards
        sizes = [0] * num_shards
        for _, name, _, _, _ in self._nodes.values():
            records[shard_of[name]] += 1
        for meta in self._manifest["segments"]:
            for name, size in meta["files"].items():
                shard = shard_of.get(name)
                if shard is not None:
                    sizes[shard] += size
        return [{"shard": shard, "file": shard_file(shard),
                 "records": records[shard], "bytes": sizes[shard]}
                for shard in range(num_shards)]

    def describe(self, segments: bool = False,
                 shards: bool = False) -> str:
        """Multi-line summary for ``index inspect``.

        With ``segments=True`` every segment gets its own line (the
        ``--segments`` CLI flag); ``shards=True`` adds per-shard
        record counts and bytes (the ``--shards`` flag), the skew
        view that bounds scatter-gather balance."""
        manifest = self._manifest
        state = "complete" if self.complete else "live (streaming)"
        lines = [f"cluster index at {self.directory}",
                 f"  format:   {manifest['format']} "
                 f"v{manifest['version']}, {state}"]
        query = manifest.get("query")
        if query:
            lines.append(f"  query:    {query['describe']}")
        lines.append(
            f"  shape:    {self.num_intervals} intervals, "
            f"{self.num_clusters} clusters, {self.vocab_size} "
            f"keywords, {manifest['num_paths']} stable paths")
        lines.append(
            f"  layout:   {self.num_segments} segments "
            f"(generation {self.generation}), "
            f"{manifest['num_shards']} cluster shards, "
            f"{self.token_kind} tokens, {self.total_bytes} log bytes")
        if segments:
            for info in self.segments():
                first = info["first_interval"]
                last = first + info["num_intervals"]
                state = "sealed" if info["sealed"] else "growing"
                lines.append(
                    f"    {info['name']}: intervals [{first}, "
                    f"{last}), {info['num_clusters']} clusters, "
                    f"{info['vocab_size']} keywords, "
                    f"{info['path_generations']} path generations, "
                    f"{info['bytes']} bytes, {state}")
        if shards:
            summary = self.shard_summary()
            total = sum(info["records"] for info in summary) or 1
            lines.append("  shards:")
            for info in summary:
                share = 100.0 * info["records"] / total
                lines.append(
                    f"    {info['file']}: {info['records']} records "
                    f"({share:.1f}%), {info['bytes']} bytes")
        provenance = manifest.get("provenance")
        if provenance:
            lines.append("  provenance:")
            if isinstance(provenance, dict):
                lines.extend(
                    f"    {key}: {'-' if value is None else value}"
                    for key, value in provenance.items())
            else:  # older indexes stored the plan's explain() lines
                lines.extend(f"    {line}" for line in provenance)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Point lookups and scans
    # ------------------------------------------------------------------

    def cluster(self, node: NodeId) -> KeywordCluster:
        """The cluster behind one ``(interval, index)`` node.

        Costs one LRU-cached random read (zero-copy off the mmap
        when available); raises KeyError for unknown nodes.  A
        keyword :meth:`lookup` costs exactly one such read, for the
        winner :meth:`best_node` picked."""
        cached = self._cache.get(node)
        if cached is not None:
            return cached
        seg_name, name, offset, length, _ = self._nodes[node]
        view = self._views[seg_name]
        blob = view.log(name).pread(offset, length)
        try:
            interval, idx, label, tokens, edges = decode_record(blob)
        except (ValueError, IndexError) as exc:
            raise IndexCorruptError(
                f"corrupt cluster record for node {node} in "
                f"{name!r} of segment {seg_name!r}: {exc}") from None
        cluster = KeywordCluster(tokens=tokens, token_edges=edges,
                                 interval=label, vocab=self._vocab)
        self._cache.put(node, cluster)
        return cluster

    def has_node(self, node: NodeId) -> bool:
        """True when ``(interval, index)`` is an indexed cluster."""
        return node in self._nodes

    def clusters_at(self, interval: int) -> List[KeywordCluster]:
        """Every cluster of one interval, in cluster-list order."""
        if not 0 <= interval < self.num_intervals:
            raise ValueError(
                f"interval {interval} out of range "
                f"[0, {self.num_intervals})")
        return [self.cluster(node)
                for node in self._per_interval.get(interval, [])]

    def scan(self, start: int = 0, stop: Optional[int] = None
             ) -> Iterator[Tuple[int, List[KeywordCluster]]]:
        """Yield ``(interval, clusters)`` over an interval range.

        *stop* is exclusive and defaults to the end of the index."""
        stop = self.num_intervals if stop is None else stop
        for interval in range(start, stop):
            yield interval, self.clusters_at(interval)

    def _resolve(self, query_stem: str) -> Optional[Any]:
        """The postings key for an already-stemmed keyword."""
        if self._vocab is None:
            return query_stem if query_stem in self._postings else None
        try:
            return self._vocab.id_of(query_stem)
        except KeyError:
            return None

    def _decode_token(self, token: Any) -> str:
        return token if self._vocab is None \
            else self._vocab.decode(token)

    def best_node(self, query_stem: str, interval: int,
                  owned: Optional[Callable[[NodeId], bool]] = None
                  ) -> Optional[NodeId]:
        """The node the refinement rule assigns *query_stem* to.

        :func:`~repro.search.refinement.prefer_larger` applied to an
        index: among the clusters of *interval* that contain the
        (already stemmed) keyword, the strictly larger one wins and
        ties keep the earlier.  Candidates are ranked by the sizes
        the open/refresh scan kept, so no record is read here.  A
        postings list is in interval order (the scan rejects a
        postings record out of interval order), so the interval's
        run is found by bisection and walked in stored —
        cluster-list — order.  *owned* restricts the candidates to
        the nodes it accepts: a scatter-gather partition's share."""
        token = self._resolve(query_stem)
        if token is None:
            return None
        postings = self._postings.get(token, ())
        best: Optional[NodeId] = None
        best_size = -1
        for at in range(bisect_left(postings, (interval,)),
                        len(postings)):
            node = postings[at]
            if node[0] != interval:
                break
            if owned is not None and not owned(node):
                continue
            size = self._nodes[node][4]
            if size > best_size:
                best, best_size = node, size
        return best

    def _best_cluster(self, query_stem: str,
                      interval: int) -> Optional[KeywordCluster]:
        node = self.best_node(query_stem, interval)
        return None if node is None else self.cluster(node)

    def _latest(self, interval: Optional[int]) -> int:
        if interval is not None:
            return interval
        if self.num_intervals == 0:
            raise ValueError("the index holds no intervals yet")
        return self.num_intervals - 1

    def lookup(self, keyword: str,
               interval: Optional[int] = None
               ) -> Optional[KeywordCluster]:
        """The cluster *keyword* (stemmed) falls into, or None.

        *interval* defaults to the latest indexed interval."""
        return self._best_cluster(stem(keyword.lower()),
                                  self._latest(interval))

    def postings_for(self, keyword: str) -> Tuple[NodeId, ...]:
        """Every node whose cluster contains *keyword* (stemmed).

        Returned as ``(interval, index)`` pairs in interval order."""
        token = self._resolve(stem(keyword.lower()))
        if token is None:
            return ()
        return tuple(self._postings.get(token, ()))

    def stems_at(self, interval: int) -> Iterable[str]:
        """Every stemmed keyword with a cluster at *interval*."""
        for token, nodes in self._postings.items():
            if any(node[0] == interval for node in nodes):
                yield self._decode_token(token)

    # ------------------------------------------------------------------
    # Stable paths
    # ------------------------------------------------------------------

    def paths(self) -> List[Path]:
        """The current top-k stable paths (latest generation)."""
        return list(self._paths)

    def paths_through(self, keyword: str) -> List[Path]:
        """Stable paths visiting any cluster containing *keyword*."""
        nodes = set(self.postings_for(keyword))
        if not nodes:
            return []
        return [path for path in self._paths
                if nodes.intersection(path.nodes)]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def refiner(self, interval: Optional[int] = None,
                cache_size: int = 256) -> QueryRefiner:
        """A query refiner answering from this index at *interval*.

        Defaults to the latest interval; gives the same answers as a
        :class:`~repro.search.QueryRefiner` built over the in-memory
        cluster list."""
        source = _IndexIntervalSource(self, self._latest(interval))
        return QueryRefiner(source=source, cache_size=cache_size)

    def close(self) -> None:
        """Close every open log handle and mapping (idempotent)."""
        if not self._closed:
            for view in self._views.values():
                view.close()
            self._views = {}
            self._closed = True

    def __enter__(self) -> "ClusterIndexReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ClusterIndexReader(dir={self.directory!r}, "
                f"segments={self.num_segments}, "
                f"intervals={self.num_intervals}, "
                f"clusters={self.num_clusters})")


class _IndexIntervalSource:
    """A :class:`~repro.search.refinement.ClusterSource` over one
    indexed interval's postings."""

    def __init__(self, reader: ClusterIndexReader,
                 interval: int) -> None:
        self._reader = reader
        self._interval = interval

    def best_cluster(self, query_stem: str) -> Optional[KeywordCluster]:
        """Delegates to the reader's postings rule."""
        return self._reader._best_cluster(query_stem, self._interval)

    def stems(self) -> Iterable[str]:
        """Keywords with a cluster at this interval."""
        return self._reader.stems_at(self._interval)
