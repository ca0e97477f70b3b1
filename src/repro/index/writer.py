"""Serializing clustering runs into a persistent, appendable index.

:class:`ClusterIndexWriter` turns what a run computed — per-interval
keyword clusters, the interned vocabulary, the top-k stable paths, and
the plan that produced them — into the tiered segment layout of
:mod:`repro.index.format`.  It writes incrementally: a batch run
appends all intervals then finalizes (:meth:`write_run`); a streaming
run keeps the writer open, appending one interval and one top-k
generation per ingest, so a live reader can follow the stream.

Appends accumulate in one growing segment.  :meth:`flush_segment`
(called automatically every ``flush_intervals`` intervals and at
close) seals it into the immutable tier, after which the merge policy
(:mod:`repro.index.merge`) may compact small sealed segments into
larger ones — inline, or on a background thread while appends
continue.  Opening with ``append=True`` reopens an existing index:
the stored vocabulary deltas are preloaded (no re-interning the
world), global interval numbering continues where the last run
stopped, and path records are rebased so a resumed run's local
interval 0 lines up with the index's tail.
"""

from __future__ import annotations

import os
import shutil
import threading
from typing import Any, BinaryIO, Dict, List, Optional, Sequence

from repro.core.paths import Path
from repro.index.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_FILE,
    PATHS_FILE,
    POSTINGS_FILE,
    VOCABULARY_FILE,
    ClusterIndexError,
    IndexCorruptError,
    load_manifest,
    manifest_path,
    new_segment_meta,
    list_segment_dirs,
    save_manifest,
    segment_dir,
    segment_name,
    segments_root,
    shard_file,
    shard_for,
)
from repro.index.merge import (
    MergePolicy,
    rewrite_segments,
    select_merge_inputs,
)
from repro.storage.codec import decode_record, encode_compact
from repro.storage.recordlog import append_record, read_records
from repro.vocab import Vocabulary

DEFAULT_SHARDS = 4
DEFAULT_FLUSH_INTERVALS = 16


class ClusterIndexWriter:
    """Appends a run's clusters, vocabulary, and paths to an index.

    ``vocab`` is the run's corpus :class:`~repro.vocab.Vocabulary`:
    when given, clusters are (re)bound into it and stored as integer
    token ids with the token table persisted alongside (``token_kind
    = 'id'``); when ``None``, clusters are stored by their keyword
    strings.  ``query`` and ``provenance`` (the execution plan's
    decision fields, see :meth:`plan_provenance`) are recorded in the
    manifest for ``index inspect``.

    Opening modes: the default refuses a directory that already holds
    an index (and any non-empty foreign directory); ``overwrite=True``
    wipes a previous index first; ``append=True`` reopens an existing
    index and continues it — sealing whatever the previous run left
    growing, dropping torn tails and orphaned segment directories a
    crash may have left, and preloading the stored token table into
    ``vocab`` (which must be empty or a prefix of the stored table;
    otherwise the writer rebinds through an internal copy).

    ``flush_intervals`` seals the growing segment every N intervals;
    ``merge_policy`` enables size-tiered compaction of sealed
    segments after each seal, inline or (``background_merge=True``)
    on a daemon thread that publishes merged generations while
    appends continue.
    """

    def __init__(self, directory: str, *,
                 vocab: Optional[Vocabulary] = None,
                 query: Optional[Any] = None,
                 provenance: Optional[Dict[str, Any]] = None,
                 num_shards: int = DEFAULT_SHARDS,
                 overwrite: bool = False,
                 append: bool = False,
                 flush_intervals: Optional[int] = None,
                 merge_policy: Optional[MergePolicy] = None,
                 background_merge: bool = False,
                 use_mmap: bool = True) -> None:
        if num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {num_shards}")
        if overwrite and append:
            raise ValueError(
                "overwrite and append are mutually exclusive")
        if flush_intervals is not None and flush_intervals < 1:
            raise ValueError(
                f"flush_intervals must be >= 1, got {flush_intervals}")
        self.directory = directory
        self.num_shards = num_shards
        self._vocab = vocab
        self._query_info = self._query_dict(query)
        self._provenance = provenance
        self._flush_intervals = flush_intervals
        self._merge_policy = merge_policy
        self._background = background_merge
        self._use_mmap = use_mmap
        self._lock = threading.RLock()
        self._merge_thread: Optional[threading.Thread] = None
        self._segments: List[Dict[str, Any]] = []
        self._active: Optional[Dict[str, Any]] = None
        self._active_fhs: Dict[str, BinaryIO] = {}
        self._next_segment = 0
        self._generation = 0
        self._interval_base = 0
        self._vocab_written = 0
        self._finalized = False
        self._closed = False
        reopening = append and os.path.exists(
            manifest_path(directory))
        self._prepare_directory(overwrite, reopening)
        if reopening:
            self._reopen()
        self._save_manifest(complete=False)

    # ------------------------------------------------------------------
    # Directory and manifest plumbing
    # ------------------------------------------------------------------

    @property
    def vocab(self) -> Optional[Vocabulary]:
        """The vocabulary clusters are bound into (id mode only)."""
        return self._vocab

    @property
    def num_segments(self) -> int:
        """Sealed segments plus the growing one, if any."""
        with self._lock:
            return len(self._segments) + (1 if self._active else 0)

    @property
    def generation(self) -> int:
        """Manifest generation last published."""
        return self._generation

    def _log_files(self) -> List[str]:
        names = [shard_file(i) for i in range(self.num_shards)]
        names.append(POSTINGS_FILE)
        names.append(PATHS_FILE)
        if self._vocab is not None:
            names.append(VOCABULARY_FILE)
        return names

    @staticmethod
    def _query_dict(query: Optional[Any]) -> Optional[Dict[str, Any]]:
        if query is None:
            return None
        return {
            "describe": query.describe(),
            "problem": query.problem,
            "l": query.l,
            "lmin": query.lmin,
            "k": query.k,
            "gap": query.gap,
        }

    @staticmethod
    def plan_provenance(plan: Optional[Any]) -> Optional[Dict[str, Any]]:
        """The manifest's record of the plan a run executed.

        The decision fields of an
        :class:`~repro.engine.planner.ExecutionPlan`, not its
        ``explain()`` rendering, so rewording that text leaves index
        bytes alone.  Both the serial writer and the shard-parallel
        build store this dict.
        """
        if plan is None:
            return None
        graph = plan.graph_stats
        return {
            "solver": plan.solver,
            "backend": plan.backend,
            "workers": plan.workers,
            "window_block_nodes": plan.window_block_nodes,
            "num_shards": plan.num_shards,
            "estimated_window_bytes": plan.estimated_window_bytes,
            "memory_budget": plan.memory_budget,
            "graph_nodes": graph.num_nodes if graph else None,
            "graph_edges": graph.num_edges if graph else None,
            "graph_intervals": graph.num_intervals if graph else None,
            "vocab_size": plan.vocab_size,
        }

    def _prepare_directory(self, overwrite: bool,
                           reopening: bool) -> None:
        directory = self.directory
        if os.path.exists(manifest_path(directory)):
            if reopening:
                pass
            elif not overwrite:
                raise ClusterIndexError(
                    f"{directory!r} already holds a cluster index; "
                    f"pass overwrite=True to rebuild it or "
                    f"append=True to continue it")
            else:
                self._wipe_index_files()
        elif os.path.isdir(directory) and os.listdir(directory):
            raise ClusterIndexError(
                f"refusing to write an index into non-empty "
                f"directory {directory!r} (no {MANIFEST_FILE} found)")
        os.makedirs(segments_root(directory), exist_ok=True)

    def _wipe_index_files(self) -> None:
        """Remove a previous index's files (and only those)."""
        try:
            os.unlink(manifest_path(self.directory))
        except FileNotFoundError:
            pass
        shutil.rmtree(segments_root(self.directory),
                      ignore_errors=True)

    def _reopen(self) -> None:
        """Adopt an existing index so appends continue it."""
        manifest = load_manifest(self.directory)
        want = "id" if self._vocab is not None else "str"
        if manifest["token_kind"] != want:
            raise ClusterIndexError(
                f"cannot append {want!r}-token clusters to an index "
                f"with token_kind={manifest['token_kind']!r}")
        self.num_shards = int(manifest["num_shards"])
        self._segments = [dict(meta, files=dict(meta["files"]),
                               sealed=True)
                          for meta in manifest["segments"]]
        self._seal_stored_segments()
        known = {meta["name"] for meta in self._segments}
        for name in list_segment_dirs(self.directory):
            if name not in known:  # crashed flush/merge leftovers
                shutil.rmtree(segment_dir(self.directory, name),
                              ignore_errors=True)
        self._generation = int(manifest.get("generation", 0))
        self._next_segment = max(
            int(manifest.get("next_segment", 0)),
            len(self._segments))
        self._interval_base = sum(
            meta["num_intervals"] for meta in self._segments)
        if self._query_info is None:
            self._query_info = manifest.get("query")
        if not self._provenance:
            self._provenance = manifest.get("provenance")
        self._vocab_written = sum(
            meta.get("vocab_size", 0) for meta in self._segments)
        if self._vocab is not None:
            self._preload_vocab()

    def _seal_stored_segments(self) -> None:
        """Verify stored files and drop torn tails beyond the
        manifest's recorded sizes (a crashed append's last frame)."""
        for meta in self._segments:
            seg = segment_dir(self.directory, meta["name"])
            if not os.path.isdir(seg):
                raise IndexCorruptError(
                    f"manifest references missing segment "
                    f"{meta['name']!r}")
            for fname, size in meta["files"].items():
                path = os.path.join(seg, fname)
                try:
                    actual = os.path.getsize(path)
                except OSError:
                    raise IndexCorruptError(
                        f"segment {meta['name']!r} is missing "
                        f"{fname!r}") from None
                if actual < size:
                    raise IndexCorruptError(
                        f"{fname!r} in segment {meta['name']!r} is "
                        f"shorter ({actual}) than the manifest "
                        f"records ({size})")
                if actual > size:
                    with open(path, "r+b") as fh:
                        fh.truncate(size)

    def _preload_vocab(self) -> None:
        """Load the stored token table so ids keep lining up.

        The caller's vocabulary must be empty or a prefix of the
        stored table (the common cases: a fresh streaming run, or a
        resumed one).  Anything else — a batch run's unrelated corpus
        vocabulary — is rebound through an internal copy instead.
        """
        stored: List[str] = []
        for meta in self._segments:
            size = meta["files"].get(VOCABULARY_FILE, 0)
            if not size:
                continue
            path = os.path.join(
                segment_dir(self.directory, meta["name"]),
                VOCABULARY_FILE)
            for payload, _ in read_records(path, end=size):
                stored.extend(decode_record(payload))
        if len(stored) != self._vocab_written:
            raise IndexCorruptError(
                f"stored vocabulary holds {len(stored)} tokens; the "
                f"manifest records {self._vocab_written}")
        assert self._vocab is not None
        existing = list(self._vocab.tokens)
        if existing == stored[:len(existing)]:
            for token in stored[len(existing):]:
                self._vocab.intern(token)
        else:
            self._vocab = Vocabulary(stored)

    def _totals(self) -> Dict[str, int]:
        segments = list(self._segments)
        if self._active is not None:
            segments.append(self._active)
        totals = {
            "num_intervals": 0, "num_clusters": 0,
            "vocab_size": 0, "path_generations": 0, "num_paths": 0,
        }
        for meta in segments:
            totals["num_intervals"] += meta["num_intervals"]
            totals["num_clusters"] += meta["num_clusters"]
            totals["vocab_size"] += meta.get("vocab_size", 0)
            totals["path_generations"] += meta["path_generations"]
        for meta in reversed(segments):
            if meta["path_generations"]:
                totals["num_paths"] = meta["num_paths"]
                break
        return totals

    def _save_manifest(self, complete: bool) -> None:
        with self._lock:
            self._sync()
            segments = [dict(meta, files=dict(meta["files"]))
                        for meta in self._segments]
            if self._active is not None:
                segments.append(dict(self._active,
                                     files=dict(
                                         self._active["files"])))
            self._generation += 1
            manifest: Dict[str, Any] = {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "token_kind":
                    "id" if self._vocab is not None else "str",
                "num_shards": self.num_shards,
                "generation": self._generation,
                "next_segment": self._next_segment,
                "complete": complete,
                "query": self._query_info,
                "provenance": self._provenance,
                "segments": segments,
            }
            manifest.update(self._totals())
            save_manifest(self.directory, manifest)

    def _append(self, name: str, payload: bytes) -> None:
        assert self._active is not None
        written = append_record(self._active_fhs[name], payload)
        self._active["files"][name] += written

    def _sync(self) -> None:
        """Flush every active log so the manifest never records bytes
        the OS has not seen (one flush per file per manifest save,
        not one per record)."""
        for fh in self._active_fhs.values():
            if not fh.closed:
                fh.flush()

    def _ensure_active(self) -> None:
        if self._active is not None:
            return
        name = segment_name(self._next_segment)
        self._next_segment += 1
        totals = self._totals()
        meta = new_segment_meta(
            name, first_interval=totals["num_intervals"],
            vocab_base=self._vocab_written)
        path = segment_dir(self.directory, name)
        if os.path.exists(path):  # stale leftovers never shadow data
            shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        self._active = meta
        self._active_fhs = {}
        for fname in self._log_files():
            self._active_fhs[fname] = open(
                os.path.join(path, fname), "ab")
            meta["files"][fname] = 0

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------

    def append_interval(self, clusters: Sequence) -> int:
        """Persist one interval's clusters (the next global interval).

        In id mode every cluster is first rebound into the writer's
        vocabulary and the newly interned tokens are appended to the
        growing segment's vocabulary delta, so ids on disk always
        decode against the table prefix that existed when they were
        written.  Returns the global interval index the clusters were
        stored under (an appended run continues the stored timeline).
        """
        with self._lock:
            if self._closed:
                raise ClusterIndexError(
                    "cannot append to a finalized/aborted index "
                    "writer")
            if (self._active is not None
                    and self._flush_intervals is not None
                    and self._active["num_intervals"]
                    >= self._flush_intervals):
                self._flush_locked()
            self._ensure_active()
            active = self._active
            assert active is not None
            interval = (active["first_interval"]
                        + active["num_intervals"])
            if self._vocab is not None:
                clusters = [cluster.rebind(self._vocab)
                            for cluster in clusters]
                tokens = self._vocab.tokens
                fresh = tokens[self._vocab_written:]
                if fresh:
                    self._append(VOCABULARY_FILE,
                                 encode_compact(tuple(fresh)))
                    self._vocab_written = len(tokens)
                    active["vocab_size"] = (self._vocab_written
                                            - active["vocab_base"])
            postings: Dict[Any, List[int]] = {}
            for idx, cluster in enumerate(clusters):
                if self._vocab is not None:
                    tokens_out = cluster.tokens
                    edges_out = cluster.token_edges
                else:
                    tokens_out = tuple(sorted(cluster.keywords))
                    edges_out = cluster.edges
                record = (interval, idx, cluster.interval,
                          tuple(tokens_out), tuple(edges_out))
                self._append(shard_file(
                    shard_for(interval, idx, self.num_shards)),
                    encode_compact(record))
                for token in tokens_out:
                    postings.setdefault(token, []).append(idx)
            self._append(POSTINGS_FILE,
                         encode_compact((interval, postings)))
            active["num_intervals"] += 1
            active["num_clusters"] += len(clusters)
            self._save_manifest(complete=False)
        self._maybe_merge()
        return interval

    def set_paths(self, paths: Sequence) -> None:
        """Persist the current top-k paths as a new generation.

        The last generation written is the index's answer.  Paths
        from an appended run are rebased: their node intervals are
        local to the run (starting at 0), so each is shifted by the
        interval count the index held when the writer opened.
        """
        with self._lock:
            if self._closed:
                raise ClusterIndexError(
                    "cannot append to a finalized/aborted index "
                    "writer")
            self._ensure_active()
            active = self._active
            assert active is not None
            base = self._interval_base
            if base:
                paths = [
                    Path(weight=path.weight,
                         nodes=tuple((interval + base, index)
                                     for interval, index
                                     in path.nodes))
                    for path in paths]
            else:
                paths = list(paths)
            self._append(PATHS_FILE, encode_compact(
                (active["path_generations"], paths)))
            active["path_generations"] += 1
            active["num_paths"] = len(paths)
            self._save_manifest(complete=False)

    def flush_segment(self) -> bool:
        """Seal the growing segment into the immutable tier.

        Returns whether a segment was sealed (an empty growing
        segment is discarded instead).  Sealing may trigger the merge
        policy."""
        with self._lock:
            if self._closed:
                raise ClusterIndexError(
                    "cannot flush a finalized/aborted index writer")
            flushed = self._flush_locked()
        if flushed:
            self._maybe_merge()
        return flushed

    def _flush_locked(self) -> bool:
        active = self._active
        if active is None:
            return False
        for fh in self._active_fhs.values():
            fh.close()
        self._active = None
        self._active_fhs = {}
        if not active["num_intervals"] \
                and not active["path_generations"]:
            shutil.rmtree(
                segment_dir(self.directory, active["name"]),
                ignore_errors=True)
            return False
        active["sealed"] = True
        self._segments.append(active)
        self._save_manifest(complete=False)
        return True

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _maybe_merge(self) -> None:
        if self._merge_policy is None:
            return
        if self._background:
            with self._lock:
                thread = self._merge_thread
                if thread is not None and thread.is_alive():
                    return
                thread = threading.Thread(
                    target=self._merge_loop, daemon=True,
                    name="repro-index-merge")
                self._merge_thread = thread
            thread.start()
        else:
            self._merge_loop()

    def _merge_loop(self) -> None:
        """Compact sealed segments until the policy is satisfied."""
        policy = self._merge_policy
        assert policy is not None
        while True:
            with self._lock:
                names = select_merge_inputs(self._segments, policy)
                if not names:
                    return
                metas = [meta for meta in self._segments
                         if meta["name"] in names]
                out_name = segment_name(self._next_segment)
                self._next_segment += 1
            # The rewrite runs outside the lock: inputs are sealed,
            # hence immutable, and appends may land concurrently.
            merged = rewrite_segments(
                self.directory, metas, out_name,
                num_shards=self.num_shards, use_mmap=self._use_mmap)
            with self._lock:
                start = self._segments.index(metas[0])
                self._segments[start:start + len(metas)] = [merged]
                self._save_manifest(complete=False)
            for meta in metas:  # readers' open handles stay valid
                shutil.rmtree(
                    segment_dir(self.directory, meta["name"]),
                    ignore_errors=True)

    def _join_merge_thread(self) -> None:
        thread = self._merge_thread
        if thread is not None:
            thread.join()
            self._merge_thread = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def bytes_written(self) -> int:
        """Total log bytes across live segments (manifest excluded).

        Drops when a merge reclaims superseded path generations."""
        with self._lock:
            segments = list(self._segments)
            if self._active is not None:
                segments.append(self._active)
            return sum(sum(meta["files"].values())
                       for meta in segments)

    def finalize(self) -> int:
        """Seal, merge per policy, mark the index complete, close.

        Returns total log bytes; idempotent — later calls return the
        same total.  An aborted writer cannot be finalized.
        """
        if self._closed and not self._finalized:
            raise ClusterIndexError(
                "cannot finalize an aborted index writer")
        if not self._finalized:
            with self._lock:
                self._flush_locked()
            self._maybe_merge()
            self._join_merge_thread()
            with self._lock:
                self._finalized = True
                self._closed = True
                self._save_manifest(complete=True)
        return self.bytes_written

    def abort(self) -> None:
        """Close the writer *without* marking the index complete.

        What was appended so far stays readable (the manifest keeps
        ``complete: false``, so tailing readers know the run never
        finished) and the growing segment is sealed so a later
        ``append=True`` reopen or merge treats it as immutable.
        Idempotent; a no-op after :meth:`finalize`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._flush_locked()
        self._join_merge_thread()
        with self._lock:
            self._save_manifest(complete=False)

    def close(self) -> None:
        """Alias for :meth:`finalize` (context-manager symmetry)."""
        self.finalize()

    def __enter__(self) -> "ClusterIndexWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # A run that died mid-write must not stamp its partial index
        # complete; readers see `complete: false` and keep waiting
        # (or report it live) instead of serving a truncated run as
        # finished.
        if exc_type is None:
            self.finalize()
        else:
            self.abort()

    def __repr__(self) -> str:
        totals = self._totals()
        return (f"ClusterIndexWriter(dir={self.directory!r}, "
                f"segments={self.num_segments}, "
                f"intervals={totals['num_intervals']}, "
                f"clusters={totals['num_clusters']})")

    # ------------------------------------------------------------------
    # Whole-run convenience
    # ------------------------------------------------------------------

    @classmethod
    def write_run(cls, directory: str,
                  interval_clusters: Sequence[Sequence],
                  paths: Sequence, *,
                  vocab: Optional[Vocabulary] = None,
                  query: Optional[Any] = None,
                  plan: Optional[Any] = None,
                  num_shards: int = DEFAULT_SHARDS,
                  overwrite: bool = True,
                  append: bool = False,
                  flush_intervals: Optional[int] = None,
                  merge_policy: Optional[MergePolicy] = None) -> int:
        """Persist a completed batch run in one call; returns total
        log bytes written.

        ``plan`` (an :class:`~repro.engine.planner.ExecutionPlan`)
        contributes its decision fields as the index's provenance
        (:meth:`plan_provenance`).  With ``append=True`` the run is
        appended to an existing index as new segments continuing its
        timeline.
        """
        provenance = cls.plan_provenance(plan)
        if query is None and plan is not None:
            query = plan.query
        if append:
            overwrite = False
        with cls(directory, vocab=vocab, query=query,
                 provenance=provenance, num_shards=num_shards,
                 overwrite=overwrite, append=append,
                 flush_intervals=flush_intervals,
                 merge_policy=merge_policy) as writer:
            for clusters in interval_clusters:
                writer.append_interval(clusters)
            writer.set_paths(paths)
            return writer.finalize()
