"""Shard-parallel construction of a persistent cluster index.

:func:`build_sharded_index` is the distributed tier's build path
(``index build --shards N``): the sequential planning pass walks the
run's intervals exactly like :class:`repro.index.ClusterIndexWriter`
— rebinding clusters into the vocabulary, assigning each record to
its hash shard, accumulating postings in encounter order — and then
the expensive part, encoding and framing every shard's cluster
records, fans out over worker processes that each produce one
shard's log blob end-to-end.  The parent lays the blobs down as one
sealed segment and publishes a manifest.

The output is byte-identical to what the serial writer produces for
the same run (the test suite compares the files directly): record
framing goes through the same :func:`repro.storage.frame_record`,
shard assignment through the same :func:`repro.index.format.
shard_for`, and the manifest replays the serial writer's save
count so even its generation number lines up.
"""

import os
import shutil
from typing import Any, Optional, Sequence

from repro.index.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    PATHS_FILE,
    POSTINGS_FILE,
    VOCABULARY_FILE,
    ClusterIndexError,
    manifest_path,
    new_segment_meta,
    save_manifest,
    segment_dir,
    segment_name,
    segments_root,
    shard_file,
    shard_for,
)
from repro.index.writer import DEFAULT_SHARDS, ClusterIndexWriter
from repro.parallel import open_executor
from repro.storage.codec import encode_compact
from repro.storage.recordlog import frame_record


def _frame_shard(records) -> bytes:
    """Encode and frame one shard's cluster records (worker task)."""
    return b"".join(frame_record(encode_compact(record))
                    for record in records)


def _prepare_directory(directory: str, overwrite: bool) -> None:
    """Mirror the serial writer's directory preconditions."""
    if os.path.exists(manifest_path(directory)):
        if not overwrite:
            raise ClusterIndexError(
                f"{directory!r} already holds a cluster index; pass "
                f"overwrite=True to rebuild it")
        os.unlink(manifest_path(directory))
        shutil.rmtree(segments_root(directory), ignore_errors=True)
    elif os.path.isdir(directory) and os.listdir(directory):
        raise ClusterIndexError(
            f"refusing to write an index into non-empty directory "
            f"{directory!r} (no manifest found)")
    os.makedirs(segments_root(directory), exist_ok=True)


def build_sharded_index(directory: str,
                        interval_clusters: Sequence[Sequence],
                        paths: Sequence, *,
                        vocab: Optional[Any] = None,
                        query: Optional[Any] = None,
                        plan: Optional[Any] = None,
                        num_shards: int = DEFAULT_SHARDS,
                        workers: Optional[int] = None,
                        overwrite: bool = True) -> int:
    """Persist a batch run with shard-parallel workers.

    A drop-in for :meth:`ClusterIndexWriter.write_run` producing a
    byte-identical single-segment index: same record frames, same
    shard assignment, same postings order, same manifest.  *workers*
    sizes the encoding pool (``None`` = serial, ``0`` = all cores).
    Returns total log bytes written.
    """
    if num_shards < 1:
        raise ValueError(
            f"num_shards must be >= 1, got {num_shards}")
    interval_clusters = [list(clusters)
                         for clusters in interval_clusters]
    if query is None and plan is not None:
        query = plan.query
    provenance = ClusterIndexWriter.plan_provenance(plan)
    _prepare_directory(directory, overwrite)
    # The sequential planning pass: vocabulary rebinding must happen
    # in interval order (token ids are append-ordered) and postings
    # must keep the writer's encounter order, so only the per-shard
    # encode+frame step is worth distributing.
    shard_records: list = [[] for _ in range(num_shards)]
    vocab_deltas = []
    postings_frames = []
    vocab_written = 0
    num_clusters = 0
    for interval, clusters in enumerate(interval_clusters):
        if vocab is not None:
            clusters = [cluster.rebind(vocab)
                        for cluster in clusters]
            fresh = vocab.tokens[vocab_written:]
            if fresh:
                vocab_deltas.append(
                    frame_record(encode_compact(tuple(fresh))))
                vocab_written = len(vocab.tokens)
        postings: dict = {}
        for idx, cluster in enumerate(clusters):
            if vocab is not None:
                tokens_out = cluster.tokens
                edges_out = cluster.token_edges
            else:
                tokens_out = tuple(sorted(cluster.keywords))
                edges_out = cluster.edges
            record = (interval, idx, cluster.interval,
                      tuple(tokens_out), tuple(edges_out))
            shard_records[shard_for(interval, idx,
                                    num_shards)].append(record)
            for token in tokens_out:
                postings.setdefault(token, []).append(idx)
        postings_frames.append(
            frame_record(encode_compact((interval, postings))))
        num_clusters += len(clusters)
    with open_executor(workers) as executor:
        blobs = executor.map_stages(_frame_shard, shard_records)
    name = segment_name(0)
    seg = segment_dir(directory, name)
    os.makedirs(seg)
    meta = new_segment_meta(name, first_interval=0, vocab_base=0)

    def _write(fname: str, blob: bytes) -> None:
        with open(os.path.join(seg, fname), "wb") as fh:
            fh.write(blob)
        meta["files"][fname] = len(blob)

    for shard, blob in enumerate(blobs):
        _write(shard_file(shard), blob)
    _write(POSTINGS_FILE, b"".join(postings_frames))
    _write(PATHS_FILE,
           frame_record(encode_compact((0, list(paths)))))
    if vocab is not None:
        _write(VOCABULARY_FILE, b"".join(vocab_deltas))
    num_intervals = len(interval_clusters)
    meta.update(num_intervals=num_intervals,
                num_clusters=num_clusters,
                vocab_size=vocab_written,
                path_generations=1,
                num_paths=len(paths),
                sealed=True)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "token_kind": "id" if vocab is not None else "str",
        "num_shards": num_shards,
        # The serial writer bumps the generation on every manifest
        # save: one at open, one per appended interval, one for the
        # paths, one sealing the segment, one marking completion.
        # Replaying that count keeps a sharded rebuild byte-identical
        # to write_run, manifest included.
        "generation": num_intervals + 4,
        "next_segment": 1,
        "complete": True,
        "query": ClusterIndexWriter._query_dict(query),
        "provenance": provenance,
        "segments": [meta],
        "num_intervals": num_intervals,
        "num_clusters": num_clusters,
        "vocab_size": vocab_written,
        "path_generations": 1,
        "num_paths": len(paths),
    }
    save_manifest(directory, manifest)
    return sum(meta["files"].values())
