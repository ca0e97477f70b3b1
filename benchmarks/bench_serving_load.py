"""Concurrent serving load: the latency curve and batching win.

The serving tier (see docs/serving.md) shares one thread-safe
:class:`~repro.service.ClusterQueryService` across every HTTP
connection, with a hot-keyword LRU and single-flight request
batching in front of the index reads.  This benchmark is the tier's
gate:

* **equivalence** — a sample of HTTP answers must be byte-identical
  to the in-process payload builders over a second service on the
  same index (the contract the round-trip tests pin);
* **latency curve** — p50/p95/p99 latency and throughput measured at
  1, 4, 16 and 64 concurrent clients hammering a Zipf-skewed
  keyword mix over keep-alive connections, the saturation
  trajectory of the paper's "millions of users" serving scenario;
* **batching** — with the hot cache disabled and 64 clients on one
  keyword, single-flight coalescing must cut index reads by
  ``REDUCTION_FLOOR`` vs the unbatched server (warning-only under
  CI, where thread scheduling is too coarse to promise overlap);
* **trajectory** — ``--json PATH`` stores the headline figures as
  a row of the repo-root ``BENCH_serving.json`` artifact (shared
  envelope from :mod:`_json`) that ``make bench-json`` versions;
  ``--row before`` with ``PYTHONPATH`` at an earlier checkout's
  ``src`` records that commit's curve beside the ``after`` row.

Runs under pytest alongside the paper benchmarks and standalone::

    PYTHONPATH=src python benchmarks/bench_serving_load.py --smoke
"""

from __future__ import annotations

import http.client
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from bench_index_lifecycle import lifecycle_workload
from repro.graph.clusters import KeywordCluster
from repro.index import ClusterIndexWriter
from repro.service import ClusterQueryService
from repro.serving import (
    ClusterServer,
    encode_payload,
    lookup_payload,
    paths_payload,
    refine_payload,
)

INTERVALS = 24
CLUSTERS_PER_INTERVAL = 30
KEYWORD_POOL = 600
CONCURRENCIES = (1, 4, 16, 64)
REQUESTS_PER_CLIENT = 60
BATCH_REQUESTS_PER_CLIENT = 30

HAMMER_CLUSTERS = 150

SMOKE_SCALE = dict(intervals=8, per_interval=12, pool=200,
                   requests_per_client=8, batch_requests_per_client=4,
                   hammer_clusters=80)

# Single-flight must coalesce at least this share of the unbatched
# index reads on the one-hot-keyword workload.
REDUCTION_FLOOR = 0.30

# The most-concurrent point should retain at least this share of the
# saturation (knee) throughput.  Always warning-only: the one-process
# tier drops past its knee by design (the GIL is the ceiling); the
# floor exists to make the drop visible in BENCH_serving.json, and
# ``serve --shards N`` (bench_distributed.py) is the fix.
RETENTION_FLOOR = 0.60


def build_index(directory: str, intervals: int,
                per_interval: int, pool: int) -> None:
    """Persist the lifecycle workload as one queryable index."""
    interval_clusters, path_snapshots = lifecycle_workload(
        intervals, per_interval, pool)
    with ClusterIndexWriter(directory, overwrite=True,
                            merge_policy=None) as writer:
        for clusters, paths in zip(interval_clusters,
                                   path_snapshots):
            writer.append_interval(clusters)
            if paths:
                writer.set_paths(paths)


def build_hammer_index(directory: str, num_clusters: int,
                       pool: int = 400, seed: int = 3) -> None:
    """An index where refining ``kw0`` is genuinely expensive.

    Every cluster contains ``kw0`` and the last one is the union of
    all the others, so one uncached refine walks the whole postings
    list and decodes the one large winning record off disk —
    milliseconds of real read work per request, the regime where
    single-flight coalescing pays.  (The reader ranks candidates by
    their stored sizes and decodes only the winner, so many small
    candidates alone no longer make a read slow.)"""
    rng = random.Random(seed)
    names = [f"kw{rank}" for rank in range(pool)]
    members = [sorted(set(["kw0"] + rng.sample(names[1:], 12)))
               for _ in range(num_clusters)]
    members.append(sorted(
        {f"{keyword}c{n}" for n, keywords in enumerate(members)
         for keyword in keywords} | {"kw0"}))
    clusters = []
    for keywords in members:
        edges = tuple((keywords[i], keywords[i + 1],
                       round(rng.uniform(0.2, 0.9), 3))
                      for i in range(len(keywords) - 1))
        clusters.append(KeywordCluster(frozenset(keywords),
                                       edges=edges, interval=0))
    with ClusterIndexWriter(directory, overwrite=True,
                            merge_policy=None) as writer:
        writer.append_interval(clusters)


def zipf_keywords(pool: int, count: int) -> List[str]:
    """A deterministic Zipf-skewed request mix over the pool."""
    # rank r is requested ~1/(r+1) as often as rank 0: emit rank 0
    # every step, rank 1 every 2nd, rank 2 every 3rd, ...
    out: List[str] = []
    step = 0
    while len(out) < count:
        for rank in range(pool):
            if step % (rank + 1) == 0:
                out.append(f"kw{rank}")
                if len(out) == count:
                    break
        step += 1
    return out


def run_clients(url: str, num_clients: int,
                requests_each: Callable[[int], List[str]]
                ) -> Tuple[List[float], float, int]:
    """Hammer *url* from *num_clients* threads over keep-alive.

    ``requests_each(client)`` is the path list one client plays.
    Returns (per-request latencies, wall seconds, error count);
    clients start together on a barrier so concurrency is real."""
    host, port = url.split("//")[1].split(":")
    barrier = threading.Barrier(num_clients + 1)
    latencies_per_client: List[List[float]] = \
        [[] for _ in range(num_clients)]
    errors = [0] * num_clients

    def client(idx: int) -> None:
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            conn.connect()  # connect setup is not part of the load
            barrier.wait()
            for path in requests_each(idx):
                started = time.perf_counter()
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    response.read()
                except OSError:
                    errors[idx] += 1
                    conn.close()  # reconnect lazily on next request
                    continue
                latencies_per_client[idx].append(
                    time.perf_counter() - started)
                if response.status != 200:
                    errors[idx] += 1
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(idx,))
               for idx in range(num_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    latencies = [latency for per_client in latencies_per_client
                 for latency in per_client]
    return latencies, wall, sum(errors)


def percentile(latencies: List[float], share: float) -> float:
    """The *share* percentile (0..1) of sorted latencies, in ms."""
    ordered = sorted(latencies)
    index = min(len(ordered) - 1,
                int(round(share * (len(ordered) - 1))))
    return ordered[index] * 1000


def bench_equivalence(record, directory: str, url: str,
                      pool: int) -> int:
    """HTTP bytes vs in-process payload builders: must be identical."""
    experiment = "Serving load: equivalence"
    host, port = url.split("//")[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    checked = 0
    with ClusterQueryService(directory) as service:
        probes: List[Tuple[str, Callable[[], Dict]]] = []
        for rank in range(0, pool, max(1, pool // 8)):
            keyword = f"kw{rank}"
            probes.append((
                f"/refine?keyword={keyword}",
                lambda kw=keyword: refine_payload(service, kw)))
            probes.append((
                f"/lookup?keyword={keyword}&interval=0",
                lambda kw=keyword: lookup_payload(service, kw, 0)))
        probes.append(("/paths", lambda: paths_payload(service)))
        probes.append(("/paths?keyword=kw0",
                       lambda: paths_payload(service, "kw0")))
        for path, build in probes:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200, (path, response.status)
            expected = encode_payload(build())
            assert body == expected, \
                f"HTTP answer diverged from in-process for {path}"
            checked += 1
    conn.close()
    record(experiment, "answers checked",
           f"{checked} (all byte-identical)")
    return checked


def bench_latency_curve(record, directory: str, pool: int,
                        requests_per_client: int) -> List[Dict]:
    """p50/p95/p99 + throughput at each concurrency level."""
    experiment = "Serving load: latency curve"
    curve: List[Dict] = []
    baseline_per_client: Optional[float] = None
    with ClusterServer(directory, max_inflight=128).start() as server:
        for clients in CONCURRENCIES:
            mix = zipf_keywords(pool, requests_per_client)

            def plays(idx: int, mix=mix) -> List[str]:
                # Stagger each client's starting offset so the load
                # is not 64 copies of the same request sequence.
                return [f"/refine?keyword="
                        f"{mix[(idx * 7 + i) % len(mix)]}"
                        for i in range(len(mix))]

            latencies, wall, errors = run_clients(
                server.url, clients, plays)
            assert errors == 0, \
                f"{errors} non-200 responses at {clients} clients"
            throughput = round(len(latencies) / wall, 1) \
                if wall else 0.0
            per_client = throughput / clients
            if baseline_per_client is None:
                baseline_per_client = per_client or 1.0
            point = {
                "clients": clients,
                "requests": len(latencies),
                "p50_ms": round(percentile(latencies, 0.50), 3),
                "p95_ms": round(percentile(latencies, 0.95), 3),
                "p99_ms": round(percentile(latencies, 0.99), 3),
                "throughput_rps": throughput,
                # rps each client sees, and how it compares to what
                # one lone client got — 1.0 is perfect scaling, and
                # the fall-off localizes the knee in the artifact.
                "per_client_rps": round(per_client, 1),
                "scaling_efficiency": round(
                    per_client / baseline_per_client, 3),
            }
            curve.append(point)
            record(experiment, f"{clients:>2} client(s)",
                   f"p50 {point['p50_ms']:.2f}ms  "
                   f"p95 {point['p95_ms']:.2f}ms  "
                   f"p99 {point['p99_ms']:.2f}ms  "
                   f"{point['throughput_rps']:.0f} req/s  "
                   f"(eff {point['scaling_efficiency']:.2f})")
    return curve


def _hammer_one_keyword(directory: str, batching: bool,
                        clients: int, per_client: int) -> Dict:
    """64-clients-one-keyword phase; returns the server counters.

    Both caches are disabled, so every non-coalesced request pays
    the full index read (postings walk + the winning cluster's
    decode off disk) — the expensive work single-flight exists to
    dedup."""
    with ClusterServer(directory, cache_size=0,
                       cluster_cache_size=0, max_inflight=128,
                       batching=batching).start() as server:
        latencies, wall, errors = run_clients(
            server.url, clients,
            lambda idx: ["/refine?keyword=kw0"] * per_client)
        assert errors == 0
        stats = server.server_stats()
        stats["wall_seconds"] = wall
        return stats


def bench_singleflight(record, clients: int, per_client: int,
                       hammer_clusters: int) -> Dict:
    """Index reads with batching off vs on, same workload."""
    experiment = "Serving load: single-flight batching"
    directory = tempfile.mkdtemp(prefix="repro-bench-hammer-")
    try:
        build_hammer_index(directory, hammer_clusters)
        unbatched = _hammer_one_keyword(directory, False, clients,
                                        per_client)
        batched = _hammer_one_keyword(directory, True, clients,
                                      per_client)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    requests = clients * per_client
    reduction = 1 - batched["index_reads"] / unbatched["index_reads"]
    record(experiment, "workload",
           f"{clients} clients x {per_client} requests, "
           f"one keyword over {hammer_clusters} clusters, "
           f"caches off")
    record(experiment, "index reads",
           f"{unbatched['index_reads']} unbatched -> "
           f"{batched['index_reads']} batched "
           f"({100 * reduction:.0f}% coalesced)")
    record(experiment, "coalesced waiters",
           batched["singleflight"]["coalesced"])
    return {
        "clients": clients,
        "requests": requests,
        "unbatched_index_reads": unbatched["index_reads"],
        "batched_index_reads": batched["index_reads"],
        "read_reduction": round(reduction, 3),
    }


def _check_retention(results: Dict) -> str:
    """Surface the post-knee throughput drop (always warning-only).

    A MISSED outcome never fails the run — the single-process tier
    loses throughput past its knee by construction — but it lands in
    the recorded results so the regression stays visible release
    over release."""
    retention = results["saturation_retention"]
    if retention >= RETENTION_FLOOR:
        return f"met ({100 * retention:.0f}% of peak retained)"
    last = results["latency_curve"][-1]
    message = (f"{last['clients']}-client throughput retains only "
               f"{100 * retention:.0f}% of the "
               f"{results['saturation_throughput_rps']:.0f} rps peak "
               f"at {results['knee_clients']} clients "
               f"(floor {100 * RETENTION_FLOOR:.0f}%)")
    print(f"warning: {message} [visibility only; serve --shards N "
          f"is the fix]")
    return f"MISSED ({100 * retention:.0f}% retained)"


def _assert_reduction(results: Dict) -> str:
    """Enforce the coalescing floor (warning-only under CI)."""
    reduction = results["singleflight"]["read_reduction"]
    if reduction >= REDUCTION_FLOOR:
        return f"met ({100 * reduction:.0f}%)"
    message = (f"single-flight coalesced only "
               f"{100 * reduction:.0f}% of index reads "
               f"(floor {100 * REDUCTION_FLOOR:.0f}%)")
    if os.environ.get("CI"):
        print(f"warning: {message} [not enforced under CI]")
        return f"MISSED under CI ({100 * reduction:.0f}%)"
    raise AssertionError(message)


def run_serving_bench(record: Callable[[str, str, object], None],
                      intervals: int = INTERVALS,
                      per_interval: int = CLUSTERS_PER_INTERVAL,
                      pool: int = KEYWORD_POOL,
                      requests_per_client: int = REQUESTS_PER_CLIENT,
                      batch_requests_per_client: int =
                      BATCH_REQUESTS_PER_CLIENT,
                      hammer_clusters: int = HAMMER_CLUSTERS) -> dict:
    """Build an index, then equivalence -> curve -> batching."""
    directory = tempfile.mkdtemp(prefix="repro-bench-serving-")
    try:
        build_index(directory, intervals, per_interval, pool)
        with ClusterServer(directory,
                           max_inflight=128).start() as server:
            checked = bench_equivalence(record, directory,
                                        server.url, pool)
        curve = bench_latency_curve(record, directory, pool,
                                    requests_per_client)
        singleflight = bench_singleflight(
            record, max(CONCURRENCIES), batch_requests_per_client,
            hammer_clusters)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    saturation = max(point["throughput_rps"] for point in curve)
    final = curve[-1]["throughput_rps"]
    results = {
        "workload": {
            "intervals": intervals,
            "clusters_per_interval": per_interval,
            "keyword_pool": pool,
            "requests_per_client": requests_per_client,
        },
        "answers_checked": checked,
        "answers_identical": True,
        "latency_curve": curve,
        "saturation_throughput_rps": saturation,
        "knee_clients": next(point["clients"] for point in curve
                             if point["throughput_rps"]
                             == saturation),
        "final_throughput_rps": final,
        "saturation_retention":
            round(final / saturation, 3) if saturation else 0.0,
        "singleflight": singleflight,
    }
    results["retention_floor"] = _check_retention(results)
    return results


def test_serving_load_benchmark(series) -> None:
    """Benchmark entry point under pytest: equivalence always,
    coalescing floor asserted, latency curve reported."""
    results = run_serving_bench(series, **SMOKE_SCALE)
    assert len(results["latency_curve"]) == len(CONCURRENCIES)
    assert all("scaling_efficiency" in point
               for point in results["latency_curve"])
    outcome = _assert_reduction(results)
    series("Serving load: single-flight batching",
           "reduction floor", outcome)
    series("Serving load: latency curve", "retention floor",
           results["retention_floor"])


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone smoke/JSON mode for CI (no pytest required)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small shapes for CI smoke runs")
    parser.add_argument("--json", metavar="PATH",
                        help="store the perf-trajectory figures as "
                             "a row of PATH (the BENCH_serving.json "
                             "artifact)")
    parser.add_argument("--row", default="after",
                        help="name of the row this run is stored "
                             "under (default: after)")
    args = parser.parse_args(argv)
    rows: List[str] = []

    def record(experiment: str, label: str, value) -> None:
        rows.append(f"{experiment}: {label:<16} {value}")

    scale = dict(SMOKE_SCALE) if args.smoke else {}
    results = run_serving_bench(record, **scale)
    for row in rows:
        print(row)
    outcome = _assert_reduction(results)
    if args.json:
        from _json import load_bench_rows, write_bench_json
        rows = load_bench_rows(args.json)
        rows[args.row] = results
        write_bench_json(args.json, "serving", {"rows": rows})
        print(f"wrote {args.json} (row {args.row!r})")
    top = results["latency_curve"][-1]
    print(f"serving load benchmark: answers identical, "
          f"reduction floor {outcome}, "
          f"retention floor {results['retention_floor']}, "
          f"{top['clients']} clients p95 {top['p95_ms']:.2f}ms, "
          f"saturation {results['saturation_throughput_rps']:.0f} "
          f"req/s")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
