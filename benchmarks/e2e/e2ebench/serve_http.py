"""Workload ``serve_http``: a ``serve`` subprocess under query load.

Set-up builds an index of 48 intervals x 60 clusters over a
4000-keyword Zipf pool (about 190k ``(interval, keyword)`` keys
against a 256-entry hot LRU and a 1024-entry cluster LRU, so both
the hit and the miss paths run) and starts ``python -m repro.cli
serve DIR --port 0``.  One generator process, 2 keep-alive
connections (= ``nproc``), pre-built request bytes; mix 60 %
``/refine``, 30 % ``/lookup``, 10 % ``/paths``; keywords Zipf-1.1,
interval uniform.

An operation is one request of the open-loop phase (1500 requests/s,
a little over half of saturation, latency timed from the due time —
refinement users are independent, so they do not wait for each
other).  At 1000 requests/s the cores idle between requests and the
median swung by 10 % from process to process with their wake-up
time; at 1500 it holds to 4 %.  ``items_per_s`` is the closed-loop
phase's throughput, the saturation point.  This is the
only workload where ``serving`` / ``service`` / index reads do the
work and the write path does none.  ``serve --shards 2`` is measured
in the traced run only (``distributed.closed_*``): with 2 cores the
coordinator, two workers and the generator share cores, so it is not
a scaling claim.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, List

import repro.serving.server as serving_server
from repro.distributed import DistributedQueryService
from repro.index import ClusterIndexWriter
from repro.service import ClusterQueryService
from repro.serving import (
    ClusterServer,
    encode_payload,
    lookup_payload,
    paths_payload,
    refine_payload,
)

from e2ebench import gen
from e2ebench.harness import (
    Measured,
    Traced,
    Workload,
    hit_rate,
    timed_refine,
)
from e2ebench.loadgen import (
    LoopResult,
    Server,
    run_phase,
    split_cpus,
)
from e2ebench.spans import ROOT, Tracer, median_us, percentile

FULL = dict(intervals=48, per_interval=60, pool=4000, requests=20000,
            rate=1500.0, in_process=3000, distributed=600)
SMOKE = dict(intervals=12, per_interval=20, pool=500, requests=2000,
             rate=300.0, in_process=300, distributed=60)
CONNECTIONS = 2


def expected_body(service, request: gen.Request) -> bytes:
    """The bytes the in-process payload builders give for *request*."""
    params = dict(request.params)
    keyword = params["keyword"]
    if request.route == "/paths":
        return encode_payload(paths_payload(service, keyword))
    interval = int(params["interval"])
    build = refine_payload if request.route == "/refine" \
        else lookup_payload
    return encode_payload(build(service, keyword, interval))


class ServeHttp(Workload):
    """See the module docstring."""

    name = "serve_http"

    def setup(self) -> None:
        self.scale = scale = SMOKE if self.smoke else FULL
        self.index_dir = self.path("index")
        clusters, paths = gen.serving_clusters(
            self.seed, scale["intervals"], scale["per_interval"],
            scale["pool"])
        ClusterIndexWriter.write_run(self.index_dir, clusters, paths)
        self.schedule = gen.request_schedule(
            self.seed, scale["requests"], scale["pool"],
            scale["intervals"])
        self.wires = [request.wire for request in self.schedule]
        # An empty directory for the server's cwd: ``python -m``
        # puts the working directory on ``sys.path``, and nothing
        # there may shadow a standard-library module.
        self.server_cwd = self.path("server-cwd")
        os.makedirs(self.server_cwd, exist_ok=True)
        self.servers: List[Server] = []
        self.generator_cpu, server_cpu = split_cpus()
        self.server = self._start(cpu=server_cpu)

    def _start(self, *extra: str, cpu=None) -> Server:
        server = Server(self.index_dir, self.server_cwd, extra, cpu)
        self.servers.append(server)
        return server

    def _load(self, server: Server, seconds: float, **options
              ) -> LoopResult:
        """One load phase against *server*, *seconds* long in all."""
        warmup = min(1.0, 0.2 * seconds)
        return run_phase(server.address, self.wires,
                         seconds - warmup, warmup,
                         cpu=self.generator_cpu, **options)

    def teardown(self) -> None:
        while self.servers:
            self.servers.pop().close()

    # ------------------------------------------------------------------
    # Checks (outside the timed regions)
    # ------------------------------------------------------------------

    def _mismatches(self, *phases: LoopResult) -> int:
        """Sampled bodies that differ from the in-process answer."""
        with ClusterQueryService(self.index_dir) as service:
            return sum(
                body != expected_body(service, self.schedule[index])
                for phase in phases for index, body in phase.sampled)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def measure(self, seconds: float) -> Measured:
        opened = self._load(self.server, 0.6 * seconds,
                            connections=CONNECTIONS,
                            rate=self.scale["rate"])
        closed = self._load(self.server, 0.4 * seconds,
                            connections=CONNECTIONS,
                            offset=len(self.wires) // 2)
        failed = opened.failed + closed.failed \
            + self._mismatches(opened, closed)
        return Measured(
            op_seconds=opened.latencies, items=closed.sent,
            wall_seconds=closed.seconds,
            attempted=opened.sent + closed.sent, failed=failed,
            rss_mb=self.server.peak_rss_mb(),
            notes={"closed_requests": closed.sent,
                   "late_p99_us": round(
                       1e6 * percentile(opened.lateness, 99))})

    def _service_layer(self, count: int) -> Dict[str, float]:
        """Direct ``ClusterQueryService`` calls, cold caches first."""
        times: Dict[str, List[float]] = {
            "refine_hit": [], "refine_miss": [], "lookup": [],
            "paths": []}
        with ClusterQueryService(self.index_dir) as service:
            for request in self.schedule[:count]:
                params = dict(request.params)
                keyword = params["keyword"]
                if request.route == "/refine":
                    took, hit = timed_refine(
                        service, keyword, int(params["interval"]))
                    times["refine_hit" if hit
                          else "refine_miss"].append(took)
                    continue
                started = time.perf_counter()
                if request.route == "/lookup":
                    service.lookup(keyword, int(params["interval"]))
                else:
                    service.paths_for(keyword)
                times[request.route[1:]].append(
                    time.perf_counter() - started)
        return {f"service.{kind}_us": median_us(samples)
                for kind, samples in times.items()}

    def _serving_layer(self, tracer: Tracer, count: int
                       ) -> Dict[str, float]:
        """``ClusterServer.answer`` + ``encode_payload`` in process,
        with spans where it calls down into service and index."""
        with contextlib.ExitStack() as stack:
            service = stack.enter_context(
                ClusterQueryService(self.index_dir))
            server = stack.enter_context(ClusterServer(service))
            for owner, attribute, name in (
                    (serving_server, "refine_payload", "serving.payload"),
                    (serving_server, "lookup_payload", "serving.payload"),
                    (serving_server, "paths_payload", "serving.payload"),
                    (service, "refine", "service.refine"),
                    (service, "lookup", "service.lookup"),
                    (service, "paths_for", "service.paths"),
                    (service, "render_path", "service.paths"),
                    (service.reader, "lookup", "index.lookup"),
                    (service.reader, "cluster", "index.cluster")):
                stack.enter_context(
                    tracer.wrapped(owner, attribute, name))
            for n, request in enumerate(self.schedule[:count]):
                with tracer.span(ROOT, op=n):
                    with tracer.span("serving.answer"):
                        status, payload = server.answer(
                            request.route, dict(request.params))
                    with tracer.span("serving.encode"):
                        encode_payload(payload)
                if status != 200:
                    raise SystemExit(f"{request.target}: {status}")
            stats = service.stats()

        layers = {
            f"{name}_us": median_us(tracer.durations(name))
            for name in ("serving.answer", "serving.payload",
                         "serving.encode", "index.lookup")}
        layers.update({
            "index.segments": stats["segments"],
            "index.bytes_scanned": stats["bytes_scanned"],
            "index.cluster_hit_rate": hit_rate(
                stats["cluster_hits"], stats["cluster_misses"]),
            "service.hot_hit_rate": hit_rate(
                stats["refiner_hits"], stats["refiner_misses"]),
        })
        return layers

    def _distributed_layer(self, count: int) -> Dict[str, float]:
        """``DistributedQueryService(dir, workers=2)`` in process."""
        times: Dict[str, List[float]] = {"refine": [], "lookup": []}
        with DistributedQueryService(self.index_dir,
                                     workers=2) as service:
            for request in self.schedule[:count]:
                kind = request.route[1:]
                if kind not in times:
                    continue
                params = dict(request.params)
                call = getattr(service, kind)
                started = time.perf_counter()
                call(params["keyword"], int(params["interval"]))
                times[kind].append(time.perf_counter() - started)
            stats = service.stats()
        return {
            "distributed.refine_us": median_us(times["refine"]),
            "distributed.lookup_us": median_us(times["lookup"]),
            "distributed.scatters": stats["scatters"],
            "distributed.hedged": stats["hedged_calls"],
            "distributed.respawns": stats["respawns"],
            "distributed.timeouts": stats["timeouts"],
        }

    def trace(self, seconds: float, tracer: Tracer) -> Traced:
        scale = self.scale
        layers = self._service_layer(scale["in_process"])
        layers.update(self._serving_layer(tracer, scale["in_process"]))

        # Over HTTP: one connection closed loop without and with
        # request spans, then the open loop with them.
        length = 0.15 * seconds
        before = self.server.stats()["server"]
        plain = self._load(self.server, length, connections=1)
        traced = self._load(self.server, length, connections=1,
                            tracer=tracer)
        opened = self._load(self.server, length,
                            connections=CONNECTIONS,
                            rate=scale["rate"], tracer=tracer)
        after = self.server.stats()["server"]

        layers.update(self._distributed_layer(scale["distributed"]))
        sharded_server = self._start("--shards", "2")
        sharded = self._load(sharded_server, length,
                             connections=CONNECTIONS)

        phases = (plain, traced, opened, sharded)
        failed = sum(phase.failed for phase in phases) \
            + self._mismatches(*phases)
        one_connection = percentile(plain.latencies, 50)
        layers.update({
            "serving.http_overhead_us":
                1e6 * one_connection - layers["serving.answer_us"],
            "serving.index_reads":
                after["index_reads"] - before["index_reads"],
            "serving.coalesced":
                after["singleflight"]["coalesced"]
                - before["singleflight"]["coalesced"],
            "serving.rejected":
                after["rejected"] - before["rejected"],
            "distributed.closed_rps": sharded.sent / sharded.seconds,
            "distributed.closed_p50_ms":
                1e3 * percentile(sharded.latencies, 50),
            "loadgen.query_p99_ms":
                1e3 * percentile(opened.latencies, 99),
            "loadgen.late_p99_ms":
                1e3 * percentile(opened.lateness, 99),
            "loadgen.sent": sum(phase.sent for phase in phases),
            "trace.ops": scale["in_process"],
            "trace.coverage_share": tracer.coverage(),
            "trace.overhead_share":
                percentile(traced.latencies, 50) / one_connection - 1,
        })
        return Traced(layers=layers,
                      attempted=sum(phase.sent for phase in phases),
                      failed=failed)
