"""What the four workloads share: the contract, guards, and the loop
that turns one workload into one result line."""

from __future__ import annotations

import json
import json.encoder
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from e2ebench.spans import Tracer, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT_DIR = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC_DIR = os.path.join(ROOT_DIR, "src")
WORK_ROOT = os.path.join(ROOT_DIR, ".bench_e2e")
CONTRACT_FILE = os.path.join(ROOT_DIR, "BENCHMARK.json")

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 3


def assert_c_json() -> None:
    """Refuse to measure with the pure-Python JSON encoder.

    A ``_json.py`` ahead of CPython's accelerator on ``sys.path``
    (``benchmarks/_json.py`` is one, for any script started from
    ``benchmarks/``) silently makes ``json.dumps`` five times
    slower, which is the serving tier's hot path."""
    if json.encoder.c_make_encoder is None:
        raise SystemExit(
            "e2e benchmark: json's C accelerator is shadowed "
            "(a _json.py is on sys.path); refusing to measure")


def child_env() -> Dict[str, str]:
    """Environment for every process the harness starts.

    ``PYTHONPATH`` is ``src`` and nothing else, so no sibling
    benchmark module can shadow a standard-library one there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["TMPDIR"] = WORK_ROOT
    return env


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the declared workloads and metrics."""
    with open(CONTRACT_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """This process's high-water resident set, in MB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def directory_bytes(path: str) -> int:
    """Total size of the regular files under *path*."""
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def hit_rate(hits: int, misses: int) -> float:
    """Hits over lookups (0 when there were none)."""
    return hits / max(1, hits + misses)


def timed_refine(service, keyword: str, interval: int
                 ) -> Tuple[float, bool]:
    """Time one ``service.refine``; ``(seconds, served from the
    hot-answer cache)``.  The counters are read outside the timing."""
    hits = service.stats()["refiner_hits"]
    started = time.perf_counter()
    service.refine(keyword, interval)
    seconds = time.perf_counter() - started
    return seconds, service.stats()["refiner_hits"] > hits


@dataclass
class Measured:
    """What an untraced run of one workload observed."""

    op_seconds: List[float]
    items: int
    wall_seconds: float
    attempted: int
    failed: int
    rss_mb: Optional[float] = None
    notes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Traced:
    """What a traced run observed: per-layer values and the checks."""

    layers: Dict[str, float]
    attempted: int
    failed: int


class Workload:
    """One workload: repeatable set-up, a timed loop, a traced loop.

    ``setup`` must leave the workload ready to measure and may be
    called again after ``teardown``; ``measure`` and ``trace`` run
    for about *seconds* and check the program's outputs outside
    their timed regions."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def path(self, *parts: str) -> str:
        """A path inside this run's scratch directory."""
        return os.path.join(self.workdir, *parts)

    def setup(self) -> None:
        """Generate inputs and bring the program to a ready state."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` made (processes, open indexes)."""

    def measure(self, seconds: float) -> Measured:
        """The untraced run the end-to-end metrics come from."""
        raise NotImplementedError

    def trace(self, seconds: float, tracer: Tracer) -> Traced:
        """The traced run the per-layer metrics come from."""
        raise NotImplementedError


def end_to_end(measured: Measured, setup_s: float
               ) -> Dict[str, float]:
    """The end-to-end metric values of one untraced run."""
    ops_ms = [1000.0 * s for s in measured.op_seconds]
    rss = measured.rss_mb if measured.rss_mb is not None \
        else peak_rss_mb()
    return {
        "setup_s": setup_s,
        "op_p50_ms": percentile(ops_ms, 50),
        "op_p90_ms": percentile(ops_ms, 90),
        "items_per_s": measured.items / measured.wall_seconds,
        "peak_rss_mb": rss,
    }


def run_workload(cls, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    """Set up, run, check and tear down one workload.

    Returns the contract's result object plus a ``header`` and
    ``samples`` for human readers; ``run.py`` prints the contract's
    four keys as the last line."""
    assert_c_json()
    contract = load_contract()
    declared = contract["per_layer"] if trace \
        else contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workdir = os.path.join(WORK_ROOT, f"{cls.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.environ["TMPDIR"] = WORK_ROOT
    workload = cls(seed, smoke, workdir)
    samples: Dict[str, int] = {}
    shares: Dict[str, float] = {}
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        if trace:
            tracer = Tracer()
            traced = workload.trace(seconds, tracer)
            tracer.dump(os.path.join(
                WORK_ROOT, f"trace-{cls.name}.json"))
            values = {name: 0.0 for name in units}
            values.update(traced.layers)
            attempted, failed = traced.attempted, traced.failed
            samples["spans"] = len(tracer.spans)
            shares = tracer.layer_shares()
        else:
            measured = workload.measure(seconds)
            values = end_to_end(measured,
                                statistics.median(setup_times))
            attempted, failed = measured.attempted, measured.failed
            samples["ops"] = len(measured.op_seconds)
            samples.update(measured.notes)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"{cls.name}: undeclared metrics {unknown}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name],
                           "unit": units[name]}
                    for name in units},
        "samples": samples,
        "layer_shares": shares,
        "header": {
            "workload": cls.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "scale": "smoke" if smoke else "full",
            "python_version": sys.version.split()[0],
            "nproc": os.cpu_count(),
        },
    }
