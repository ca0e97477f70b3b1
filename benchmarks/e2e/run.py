#!/usr/bin/env python3
"""The repo's end-to-end benchmark (see README.md beside this file).

One workload, as the driver runs it (the last line of standard
output is the result object ``BENCHMARK.json`` describes)::

    python3 benchmarks/e2e/run.py --workload batch_corpus \\
        --seed 2007 --seconds 10 --trace 0

Every workload, each in its own child process (fresh interpreter, so
peak memory and the stemmer/LRU caches are per workload), printing
every metric by name with its unit::

    python3 benchmarks/e2e/run.py [--seed N] [--trace 1] [--smoke] \\
        [--repeat N] [--json OUT]

``--trace 1`` adds the traced run that yields the per-layer metrics
and ``.bench_e2e/trace-<workload>.json``.  Exits non-zero if any
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from e2ebench import harness

sys.path.insert(0, harness.SRC_DIR)

try:
    from e2ebench.batch_corpus import BatchCorpus  # noqa: E402
    from e2ebench.graph_solve import GraphSolve  # noqa: E402
    from e2ebench.serve_http import ServeHttp  # noqa: E402
    from e2ebench.stream_live import StreamLive  # noqa: E402
except ImportError as exc:
    # A checkout without src/ (or without BENCHMARK.json's paths)
    # cannot be measured; say so instead of printing a result.
    sys.exit(f"e2e benchmark: cannot import the program: {exc}")

WORKLOADS = {cls.name: cls for cls in
             (BatchCorpus, GraphSolve, StreamLive, ServeHttp)}
SMOKE_SECONDS = 1.0
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def describe(result: dict) -> str:
    """One run's metrics, a line each, with units and sample counts."""
    head = result["header"]
    lines = [f"== {head['workload']}  seed={head['seed']} "
             f"seconds={head['seconds']:g} scale={head['scale']} "
             f"trace={head['trace']} python={head['python_version']} "
             f"nproc={head['nproc']} =="]
    width = max(len(name) for name in result["metrics"])
    idle = 0
    for name, metric in result["metrics"].items():
        if head["trace"] and not metric["value"]:
            idle += 1  # a layer this workload does not exercise
            continue
        lines.append(f"  {name:<{width}}  {metric['value']:>14.6g} "
                     f"{metric['unit']}")
    if idle:
        lines.append(f"  ({idle} per-layer metrics are 0 here: their "
                     f"layers do no work on this workload)")
    if result["layer_shares"]:
        ranked = sorted(result["layer_shares"].items(),
                        key=lambda item: -item[1])
        lines.append("  self time by layer: " + " ".join(
            f"{layer}={share:.1%}" for layer, share in ranked))
    counts = " ".join(f"{k}={v}" for k, v in result["samples"].items())
    lines.append(f"  samples: {counts}")
    lines.append(f"  attempted={result['attempted']} "
                 f"failed={result['failed']} "
                 f"correct={result['correct']}")
    return "\n".join(lines)


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result."""
    result = harness.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), args.smoke)
    print(describe(result))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    print(json.dumps({key: result[key] for key in RESULT_KEYS}),
          flush=True)
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Run every workload, each in a child process of its own."""
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    scratch = os.path.join(harness.WORK_ROOT,
                           f"result-{os.getpid()}.json")
    runs = []
    status = 0
    for _ in range(args.repeat):
        for name in WORKLOADS:
            for trace in range(args.trace + 1):
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--json", scratch]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command,
                                      env=harness.child_env())
                status = status or done.returncode
                if os.path.exists(scratch):
                    with open(scratch, encoding="utf-8") as fh:
                        runs.append(json.load(fh))
                    os.remove(scratch)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs}, fh, indent=1)
            fh.write("\n")
    return status


def main() -> int:
    """Parse the command line and run."""
    harness.assert_c_json()
    contract = harness.load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one second per run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: runs per workload")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the result(s) to this file")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke \
            else float(contract["run_seconds"])
    declared = [w["name"] for w in contract["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        sys.exit(f"BENCHMARK.json declares {declared}, the harness "
                 f"has {sorted(WORKLOADS)}")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
