"""Compare two benchmark results against ``BENCHMARK.json``'s bounds.

A result file is what ``run.py --json OUT`` writes: one run's object
(``--workload``) or ``{"runs": [...]}`` (every workload, possibly
``--repeat``-ed).  Each (workload, end-to-end metric) pair gets one
row: the two medians, their ratio, and a verdict —

``ok``          new is no worse than base by more than the bound;
``worse``       it is;
``unresolved``  either side's own spread (inter-quartile distance
                over median) is wider than the bound, so the runs
                cannot tell.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

Values = Dict[Tuple[str, str], List[float]]


def load_runs(path: str) -> List[Dict[str, Any]]:
    """The untraced runs of a result file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    runs = data["runs"] if "runs" in data else [data]
    return [run for run in runs if not run["header"]["trace"]]


def collect(runs: Sequence[Dict[str, Any]]
            ) -> Tuple[Values, Dict[str, float]]:
    """(workload, metric) -> values, and workload -> failed share."""
    values: Values = defaultdict(list)
    attempted: Dict[str, int] = defaultdict(int)
    failed: Dict[str, int] = defaultdict(int)
    for run in runs:
        workload = run["header"]["workload"]
        attempted[workload] += run["attempted"]
        failed[workload] += run["failed"]
        for name, metric in run["metrics"].items():
            values[(workload, name)].append(metric["value"])
    shares = {workload: failed[workload] / max(1, attempted[workload])
              for workload in attempted}
    return values, shares


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base: Sequence[float], new: Sequence[float],
            better: str, bound: float) -> Tuple[float, float, str]:
    """``(base median, new median, verdict)`` for one metric."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    if max(spread(base), spread(new)) > bound:
        return base_median, new_median, "unresolved"
    change = (new_median - base_median) / base_median
    if better == "higher":
        change = -change
    return (base_median, new_median,
            "worse" if change > bound else "ok")


def compare(base_runs: Sequence[Dict[str, Any]],
            new_runs: Sequence[Dict[str, Any]],
            contract: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report rows, and whether the comparison passes."""
    base, base_failed = collect(base_runs)
    new, new_failed = collect(new_runs)
    rows = [f"{'workload':<14}{'metric':<14}{'base':>12}{'new':>12}"
            f"{'new/base':>10}  verdict"]
    passed = True
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            base_median, new_median, outcome = verdict(
                base[key], new[key], metric["better"],
                metric["bound"])
            passed &= outcome != "worse"
            rows.append(
                f"{workload:<14}{metric['name']:<14}"
                f"{base_median:>12.5g}{new_median:>12.5g}"
                f"{new_median / base_median:>10.3f}  {outcome}")
        if workload in base_failed and workload in new_failed:
            before, after = base_failed[workload], new_failed[workload]
            outcome = "worse" if after > before else "ok"
            passed &= outcome == "ok"
            rows.append(f"{workload:<14}{'failed_share':<14}"
                        f"{before:>12.5g}{after:>12.5g}{'':>10}  "
                        f"{outcome}")
    return rows, passed
