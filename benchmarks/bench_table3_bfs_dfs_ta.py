"""Table 3: BFS vs DFS vs TA, top-5 full paths, growing m.

Paper (n=400, g=0, d=5; seconds):

    m      3      6      9      12     15
    BFS    0.65   2.09   4.49   7.95   12.49
    DFS    60.3   368.8  754.8  805.94 792.05
    TA     0.35   11.11  133.89 > 10 hours

Scaled to n=100, d=3 and m in {3, 6, 9} (pure Python); the DFS runs
against a real on-disk node store, which is the paper's configuration
(annotations on disk, page cache disabled).  Shapes reproduced and
asserted:

* BFS is roughly linear in m;
* DFS costs far more I/O (one random read per child consideration);
* TA is competitive at m=3 and explodes by m=9 (its probe count is
  exponential in m).

Runs under pytest alongside the paper benchmarks, and standalone for
the solver layer's perf trajectory — ``--json PATH`` times the same
nine cells through :func:`repro.engine.solve_report` (best of
``ROUNDS``) and stores them as one named row of the repo-root
``BENCH_solvers.json`` that ``make bench-json`` versions; rows
already in the file under other names are kept, so a row measured on
an earlier commit (``--row before``, ``PYTHONPATH`` pointing at that
checkout's ``src``) stays beside the current one::

    PYTHONPATH=src python benchmarks/bench_table3_bfs_dfs_ta.py \\
        --json BENCH_solvers.json
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Optional

import pytest

from repro.datagen import synthetic_cluster_graph
from repro.engine import StableQuery, get_solver, solve_report
from repro.storage import DiskDict

MS = [3, 6, 9]
N, D, G, K = 100, 3, 0, 5
ROUNDS = 3

_TIMES = {}


def _graph(m):
    return synthetic_cluster_graph(m=m, n=N, d=D, g=G, seed=303)


def _query():
    return StableQuery(problem="kl", l=None, k=K, gap=G)


@pytest.mark.parametrize("m", MS)
def test_table3_bfs(benchmark, series, engine_solve, m):
    graph = _graph(m)
    report = benchmark(
        lambda: engine_solve("bfs", graph, _query()))
    assert len(report.paths) == K
    _TIMES[("BFS", m)] = benchmark.stats["mean"]
    series("Table 3 (top-5 full paths, seconds)",
           f"BFS m={m}", benchmark.stats["mean"])


@pytest.mark.parametrize("m", MS)
def test_table3_dfs_disk(benchmark, series, engine_solve, tmp_path, m):
    graph = _graph(m)
    stats = get_solver("dfs").new_stats()

    def run():
        with DiskDict(str(tmp_path / f"dfs-{m}.bin")) as store:
            return engine_solve("dfs", graph, _query(),
                                backend=store, stats=stats)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(report.paths) == K
    _TIMES[("DFS", m)] = benchmark.stats["mean"]
    series("Table 3 (top-5 full paths, seconds)",
           f"DFS m={m} (disk store, {stats.node_reads} random reads)",
           benchmark.stats["mean"])


@pytest.mark.parametrize("m", MS)
def test_table3_ta(benchmark, series, engine_solve, m):
    graph = _graph(m)
    stats = get_solver("ta").new_stats()
    report = benchmark.pedantic(
        lambda: engine_solve("ta", graph, _query(), stats=stats),
        rounds=1, iterations=1)
    assert len(report.paths) == K
    _TIMES[("TA", m)] = benchmark.stats["mean"]
    series("Table 3 (top-5 full paths, seconds)",
           f"TA  m={m} ({stats.random_probes} random probes)",
           benchmark.stats["mean"])


def test_table3_shapes(series, shape):
    """The paper's qualitative claims, asserted on the measurements."""
    if len(_TIMES) < 9:
        pytest.skip("run the full module to check shapes")

    def check():
        # BFS beats DFS-on-disk at every m (paper: by 1-2 orders).
        for m in MS:
            assert _TIMES[("BFS", m)] < _TIMES[("DFS", m)]
        # TA explodes with m: by m=9 it is far slower than BFS
        # (paper: 133.89s vs 4.49s; > 10 hours by m=12).
        assert _TIMES[("TA", 9)] > 5 * _TIMES[("BFS", 9)]
        # TA's exponential growth dwarfs BFS's linear growth.
        ta_growth = _TIMES[("TA", 9)] / max(_TIMES[("TA", 3)], 1e-9)
        bfs_growth = _TIMES[("BFS", 9)] / max(_TIMES[("BFS", 3)], 1e-9)
        assert ta_growth > bfs_growth
        series("Table 3 (top-5 full paths, seconds)",
               f"shape: TA grew {ta_growth:.0f}x vs BFS "
               f"{bfs_growth:.0f}x from m=3 to m=9", "")

    shape(check)


def measure_cell(name: str, m: int) -> Dict[str, float]:
    """One Table-3 cell outside pytest: best-of-``ROUNDS`` seconds and
    the run's summed SolverStats counters (DFS on a fresh on-disk
    node store every round, as in the table)."""
    graph = _graph(m)
    best = float("inf")
    for _ in range(ROUNDS):
        stats = get_solver(name).new_stats()
        with tempfile.TemporaryDirectory() as tmp:
            started = time.perf_counter()
            if name == "dfs":
                with DiskDict(os.path.join(tmp, "dfs.bin")) as store:
                    report = solve_report(graph, _query(), solver=name,
                                          backend=store, stats=stats)
            else:
                report = solve_report(graph, _query(), solver=name,
                                      stats=stats)
            best = min(best, time.perf_counter() - started)
        assert len(report.paths) == K
    return {"seconds": round(best, 4),
            "work": sum(stats.counters().values())}


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone JSON mode for the perf trajectory (no pytest)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH",
                        help="store this run as a row of PATH (the "
                             "BENCH_solvers.json artifact)")
    parser.add_argument("--row", default="after",
                        help="name of the row this run is stored "
                             "under (default: after)")
    args = parser.parse_args(argv)
    row = {name: {str(m): measure_cell(name, m) for m in MS}
           for name in ("bfs", "dfs", "ta")}
    for name, cells in row.items():
        print(f"{name:<4}" + "".join(
            f"  m={m}: {cell['seconds']:.4f}s"
            for m, cell in cells.items()))
    if args.json:
        from _json import load_bench_rows, write_bench_json
        rows = load_bench_rows(args.json)
        rows[args.row] = row
        write_bench_json(args.json, "solvers", {
            "workload": {"n": N, "d": D, "g": G, "k": K, "m": MS,
                         "length": "full", "rounds": ROUNDS,
                         "dfs_store": "DiskDict"},
            "rows": rows,
        })
        print(f"wrote {args.json} (row {args.row!r})")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
