"""Unified solver engine: query spec, planner, pluggable execution.

The paper offers several solvers for one problem family; which wins
depends on graph shape and memory budget (its Section 4 analysis and
Section 5 experiments).  This package is the seam that turns those
implementations into one system, following the planner-over-physical-
layout split of disk-based search engines:

* :class:`~repro.engine.query.StableQuery` — the declarative query
  (problem, length bound, k, gap, diversification, memory budget);
* :mod:`~repro.engine.solvers` — the solver registry: ``bfs``,
  ``dfs``, ``ta``, ``normalized`` and ``bruteforce`` behind one
  :class:`~repro.engine.solvers.Solver` interface with unified
  :class:`~repro.core.solver_stats.SolverStats` counters;
* :mod:`~repro.engine.planner` — cost-based planning from the paper's
  memory analysis, emitting an
  :class:`~repro.engine.planner.ExecutionPlan` with ``explain()``;
* :func:`~repro.engine.engine.solve` — the one entry point the
  pipeline, CLI, streaming front end and benchmarks all use, with
  storage backends from :mod:`repro.storage` plugged in per plan.
"""

from repro.core.solver_stats import SolverStats
from repro.engine.engine import (
    AUTO,
    SolveReport,
    explain,
    solve,
    solve_report,
)
from repro.engine.planner import (
    ExecutionPlan,
    GraphStats,
    apply_serving_dimension,
    apply_worker_dimension,
    estimate_annotation_bytes,
    estimate_ta_probes,
    estimate_window_bytes,
    plan,
    plan_streaming,
    split_serving_budget,
)
from repro.engine.query import PROBLEMS, StableQuery
from repro.engine.solvers import (
    BFSSolver,
    BruteforceSolver,
    DFSSolver,
    NormalizedSolver,
    Solver,
    TASolver,
    get_solver,
    register,
    solver_names,
)

__all__ = [
    "AUTO",
    "BFSSolver",
    "BruteforceSolver",
    "DFSSolver",
    "ExecutionPlan",
    "GraphStats",
    "NormalizedSolver",
    "PROBLEMS",
    "SolveReport",
    "Solver",
    "SolverStats",
    "StableQuery",
    "TASolver",
    "apply_serving_dimension",
    "apply_worker_dimension",
    "estimate_annotation_bytes",
    "estimate_ta_probes",
    "estimate_window_bytes",
    "explain",
    "get_solver",
    "plan",
    "plan_streaming",
    "register",
    "solve",
    "solve_report",
    "solver_names",
    "split_serving_budget",
]
