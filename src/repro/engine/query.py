"""The declarative query the unified solver engine executes.

A :class:`StableQuery` captures *what* is asked — problem family,
length bound, ``k``, gap policy, diversification, memory budget —
without saying *how* to answer it.  Which solver runs and where its
node state lives is decided later, either explicitly by name or by the
cost-based planner (:mod:`repro.engine.planner`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.diversify import POLICIES

PROBLEMS = ("kl", "normalized")

FULL = None  # sentinel: l=None means "full paths" (l = m - 1)


@dataclass(frozen=True)
class StableQuery:
    """One top-k stable-cluster question, solver-agnostic.

    ``problem='kl'`` asks for the top-*k* paths of length exactly
    ``l`` by weight (Problem 1); ``l=None`` means *full* paths
    (``l = m - 1`` for an ``m``-interval graph, the only case the TA
    solver handles).  ``problem='normalized'`` asks for the top-*k*
    paths of length at least ``lmin`` by weight/length (Problem 2).

    ``memory_budget`` (bytes; ``None`` = unbounded) is advisory input
    to the planner: it does not change answers, only which solver and
    backend produce them.  ``workers`` is the same kind of advisory
    input for the parallel dimension of a batch run: ``None`` means
    serial, ``0`` means "all cores", a positive count requests that
    many — the planner clamps it to the number of intervals and the
    :class:`~repro.engine.planner.ExecutionPlan` reports the outcome.
    Like the budget, it never changes answers; a streaming run
    refuses it (:meth:`streaming_length`).  ``exact`` disables
    the normalized solver's Theorem-1 pruning (exponential;
    oracle/testing use only).
    """

    problem: str = "kl"
    l: Optional[int] = FULL  # the paper's symbol; None = full paths
    lmin: Optional[int] = None
    k: int = 10
    gap: int = 0
    diverse: bool = False
    diverse_policy: str = "prefix-suffix"
    diverse_pool_factor: int = 10
    memory_budget: Optional[int] = None
    workers: Optional[int] = None
    exact: bool = False

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise ValueError(
                f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.gap < 0:
            raise ValueError(f"gap must be >= 0, got {self.gap}")
        if self.l is not None and self.l < 1:
            raise ValueError(f"l must be >= 1 or None, got {self.l}")
        if self.lmin is not None and self.lmin < 1:
            raise ValueError(
                f"lmin must be >= 1 or None, got {self.lmin}")
        if self.problem == "normalized" and self.min_length is None:
            raise ValueError(
                "a normalized query needs lmin (or l) set")
        if self.diverse and self.problem != "kl":
            raise ValueError("diverse selection applies to problem='kl'")
        if self.diverse_policy not in POLICIES:
            raise ValueError(
                f"diverse_policy must be one of {POLICIES}, "
                f"got {self.diverse_policy!r}")
        if self.diverse_pool_factor < 1:
            raise ValueError(
                f"diverse_pool_factor must be >= 1, "
                f"got {self.diverse_pool_factor}")
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 bytes or None, "
                f"got {self.memory_budget}")
        if self.workers is not None and self.workers < 0:
            raise ValueError(
                f"workers must be >= 0 (0 = all cores) or None, "
                f"got {self.workers}")

    @property
    def min_length(self) -> Optional[int]:
        """The normalized problem's ``lmin`` (falls back to ``l``)."""
        return self.lmin if self.lmin is not None else self.l

    def length_for(self, num_intervals: int) -> int:
        """The concrete path-length bound for an *m*-interval graph.

        ``l`` (or ``lmin``) as given, or ``m - 1`` for full paths."""
        if self.problem == "normalized":
            length = self.min_length
        else:
            length = self.l
        return length if length is not None else num_intervals - 1

    def is_full_paths(self, num_intervals: int) -> bool:
        """True when the query asks for full paths.

        Full paths run first interval to last on an *m*-interval
        graph — the TA solver's domain."""
        return (self.problem == "kl"
                and self.length_for(num_intervals) == num_intervals - 1)

    @property
    def streaming_solver(self) -> str:
        """The incremental engine for this query's problem.

        Streaming has exactly one engine per problem (Section 4.6)."""
        return "normalized" if self.problem == "normalized" else "bfs"

    def streaming_length(self) -> int:
        """The concrete length bound a streaming maintainer needs.

        Raises when the query asks for full paths: ``l = m - 1``
        grows with the stream, so it cannot be maintained online.
        Raises too when it requests ``workers``: the stream runs
        serially, and a request it cannot honour is refused rather
        than ignored.
        """
        length = self.min_length if self.problem == "normalized" \
            else self.l
        if length is None:
            raise ValueError(
                "streaming needs a concrete length bound; full-path "
                "queries (l=None) grow with the stream")
        if self.workers is not None:
            raise ValueError(
                f"streaming runs serially; workers={self.workers} "
                f"applies to batch runs only")
        return length

    def with_k(self, k: int) -> "StableQuery":
        """A copy of this query asking for a different *k*.

        The diversification pool over-fetch uses this."""
        return dataclasses.replace(self, k=k)

    def describe(self) -> str:
        """Compact human-readable rendering for plans and logs."""
        if self.problem == "normalized":
            length = f"lmin={self.min_length}"
        elif self.l is None:
            length = "l=full"
        else:
            length = f"l={self.l}"
        parts = [f"problem={self.problem}", length, f"k={self.k}",
                 f"gap={self.gap}"]
        if self.diverse:
            parts.append(f"diverse={self.diverse_policy}")
        if self.memory_budget is not None:
            parts.append(f"budget={self.memory_budget}B")
        if self.workers is not None:
            parts.append("workers=auto" if self.workers == 0
                         else f"workers={self.workers}")
        return " ".join(parts)
