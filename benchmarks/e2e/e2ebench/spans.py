"""In-memory spans around calls into a layer, and the sums over them.

The traced run wraps each call into a ``repro`` layer in
``tracer.span("layer.stage", op=...)``.  Spans nest through a
per-thread stack, stay in memory while the workload runs, and are
written to ``trace-<workload>.json`` when it ends.  A span's *self
time* is its duration minus its child spans', so the self times of
one operation add up to the operation's duration.

(Not named ``trace.py``: run as a script, this directory is
``sys.path[0]`` and would shadow the standard library's ``trace`` —
the mistake ``benchmarks/_json.py`` makes with ``_json``.)
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import time
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
)

ROOT = "op"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of unsorted *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_us(seconds: Sequence[float]) -> float:
    """Median of *seconds*, in microseconds (0 for no samples)."""
    return 1e6 * percentile(seconds, 50) if seconds else 0.0


def spanned(tracer: Optional["Tracer"], name: str,
            op: Optional[int] = None):
    """``tracer.span(name)``, or nothing when tracing is off."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, op=op)


def wrapped(tracer: Optional["Tracer"], owner: Any, attribute: str,
            name: str):
    """``tracer.wrapped(...)``, or nothing when tracing is off."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.wrapped(owner, attribute, name)


class Tracer:
    """Records spans as ``[name, parent, op, start, end]`` rows."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None
             ) -> Iterator[int]:
        """Time a block as a child of the enclosing span.

        ``op`` is the per-operation id (interval number, query
        index, request number); a child inherits its parent's."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent][2]
        index = len(self.spans)
        row = [name, parent, op, time.perf_counter(), None]
        self.spans.append(row)
        stack.append(index)
        try:
            yield index
        finally:
            row[4] = time.perf_counter()
            stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """A finished child of the current span, *seconds* long.

        For time gathered in pieces — an iterator the callee pulls
        from — where one span per piece would cost more than the
        pieces do."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        start = self.spans[parent][3] if parent is not None \
            else time.perf_counter()
        op = self.spans[parent][2] if parent is not None else None
        self.spans.append([name, parent, op, start, start + seconds])

    def timed_iter(self, name: str, iterable) -> Iterator[Any]:
        """Yield from *iterable*, adding the time spent inside it
        (not in the consumer) as one *name* child span at the end."""
        spent = 0.0
        iterator = iter(iterable)
        while True:
            started = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                spent += time.perf_counter() - started
                break
            spent += time.perf_counter() - started
            yield item
        self.add(name, spent)

    @contextlib.contextmanager
    def wrapped(self, owner: Any, attribute: str, name: str,
                on_call: Optional[Callable[..., None]] = None
                ) -> Iterator[None]:
        """Route ``owner.attribute(...)`` through a *name* span.

        This is how a public callable that the program calls from
        its own code (a solver's ``solve``, the writer's
        ``append_interval``) gets a span without editing ``src/``.
        ``on_call(args, result)`` sees each call, for counts made at
        the same boundary."""
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
            return result

        had_own = attribute in getattr(owner, "__dict__", {})
        setattr(owner, attribute, traced)
        try:
            yield
        finally:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------
    # Sums
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus children).

        Only spans inside a root (operation) span count: the sums
        then add up to the operations' durations.  Spans recorded
        outside one are read through :meth:`durations`."""
        child_time: Dict[int, float] = defaultdict(float)
        in_root: List[bool] = []
        for name, parent, _, start, end in self.spans:
            if parent is None:
                in_root.append(name == ROOT)
            else:
                in_root.append(in_root[parent])
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, _, _, start, end) in enumerate(self.spans):
            if in_root[index]:
                totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def stage_seconds(self, ops: int) -> Dict[str, float]:
        """``<span name>_s``: self seconds per operation, by name."""
        return {f"{name}_s": seconds / ops
                for name, seconds in self.self_times().items()
                if name != ROOT}

    def durations(self, name: str) -> List[float]:
        """Every *name* span's duration, in recording order."""
        return [end - start for span_name, _, _, start, end
                in self.spans if span_name == name]

    def coverage(self) -> float:
        """Share of the root spans' time that child spans cover."""
        total = sum(self.durations(ROOT))
        if total <= 0:
            return 0.0
        return 1.0 - self.self_times().get(ROOT, 0.0) / total

    def layer_shares(self) -> Dict[str, float]:
        """Layer (the span name up to its first dot) -> its share of
        all operation time; what no child span covers is the root's
        own share."""
        by_layer: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            by_layer[name.split(".")[0]] += seconds
        total = sum(by_layer.values())
        return {layer: seconds / total
                for layer, seconds in by_layer.items()} if total else {}

    def dump(self, path: str) -> None:
        """Write every span to *path* as JSON."""
        rows = [{"id": index, "name": name, "parent": parent,
                 "op": op, "start": start, "end": end}
                for index, (name, parent, op, start, end)
                in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter_s", "spans": rows}, fh)
            fh.write("\n")
