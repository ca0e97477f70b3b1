"""Shared writer for the versioned ``BENCH_*.json`` artifacts.

Every benchmark harness with a ``--json PATH`` mode (simjoin, index
lifecycle, serving load) writes its headline figures through
:func:`write_bench_json`, so all the repo-root artifacts CI uploads
carry the same envelope::

    {
      "format": "repro-bench",
      "version": 1,
      "area": "serving",
      "results": { ...harness-specific figures... }
    }

Consumers (trajectory plots, regression diffing) key on ``format`` /
``version`` before reading ``results``; bumping ``BENCH_VERSION``
is the one place to declare a breaking envelope change.

A harness whose artifact keeps a before/after pair stores each run
as a named row under ``results["rows"]`` (``--row before`` with
``PYTHONPATH`` at the older checkout): :func:`load_bench_rows` hands
back the rows already on disk so a rerun replaces one and keeps the
others.

(The module name shadows CPython's private ``_json`` accelerator
when a benchmark runs standalone from this directory; the stdlib
``json`` package detects that and falls back to its pure-Python
scanner, which is fine at artifact-writing volume.)
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

BENCH_FORMAT = "repro-bench"
BENCH_VERSION = 1


def bench_envelope(area: str, results: Dict[str, Any]
                   ) -> Dict[str, Any]:
    """The envelope dict for one harness's *results* figures."""
    return {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "area": area,
        "results": results,
    }


def write_bench_json(path: str, area: str,
                     results: Dict[str, Any]) -> None:
    """Write *results* to *path* inside the versioned envelope."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bench_envelope(area, results), handle,
                  indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_rows(path: str) -> Dict[str, Any]:
    """The named rows the artifact at *path* already holds."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["results"].get("rows", {})
