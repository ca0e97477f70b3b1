#!/usr/bin/env python3
"""``compare.py BASE.json NEW.json``: gate one result on another.

Both files come from ``run.py --json``.  Prints one row per
(workload, end-to-end metric) with base, new, ratio and a verdict
(``ok`` / ``worse`` / ``unresolved``) against the bounds in
``BENCHMARK.json``; exits non-zero on any ``worse`` row or a higher
failed share.
"""

from __future__ import annotations

import argparse
import sys

from e2ebench.comparison import compare, load_runs
from e2ebench.harness import load_contract


def main() -> int:
    """Parse the command line, print the rows, and gate."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    rows, passed = compare(load_runs(args.base), load_runs(args.new),
                           load_contract())
    print("\n".join(rows))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
