"""The end-to-end benchmark's own code (see ../README.md).

Imports only ``repro.*`` and the standard library; nothing from the
sibling ``benchmarks/bench_*.py`` harnesses, so those stay free to
change.  ``run.py`` and ``compare.py`` one directory up are the
entry points.
"""
