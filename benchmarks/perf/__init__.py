"""End-to-end and per-layer benchmark of the JA-verification stack.

Run ``python3 benchmarks/perf/run.py --help`` (or ``python -m
benchmarks.perf`` from the repository root); see ``README.md`` here.
"""
