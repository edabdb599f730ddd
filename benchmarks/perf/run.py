"""Entry point: ``python3 benchmarks/perf/run.py --workload W --seed S
--seconds N --trace 0|1``.

Only puts the repository root and ``src/`` on ``sys.path`` and hands
over to :mod:`benchmarks.perf.runner`; the clock is read first so that
set-up time includes every import.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def bootstrap() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"benchmarks/perf: no program to measure ({src}/repro is missing)", file=sys.stderr)
        raise SystemExit(2)
    # As a script, this directory leads sys.path and its trace.py would
    # shadow the standard library's.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != here]
    sys.path[:0] = [root, src]


if __name__ == "__main__":
    bootstrap()
    from benchmarks.perf.runner import main

    raise SystemExit(main(sys.argv[1:], t0=T0))
