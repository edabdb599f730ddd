"""``python -m benchmarks.perf`` from the repository root."""

import sys

from . import run

run.bootstrap()

from .runner import main  # noqa: E402

raise SystemExit(main(sys.argv[1:], t0=run.T0))
