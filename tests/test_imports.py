"""What ``import repro`` loads: only what a run needs."""

from __future__ import annotations

import subprocess
import sys


def test_import_repro_does_not_load_multiprocessing_managers():
    # Clause exchange is relayed by the scheduler; no manager process
    # (and so no multiprocessing.managers import) is left behind it.
    code = "import sys, repro; print('multiprocessing.managers' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_net_server_does_not_load_asyncio():
    # The HTTP front end is the stdlib's threaded server; handlers call
    # the blocking service directly, with no event loop in between.
    code = "import sys, repro.net.server; print('asyncio' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
