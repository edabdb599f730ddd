"""Host fingerprint, load guard, and process-tree accounting from /proc."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

from repro.sat import default_backend
from repro.sat.backend import BACKEND_ENV_VAR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Scratch files of a run (cache dirs, trace files); git-ignored.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

_TICK = os.sysconf("SC_CLK_TCK")


def seat_cap() -> int:
    """Seats and client threads never exceed ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


def backend_override() -> str | None:
    """The ``REPRO_SAT_BACKEND`` value, when it silently changes the backend."""
    value = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return value if value and value != "cdcl" else None


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int) -> dict:
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "sat_backend": default_backend(),
        "git_revision": git_revision(),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
        "seat_cap": seat_cap(),
    }


def child_env() -> dict:
    """Environment for subprocesses that must import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


# ----------------------------------------------------------------------
# Process tree
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            text = f.read()
    except OSError:
        return None
    # The command name may contain spaces and parentheses; fields
    # resume after the last ')'.  Index 0 of the result is field 3.
    return text[text.rfind(")") + 2 :].split()


def descendants(root: int | None = None) -> list[int]:
    """Live descendant pids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and fields[0] != "Z":
                parent_of[int(entry)] = int(fields[1])
    found: list[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def tree_cpu_seconds() -> float:
    """User+system CPU of this process, its live descendants, and every
    child any of them has already reaped."""
    # Own time from the fine-grained clock; /proc counts in 10 ms ticks.
    own = os.times()
    total = time.process_time() + own.children_user + own.children_system
    for pid in descendants():
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17.
            total += sum(int(fields[i]) for i in (11, 12, 13, 14)) / _TICK
    return total


def tree_peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and its live descendants."""
    total_kb = 0
    for pid in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
