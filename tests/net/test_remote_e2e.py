"""End to end over real process boundaries: ``repro serve --listen``.

The acceptance path of the remote subsystem: the server runs as a
separate OS process (spawned exactly as a user would, through the CLI),
the client side lives here.  Covered: submit → stream → result with
verdict parity against an in-process ``Session.run()``, mid-run
cancellation, kill-and-resume event streams, the ``/stats`` invariants,
and graceful SIGTERM shutdown with exit code 0.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.circuit.aiger import parse_aag, write_aag
from repro.net import ServiceClient
from repro.progress import JobFinished
from repro.session import Session
from repro.ts.system import TransitionSystem

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn_server(*extra: str) -> tuple[subprocess.Popen, str]:
    """A ``repro serve --listen`` child; returns it plus its address."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--listen",
            "127.0.0.1:0",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    line = proc.stdout.readline()
    match = re.match(r"listening on (\S+):(\d+)", line)
    assert match, f"no listening banner, got {line!r}"
    return proc, f"{match.group(1)}:{match.group(2)}"


def _stop_server(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0, out
    return out


def toggler_text() -> str:
    aig = AIG()
    q = aig.add_latch("q", init=0)
    aig.set_next(q, aig_not(q))
    r = aig.add_latch("r", init=0)
    aig.set_next(r, r)
    aig.add_property("never_r", aig_not(r))
    aig.add_property("never_q", aig_not(q))
    return write_aag(aig)


def many_props_text(count: int = 80) -> str:
    """``count`` stuck-at-zero latches, one (true) property each.

    Every proof is quick, but there are many of them — a running job
    stays cancellable mid-run for a comfortably long window.
    """
    aig = AIG()
    for index in range(count):
        latch = aig.add_latch(f"s{index}", init=0)
        aig.set_next(latch, latch)
        aig.add_property(f"never_s{index}", aig_not(latch))
    return write_aag(aig)


def verdicts(report):
    return {name: o.status.value for name, o in report.outcomes.items()}


@pytest.fixture(scope="module")
def remote_server():
    proc, address = _spawn_server("--workers", "2", "--max-concurrent-jobs", "2")
    try:
        yield ServiceClient(address)
    finally:
        if proc.poll() is None:
            out = _stop_server(proc)
            assert "drained" in out


def test_submit_stream_result_matches_in_process(remote_server):
    client = remote_server
    text = toggler_text()
    expected = verdicts(
        Session(TransitionSystem(parse_aag(text)), strategy="ja").run()
    )
    job = client.submit(design_text=text, strategy="ja", design_name="toggler")
    events = list(job.events())
    assert isinstance(events[-1], JobFinished)
    report = job.result(timeout=120)
    assert verdicts(report) == expected
    assert report.debugging_set() == ["never_q"]
    # The stream's verdict view agrees with the report's.
    streamed = {
        e.name: e.status.value for e in events if e.kind == "property-solved"
    }
    assert streamed == expected


def test_cancel_mid_run_reports_partial_verdicts(remote_server):
    client = remote_server
    job = client.submit(
        design_text=many_props_text(),
        strategy="parallel-ja",
        design_name="many",
    )
    cancelled = False
    for event in job.events():
        if event.kind == "property-solved" and not cancelled:
            cancelled = job.cancel()
            assert cancelled, "job finished before the cancel reached it"
        if isinstance(event, JobFinished):
            assert event.status == "cancelled"
    report = job.result(timeout=120)
    assert job.status()["status"] == "cancelled"
    solved = [o for o in report.outcomes.values() if o.status.value == "holds"]
    unsolved = report.unsolved()
    assert solved, "cancel must not lose verdicts already computed"
    assert unsolved, "a mid-run cancel must leave unfinished properties"
    assert len(solved) + len(unsolved) == 80


def test_killed_stream_resumes_without_drop_or_duplicate(remote_server):
    client = remote_server
    job = client.submit(design_text=toggler_text(), strategy="ja")
    job.result(timeout=120)
    full = list(job._stream_once(0))
    ids = [seq for seq, _ in full]
    assert ids == list(range(1, len(full) + 1))
    # Kill a live stream after three events; resume from its cursor.
    fresh = client.job(job.job_id)
    stream = fresh.events()
    head = [next(stream) for _ in range(3)]
    stream.close()  # the "killed" connection
    assert fresh.cursor == 3
    tail = list(client.job(job.job_id)._stream_once(fresh.cursor))
    assert [seq for seq, _ in tail] == ids[3:]
    assert len(head) + len(tail) == len(full)
    assert full[3:] == tail


def test_stats_invariants_over_the_wire(remote_server):
    client = remote_server
    job = client.submit(design_text=toggler_text(), strategy="parallel-ja")
    job.result(timeout=120)
    stats = client.stats()
    assert stats["pending"] == 0
    assert stats["submitted"] >= 1
    assert stats["jobs"]["finished"] >= 1
    pool = stats.get("pool")
    assert pool is not None, "a pooled job must have attached the pool"
    assert pool["workers"] == 2
    assert 0 <= pool["busy"] <= pool["workers"]
    assert all(seat["crashes"] == 0 for seat in pool["seats"])


def test_sigterm_drains_and_exits_zero():
    proc, address = _spawn_server("--workers", "1", "--drain-grace", "5")
    client = ServiceClient(address)
    job = client.submit(design_text=toggler_text(), strategy="ja")
    job.result(timeout=120)
    out = _stop_server(proc)
    assert "drained; all jobs settled" in out
    assert "Traceback" not in out
