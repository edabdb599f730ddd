"""The local proof is defined once: ground truth, call sites, seat parity."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.gen import all_true_designs, failing_designs
from repro.gen.random_designs import random_design
from repro.multiprop.ja import JAVerifier
from repro.multiprop.parallel import measure_local_proofs
from repro.parallel.worker import PropertyJob, WorkerSettings, _ActiveRun, _execute
from repro.session import VerificationConfig
from repro.ts import ProjectedReachability
from repro.ts.system import TransitionSystem


@pytest.mark.parametrize("seed", range(50))
def test_table_x_measurement_agrees_with_explicit_state(seed):
    # The measurement once had its own copy of the proof without the
    # spurious-counterexample ladder and called locally-true properties
    # false (seeds 0, 4, 22, 33, 35, 36, 43).
    ts = TransitionSystem(random_design(seed))
    measured = measure_local_proofs(ts)
    failing = {name for name, status in measured.statuses.items() if status == "fails"}
    assert failing == set(ProjectedReachability(ts).debugging_set())
    assert set(measured.statuses.values()) <= {"holds", "fails"}


def test_ic3_is_called_from_the_local_proof_and_the_joint_aggregate_only():
    src = Path(repro.__file__).parent
    callers = {
        path.relative_to(src).as_posix()
        for package in ("multiprop", "parallel", "session", "service")
        for path in (src / package).rglob("*.py")
        if re.search(r"\b(ic3_check|IC3Options)\(", path.read_text())
    }
    assert callers == {"multiprop/local.py", "multiprop/joint.py"}


class _Outbox(list):
    put = list.append


@pytest.mark.parametrize("name", ["f175", "t256"])
def test_a_seat_and_the_sequential_loop_prove_alike(name):
    aig = {**failing_designs(), **all_true_designs()}[name]
    sequential = JAVerifier(TransitionSystem(aig), VerificationConfig(design_name=name)).run()

    ts = TransitionSystem(aig)
    run = _ActiveRun(run_id=1, ts=ts, settings=WorkerSettings(), exchange=None)
    outbox = _Outbox()
    stop_marks = [0]  # never set: no job is stopped
    for seq, prop in enumerate(ts.properties, start=1):
        _execute(0, run, PropertyJob(name=prop.name), seq, stop_marks, outbox)
    seated = {m[3].name: m[3] for m in outbox if m[0] == "result"}

    assert not [m for m in outbox if m[0] == "error"]
    assert list(seated) == list(sequential.outcomes)
    for prop, expected in sequential.outcomes.items():
        got = seated[prop]
        assert (got.status, got.frames, got.assumed, got.reruns, got.invariant) == (
            expected.status,
            expected.frames,
            expected.assumed,
            expected.reruns,
            expected.invariant,
        )
    # The seat streams the same per-property events the loop emits.
    kinds = [m[3].kind for m in outbox if m[0] == "event"]
    assert kinds.count("property-started") == kinds.count("property-solved") == len(seated)
