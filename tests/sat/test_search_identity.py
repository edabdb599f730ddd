"""Search identity: the solver's search is pinned, count for count.

The pins below were recorded at 61750bd, before ``Solver``'s hot paths
(``_propagate``, the decision heap, ``_search``) were rewritten for
speed, and are compared with ``==``: a solver change that alters one
decision, propagation, conflict, learnt clause, model or core says so
here.  Re-record (``PYTHONPATH=src:. python tests/sat/test_search_identity.py``
prints both tables) only in a PR whose stated purpose is to change the search.

(a) seeded random 3-CNF scripts on one solver each: plain and assumed
solves, clauses added between them, ``new_activation``/``retire``
cycles; one script is big enough to restart, to reduce the learnt
database (``CompactSolver``'s low cap) and to rescale activities.
(b) the drivers: ``joint`` on f175 and ``ja`` without clause reuse on
t256, per-property frames and queries plus the counters of every
solver they opened, summed.

Two driver counters were re-recorded, downward, when IC3's solvers began
loading per-target projections of the design's step template
(``TransitionSystem.encode_cone``): ``clauses_added`` (joint-f175 1394
-> 887, ja-noreuse-t256 438 -> 368), because the dropped Tseitin
definitions are never loaded, and ``propagations`` (4784 -> 2859, 823 ->
698), because nothing assigns their variables any more.  Every latch
and input keeps its place in the variable order and no dropped variable
can take part in a conflict, so decisions, conflicts, learnt clauses,
solves and every per-property row stayed equal.

Both driver rows were re-recorded again when certification moved onto
one ``engines.certify.Certifier`` per run: ``ja`` certifies every proof
of the run on one consecution solver (F added under an activation
literal, then retired; clauses already proved inductive not queried),
and ``joint``'s one-shot check now also retires its activation literal.
The summed counters include the certifier's solvers, so they moved
(ja-noreuse-t256: 20 -> 17 solvers, 368 -> 282 clauses added, 698 ->
665 propagations; joint-f175: one more retirement, 718 -> 717
decisions); every per-property row, which is IC3's own search, did not.

The ja-noreuse-t256 row was re-recorded once more when proofs that reuse
no clauses began running on their cones of influence: each proof is
certified on a fresh certifier over its cone, so the run opens one
consecution solver per property instead of one (17 -> 20 solvers), and
the cones' smaller encodings cost fewer decisions (270 -> 202),
propagations (665 -> 541), added clauses (282 -> 261) and recycled
activation literals (33 -> 30).  Conflicts, learnt clauses, solves,
retirements and every per-property row stayed equal.
"""

from __future__ import annotations

import random

import pytest

from repro.gen import all_true_designs, failing_designs
from repro.multiprop.ja import JAVerifier
from repro.multiprop.joint import joint_verify
from repro.sat import CompactSolver, Solver, Status, register_backend, unregister_backend
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem
from tests.conftest import three_cnf


def run_script(factory, seed: int, num_vars: int, ratio: float, rounds: int) -> dict:
    """One incremental script; returns its transcript and final counters.

    Each round adds a slice of the formula, then solves plain, under
    three random assumptions, and under an activation literal guarding a
    few extra clauses, which is then retired.  A SAT answer is recorded
    as the model's bits (bit ``v`` set: variable ``v`` true), an UNSAT
    answer as its sorted core.
    """
    rng = random.Random(seed)
    solver = factory()
    clauses = three_cnf(rng, num_vars, int(num_vars * ratio))
    per_round = -(-len(clauses) // rounds)
    transcript: list = []

    def solve(assumptions=()) -> None:
        status = solver.solve(assumptions)
        if status == Status.SAT:
            bits = sum(1 << lit for lit in solver.model() if lit > 0)
            transcript.append(("SAT", f"{bits:x}"))
        else:
            transcript.append((status.name, sorted(solver.core())))

    for start in range(0, len(clauses), per_round):
        for clause in clauses[start : start + per_round]:
            solver.add_clause(clause)
        solve()
        solve([rng.choice([-1, 1]) * v for v in rng.sample(range(1, num_vars + 1), 3)])
        act = solver.new_activation()
        for clause in three_cnf(rng, num_vars, 4):
            solver.add_clause([-act] + clause)
        solve([act, rng.choice([-1, 1]) * rng.randint(1, num_vars)])
        solver.retire(act)
        solve()
    return {"transcript": transcript, "stats": solver.stats()}


#: name -> (factory, seed, num_vars, clause/variable ratio, rounds)
SCRIPTS = {
    "sat-30": (Solver, 11, 30, 3.6, 3),
    "sat-45": (Solver, 12, 45, 3.9, 4),
    "mixed-40": (Solver, 13, 40, 4.4, 4),
    "mixed-50": (Solver, 14, 50, 4.3, 5),
    "unsat-35": (Solver, 15, 35, 5.2, 3),
    "unsat-60": (Solver, 16, 60, 4.8, 4),
    "compact-50": (CompactSolver, 17, 50, 4.3, 4),
    # Restarts, _reduce_db (CompactSolver's cap) and an activity rescale.
    "compact-big": (CompactSolver, 21, 170, 4.3, 3),
}


class _Probe(Solver):
    """``cdcl`` that remembers every instance, to sum their counters."""

    instances: list = []

    def __init__(self) -> None:
        super().__init__()
        _Probe.instances.append(self)


@pytest.fixture
def probe_backend():
    _Probe.instances = []
    register_backend("identity-probe", replace=True)(_Probe)
    yield "identity-probe"
    unregister_backend("identity-probe")
    _Probe.instances = []


def summed_counters() -> dict:
    total: dict = {}
    for solver in _Probe.instances:
        for key, value in solver.stats().items():
            total[key] = total.get(key, 0) + value
    return total


def run_joint(backend: str) -> dict:
    ts = TransitionSystem(failing_designs()["f175"])
    report = joint_verify(
        ts, VerificationConfig(solver_backend=backend, design_name="f175")
    )
    return {
        "properties": {
            name: (o.status.name, o.frames, o.cex_depth)
            for name, o in report.outcomes.items()
        },
        "solvers": len(_Probe.instances),
        "counters": summed_counters(),
    }


def run_ja(backend: str) -> dict:
    ts = TransitionSystem(all_true_designs()["t256"])
    verifier = JAVerifier(
        ts,
        VerificationConfig(solver_backend=backend, design_name="t256", clause_reuse=False),
    )
    verifier.run()
    return {
        "properties": {
            name: (r.status.name, r.frames, r.stats["sat_queries"])
            for name, r in verifier.results.items()
        },
        "solvers": len(_Probe.instances),
        "counters": summed_counters(),
    }


#: Recorded at 61750bd on the builtin backends (see the module docstring).
PINNED_SCRIPTS = {
    'sat-30': {
        'transcript': [('SAT', '40c20280'), ('SAT', '40820a04'), ('SAT', 'c0820a04'), ('SAT',
        'c0820a04'), ('SAT', 'c5c68a04'), ('SAT', 'e1e24a04'), ('SAT', 'e1e24a04'), ('SAT',
        'e1e24a04'), ('SAT', '9d653234'), ('SAT', '9d653234'), ('SAT', 'ec66c094'), ('SAT',
        'ec66c094')],
        'stats': {'conflicts': 15, 'decisions': 228, 'propagations': 511, 'restarts': 0, 'learned':
        15, 'removed': 0, 'minimized_lits': 5, 'clauses_added': 120, 'solves': 12,
        'activations_retired': 3, 'activations_recycled': 2},
    },
    'sat-45': {
        'transcript': [('SAT', '0'), ('SAT', '10020000000'), ('SAT', '410020000000'), ('SAT',
        '410020000000'), ('SAT', '698c26804000'), ('SAT', '698ca6884000'), ('SAT', '6984a4884000'),
        ('SAT', '6984a4884000'), ('SAT', '619da35cc100'), ('SAT', '4b99b2dbc840'), ('SAT',
        '6501e96c4858'), ('SAT', '6501e96c4858'), ('SAT', '5d1249f88eda'), ('UNSAT', [9, 33, 35]),
        ('UNSAT', [6, 46]), ('SAT', '4910e97c8a8a')],
        'stats': {'conflicts': 48, 'decisions': 429, 'propagations': 1197, 'restarts': 0, 'learned':
        46, 'removed': 0, 'minimized_lits': 23, 'clauses_added': 191, 'solves': 16,
        'activations_retired': 4, 'activations_recycled': 3},
    },
    'mixed-40': {
        'transcript': [('SAT', '94b0000000'), ('SAT', '94f0000008'), ('SAT', '294f0000108'), ('SAT',
        '294f0000108'), ('SAT', '20630109a08'), ('SAT', '206305c8a48'), ('SAT', '206b0d02848'),
        ('SAT', '206b0d02848'), ('SAT', '206ba10085c'), ('SAT', '2ab5e5920ae'), ('SAT',
        '2ab5e5920ae'), ('SAT', '2ab5e5920ae'), ('UNSAT', []), ('UNSAT', []), ('UNSAT', []),
        ('UNSAT', [])],
        'stats': {'conflicts': 47, 'decisions': 301, 'propagations': 1079, 'restarts': 0, 'learned':
        46, 'removed': 0, 'minimized_lits': 23, 'clauses_added': 188, 'solves': 16,
        'activations_retired': 4, 'activations_recycled': 3},
    },
    'mixed-50': {
        'transcript': [('SAT', '4002006800000'), ('SAT', '7002016800000'), ('SAT', 'f002816800800'),
        ('SAT', 'f002816800800'), ('SAT', 'f402816800800'), ('SAT', 'c402816800800'), ('SAT',
        'c402016800800'), ('SAT', 'c402016800800'), ('SAT', 'f403856a80800'), ('SAT',
        'e4238f2a20a00'), ('SAT', 'e4338f2a20a00'), ('SAT', 'e4338f2a20a00'), ('SAT',
        'e4338f2020a00'), ('SAT', 'e4338f2020a00'), ('SAT', 'e4338f2020a00'), ('SAT',
        'e4338f2020a00'), ('SAT', 'f661c47ba8880'), ('UNSAT', [-47, -11, 10]), ('SAT',
        'f445c86aa9010'), ('SAT', 'f445c86aa9010')],
        'stats': {'conflicts': 52, 'decisions': 602, 'propagations': 1744, 'restarts': 0, 'learned':
        51, 'removed': 0, 'minimized_lits': 42, 'clauses_added': 235, 'solves': 20,
        'activations_retired': 5, 'activations_recycled': 4},
    },
    'unsat-35': {
        'transcript': [('SAT', '6c2580000'), ('SAT', '6c25c0000'), ('SAT', '16c25c0880'), ('SAT',
        '16c25c0880'), ('SAT', '10c69f700c'), ('SAT', '10c69f700c'), ('SAT', '19d6d75104'), ('SAT',
        '19d6d75104'), ('UNSAT', []), ('UNSAT', []), ('UNSAT', []), ('UNSAT', [])],
        'stats': {'conflicts': 40, 'decisions': 212, 'propagations': 747, 'restarts': 0, 'learned':
        39, 'removed': 0, 'minimized_lits': 12, 'clauses_added': 190, 'solves': 12,
        'activations_retired': 3, 'activations_recycled': 2},
    },
    'unsat-60': {
        'transcript': [('SAT', '48500590050000'), ('SAT', '148500590050000'), ('SAT',
        '2148500d90050000'), ('SAT', '2148500d90050000'), ('SAT', '20ced28f90852000'), ('SAT',
        '28ee518ba0846050'), ('SAT', '28ee518ba0846050'), ('SAT', '28ee518ba0846050'), ('SAT',
        '2a8b5ff883fd8454'), ('SAT', '3fef565be2ebb6e2'), ('SAT', '2f67565be6e1a662'), ('SAT',
        '2f67565be6e1a662'), ('UNSAT', []), ('UNSAT', []), ('UNSAT', []), ('UNSAT', [])],
        'stats': {'conflicts': 100, 'decisions': 501, 'propagations': 2403, 'restarts': 0,
        'learned': 99, 'removed': 0, 'minimized_lits': 82, 'clauses_added': 300, 'solves': 16,
        'activations_retired': 4, 'activations_recycled': 3},
    },
    'compact-50': {
        'transcript': [('SAT', '2021204000000'), ('SAT', '2021204000800'), ('SAT', 'a021204000800'),
        ('SAT', 'a021204000800'), ('SAT', 'a947119258800'), ('SAT', 'a95711925c800'), ('SAT',
        'a95711165c000'), ('SAT', 'a95711165c000'), ('SAT', 'a575a33b75660'), ('SAT',
        'c83524d32bea2'), ('SAT', 'c83564d32bca2'), ('SAT', 'c83564d32bca2'), ('UNSAT', []),
        ('UNSAT', []), ('UNSAT', []), ('UNSAT', [])],
        'stats': {'conflicts': 73, 'decisions': 418, 'propagations': 1726, 'restarts': 1, 'learned':
        72, 'removed': 0, 'minimized_lits': 69, 'clauses_added': 227, 'solves': 16,
        'activations_retired': 4, 'activations_recycled': 3},
    },
    'compact-big': {
        'transcript': [('SAT', '5070301090842174a1045004080000002000000000'), ('SAT',
        '1507030109184217c25145004080800002000000000'), ('SAT',
        '9507030109184217425045004080800002000000000'), ('SAT',
        '9507030109184217425045004080800002000000000'), ('SAT',
        'b7ad4a9109142b3756524aa9e8d861a19e06c800000'), ('SAT',
        'f32d4ab1491429075e520aa16c58e1a1be06c090000'), ('SAT',
        'f32d4ab1491429075e520aa16c58e1e1be06c090000'), ('SAT',
        'f32d4ab1491429075e520aa16c58e1e1be06c090000'), ('SAT',
        'e7cd65b4ed7239177ed0858d7c9765aadf0e053d6b0'), ('UNSAT', [-134, -46, 80]), ('SAT',
        'e7cd65b4ed7279177ed08d8d7c9761abdf0e05bd6b0'), ('SAT',
        'e7cd65b4ed7279177ed08d8d7c9761abdf0e05bd6b0')],
        'stats': {'conflicts': 8816, 'decisions': 11617, 'propagations': 313106, 'restarts': 62,
        'learned': 8815, 'removed': 7787, 'minimized_lits': 24347, 'clauses_added': 743, 'solves':
        12, 'activations_retired': 3, 'activations_recycled': 2},
    },
}
PINNED_DRIVERS = {
    'joint-f175': {
        'properties': {'s0_G': ('FAILS', 2, 2), 's1_G': ('FAILS', 3, 3), 's0_T': ('HOLDS', 4, None),
        's1_T': ('HOLDS', 4, None), 'c0_C0': ('HOLDS', 4, None)},
        'solvers': 11,
        'counters': {'conflicts': 18, 'decisions': 717, 'propagations': 2858, 'restarts': 0,
        'learned': 11, 'removed': 0, 'minimized_lits': 2, 'clauses_added': 887, 'solves': 69,
        'activations_retired': 44, 'activations_recycled': 40},
    },
    'ja-noreuse-t256': {
        'properties': {'c0_C0': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 3, 19), 'c0_C8': ('HOLDS', 3,
        19), 'z_Z0': ('HOLDS', 2, 5)},
        'solvers': 20,
        'counters': {'conflicts': 4, 'decisions': 202, 'propagations': 541, 'restarts': 0,
        'learned': 0, 'removed': 0, 'minimized_lits': 0, 'clauses_added': 261, 'solves': 56,
        'activations_retired': 36, 'activations_recycled': 30},
    },
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_replays_the_pinned_search(name):
    assert run_script(*SCRIPTS[name]) == PINNED_SCRIPTS[name]


def test_the_big_script_exercises_restart_reduce_and_rescale():
    stats = PINNED_SCRIPTS["compact-big"]["stats"]
    assert stats["restarts"] > 0 and stats["removed"] > 0
    # _var_inc grows by 1/VAR_DECAY per conflict from 1.0: past 1e100
    # an activity rescale has happened.
    assert stats["conflicts"] > 4490


@pytest.mark.parametrize("driver", ["joint-f175", "ja-noreuse-t256"])
def test_driver_replays_the_pinned_search(driver, probe_backend):
    run = run_joint if driver == "joint-f175" else run_ja
    assert run(probe_backend) == PINNED_DRIVERS[driver]


if __name__ == "__main__":  # pragma: no cover - re-recording aid
    import textwrap

    def show(name: str, pins: dict) -> None:
        print(f"{name} = {{")
        for key, pin in pins.items():
            print(f"    {key!r}: {{")
            for field, value in pin.items():
                text = textwrap.fill(f"{field!r}: {value!r},", width=92, break_long_words=False)
                print(textwrap.indent(text, " " * 8))
            print("    },")
        print("}")

    show("PINNED_SCRIPTS", {name: run_script(*spec) for name, spec in SCRIPTS.items()})
    register_backend("identity-probe", replace=True)(_Probe)
    drivers = {}
    for key, run in (("joint-f175", run_joint), ("ja-noreuse-t256", run_ja)):
        _Probe.instances = []
        drivers[key] = run("identity-probe")
    show("PINNED_DRIVERS", drivers)
