"""The run certifier: one consecution solver per assumption set, and a
clause proved inductive is not queried again.  One run per family and
strategy pins IC3's search.

A driver run keeps one :class:`~repro.engines.certify.Certifier`.  Its
verdicts must be exactly those of a fresh one-shot ``certify_invariant``
on every certificate ``ja`` and ``separate`` produce on the 16 families,
and on mutants of each (a clause dropped, a reset-value unit clause
added, a literal flipped), checked in run order so that every earlier
proof is already recorded when a later one is judged.

The same runs — one per (family, strategy), shared by every test here —
pin the IC3 search twice over:

* ``IDENTITY``: per property, status, frames, ``sat_queries``, CEX depth
  and invariant hash, recorded before the certifier existed (when every
  proof opened two fresh solvers), so sharing the certifier's solver
  cannot have changed a single IC3 query;
* ``PINNED``: per property, (status, frames, ``sat_queries``), recorded
  on whole-design frames, before IC3's solvers loaded frames projected
  onto their target's cone (``TransitionSystem.encode_cone``).  A
  projection must change no answer: a step slice that drops a
  next-state function a query needs fails here — the query raises
  ``OutOfSliceError`` or, with a missing definition, answers
  differently and moves a frame or query count.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.engines.certify import Certifier, certify_invariant
from repro.gen import all_true_designs, failing_designs
from repro.multiprop.ja import JAVerifier
from repro.sat import Solver, register_backend, unregister_backend
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

FAMILIES = {**failing_designs(), **all_true_designs()}

#: "<family>-<strategy>" -> sha256 prefix of the sorted JSON of
#: {property: [status, frames, sat_queries, cex_depth, invariant]},
#: recorded on the `cdcl` backend before the run certifier existed.
IDENTITY = {
    "f104-ja": "f9c66156418a3e6b", "f104-separate": "d3e20353fa523111",
    "f175-ja": "7fdcdb8e59aa0758", "f175-separate": "4f7a869ac98dedaa",
    "f207-ja": "f6f12556d22f861b", "f207-separate": "ec282052bc1cec96",
    "f254-ja": "f7f2357c01e6cf5d", "f254-separate": "2aa9ed6166b59093",
    "f258-ja": "1314535201783461", "f258-separate": "9f3466d3a25f4657",
    "f260-ja": "fd88f68792241968", "f260-separate": "e1e3167b1d75d1d7",
    "f335-ja": "5ca390ef6aa93a3c", "f335-separate": "eeec5f755d168b4a",
    "f380-ja": "9388ddb9ff498757", "f380-separate": "d44ef32843d4ba4b",
    "t124-ja": "be970ce1999fb098", "t124-separate": "19b548114a0048a6",
    "t135-ja": "d123fee842a1728d", "t135-separate": "9ffa3161b429aae4",
    "t139-ja": "cf7c81b734442a96", "t139-separate": "3e9baf14def36c66",
    "t256-ja": "85fb671a1c745675", "t256-separate": "85fb671a1c745675",
    "t273-ja": "6c6f4dcb2960f40a", "t273-separate": "6ac118851c733a35",
    "t275-ja": "811a4a10413d516a", "t275-separate": "59778cd78f0583c5",
    "t407-ja": "6589a6976e288712", "t407-separate": "9517900d0e2cf29a",
    "tbob-ja": "560751c8d31d9319", "tbob-separate": "2643a7a49bc8e55d",
}


#: (design, strategy) -> property -> (status, frames, sat_queries), on the
#: `cdcl` backend at the default knobs.
PINNED = {
    ('f104', 'ja'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'r0_X0': ('HOLDS', 2, 6), 'r0_X1': ('HOLDS', 3, 12), 'r0_X2': ('HOLDS', 4, 19),
        'r0_X3': ('HOLDS', 4, 19), 'r0_X4': ('HOLDS', 3, 11), 'r1_X0': ('HOLDS', 2, 6),
        'r1_X1': ('HOLDS', 3, 12), 'r1_X2': ('HOLDS', 4, 19), 'r1_X3': ('HOLDS', 4, 19),
        'r1_X4': ('HOLDS', 3, 11), 's0_D0': ('HOLDS', 2, 5), 's0_D1': ('HOLDS', 2, 2),
        's0_D2': ('HOLDS', 2, 2), 's0_G': ('FAILS', 3, 8), 's0_T': ('HOLDS', 2, 5), 'z_Z0':
        ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5),
    },
    ('f104', 'separate'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'r0_X0': ('HOLDS', 7, 83), 'r0_X1': ('HOLDS', 2, 2), 'r0_X2': ('HOLDS', 2, 2),
        'r0_X3': ('HOLDS', 2, 2), 'r0_X4': ('HOLDS', 2, 2), 'r1_X0': ('HOLDS', 7, 83),
        'r1_X1': ('HOLDS', 2, 2), 'r1_X2': ('HOLDS', 2, 2), 'r1_X3': ('HOLDS', 2, 2),
        'r1_X4': ('HOLDS', 2, 2), 's0_D0': ('FAILS', 15, 150), 's0_D1': ('FAILS', 153,
        3226), 's0_D2': ('FAILS', 223, 5150), 's0_G': ('FAILS', 3, 8), 's0_T': ('HOLDS', 4,
        19), 'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5),
    },
    ('f380', 'ja'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'c0_C6': ('HOLDS', 2, 5), 'c0_C7': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 2, 6),
        'r0_X1': ('HOLDS', 3, 12), 'r0_X2': ('HOLDS', 4, 19), 'r0_X3': ('HOLDS', 4, 19),
        'r0_X4': ('HOLDS', 3, 11), 's0_D0': ('HOLDS', 2, 5), 's0_D1': ('HOLDS', 2, 5),
        's0_D10': ('HOLDS', 2, 2), 's0_D11': ('HOLDS', 2, 2), 's0_D12': ('HOLDS', 2, 2),
        's0_D13': ('HOLDS', 2, 2), 's0_D2': ('HOLDS', 2, 2), 's0_D3': ('HOLDS', 2, 5),
        's0_D4': ('HOLDS', 2, 2), 's0_D5': ('HOLDS', 2, 2), 's0_D6': ('HOLDS', 2, 2),
        's0_D7': ('HOLDS', 2, 5), 's0_D8': ('HOLDS', 2, 2), 's0_D9': ('HOLDS', 2, 2),
        's0_G': ('FAILS', 2, 3), 's0_T': ('HOLDS', 2, 5), 's1_D0': ('HOLDS', 2, 5), 's1_D1':
        ('HOLDS', 2, 2), 's1_D10': ('HOLDS', 2, 2), 's1_D11': ('HOLDS', 2, 2), 's1_D12':
        ('HOLDS', 2, 2), 's1_D13': ('HOLDS', 2, 2), 's1_D2': ('HOLDS', 2, 2), 's1_D3':
        ('HOLDS', 2, 2), 's1_D4': ('HOLDS', 2, 2), 's1_D5': ('HOLDS', 2, 2), 's1_D6':
        ('HOLDS', 2, 2), 's1_D7': ('HOLDS', 2, 2), 's1_D8': ('HOLDS', 2, 2), 's1_D9':
        ('HOLDS', 2, 5), 's1_G': ('FAILS', 3, 8), 's1_T': ('HOLDS', 2, 5), 's2_D0':
        ('HOLDS', 2, 5), 's2_D1': ('HOLDS', 2, 2), 's2_D10': ('HOLDS', 2, 2), 's2_D11':
        ('HOLDS', 2, 2), 's2_D12': ('HOLDS', 2, 2), 's2_D2': ('HOLDS', 2, 2), 's2_D3':
        ('HOLDS', 2, 2), 's2_D4': ('HOLDS', 2, 2), 's2_D5': ('HOLDS', 2, 2), 's2_D6':
        ('HOLDS', 2, 2), 's2_D7': ('HOLDS', 2, 2), 's2_D8': ('HOLDS', 2, 2), 's2_D9':
        ('HOLDS', 2, 5), 's2_G': ('FAILS', 4, 12), 's2_T': ('HOLDS', 2, 5), 'z_Z0':
        ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2': ('HOLDS', 2, 5), 'z_Z3': ('HOLDS',
        2, 5),
    },
    ('f380', 'separate'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'c0_C6': ('HOLDS', 2, 5), 'c0_C7': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 7, 83),
        'r0_X1': ('HOLDS', 2, 2), 'r0_X2': ('HOLDS', 2, 2), 'r0_X3': ('HOLDS', 2, 2),
        'r0_X4': ('HOLDS', 2, 2), 's0_D0': ('FAILS', 6, 33), 's0_D1': ('FAILS', 10, 97),
        's0_D10': ('FAILS', 122, 3594), 's0_D11': ('FAILS', 162, 3775), 's0_D12': ('FAILS',
        202, 4381), 's0_D13': ('FAILS', 242, 7287), 's0_D2': ('FAILS', 14, 141), 's0_D3':
        ('FAILS', 18, 287), 's0_D4': ('FAILS', 22, 171), 's0_D5': ('FAILS', 26, 390),
        's0_D6': ('FAILS', 30, 414), 's0_D7': ('FAILS', 34, 774), 's0_D8': ('FAILS', 38,
        632), 's0_D9': ('FAILS', 82, 1045), 's0_G': ('FAILS', 2, 3), 's0_T': ('HOLDS', 4,
        19), 's1_D0': ('FAILS', 9, 45), 's1_D1': ('FAILS', 14, 62), 's1_D10': ('FAILS', 133,
        3684), 's1_D11': ('FAILS', 173, 4157), 's1_D12': ('FAILS', 213, 3826), 's1_D13':
        ('FAILS', 253, 8014), 's1_D2': ('FAILS', 16, 155), 's1_D3': ('FAILS', 20, 239),
        's1_D4': ('FAILS', 25, 194), 's1_D5': ('FAILS', 28, 269), 's1_D6': ('FAILS', 32,
        480), 's1_D7': ('FAILS', 36, 654), 's1_D8': ('FAILS', 40, 708), 's1_D9': ('FAILS',
        94, 1482), 's1_G': ('FAILS', 3, 8), 's1_T': ('HOLDS', 4, 19), 's2_D0': ('FAILS', 10,
        89), 's2_D1': ('FAILS', 16, 103), 's2_D10': ('FAILS', 144, 3117), 's2_D11':
        ('FAILS', 186, 2891), 's2_D12': ('FAILS', 224, 5221), 's2_D2': ('FAILS', 18, 256),
        's2_D3': ('FAILS', 22, 309), 's2_D4': ('FAILS', 28, 290), 's2_D5': ('FAILS', 30,
        403), 's2_D6': ('FAILS', 34, 639), 's2_D7': ('FAILS', 38, 673), 's2_D8': ('FAILS',
        42, 849), 's2_D9': ('FAILS', 104, 2047), 's2_G': ('FAILS', 4, 12), 's2_T': ('HOLDS',
        4, 19), 'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2': ('HOLDS', 2, 5),
        'z_Z3': ('HOLDS', 2, 5),
    },
    ('t135', 'ja'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 2, 6), 'r0_X1': ('HOLDS', 3, 12),
        'r0_X2': ('HOLDS', 4, 19), 'r0_X3': ('HOLDS', 4, 19), 'r0_X4': ('HOLDS', 3, 11),
        'r1_X0': ('HOLDS', 2, 6), 'r1_X1': ('HOLDS', 3, 12), 'r1_X2': ('HOLDS', 4, 19),
        'r1_X3': ('HOLDS', 3, 11), 'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2':
        ('HOLDS', 2, 5), 'z_Z3': ('HOLDS', 2, 5), 'z_Z4': ('HOLDS', 2, 5), 'z_Z5': ('HOLDS',
        2, 5), 'z_Z6': ('HOLDS', 2, 5), 'z_Z7': ('HOLDS', 2, 5),
    },
    ('t135', 'separate'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 7, 83), 'r0_X1': ('HOLDS', 2, 2),
        'r0_X2': ('HOLDS', 2, 2), 'r0_X3': ('HOLDS', 2, 2), 'r0_X4': ('HOLDS', 2, 2),
        'r1_X0': ('HOLDS', 5, 49), 'r1_X1': ('HOLDS', 2, 2), 'r1_X2': ('HOLDS', 2, 2),
        'r1_X3': ('HOLDS', 2, 2), 'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2':
        ('HOLDS', 2, 5), 'z_Z3': ('HOLDS', 2, 5), 'z_Z4': ('HOLDS', 2, 5), 'z_Z5': ('HOLDS',
        2, 5), 'z_Z6': ('HOLDS', 2, 5), 'z_Z7': ('HOLDS', 2, 5),
    },
    ('t407', 'ja'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'c0_C6': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 2, 6), 'r0_X1': ('HOLDS', 3, 12),
        'r0_X2': ('HOLDS', 4, 19), 'r0_X3': ('HOLDS', 4, 19), 'r0_X4': ('HOLDS', 3, 11),
        'v0_S0': ('HOLDS', 10, 381), 'v0_S1': ('HOLDS', 2, 5), 'v0_S10': ('HOLDS', 2, 5),
        'v0_S11': ('HOLDS', 2, 5), 'v0_S2': ('HOLDS', 2, 5), 'v0_S3': ('HOLDS', 2, 5),
        'v0_S4': ('HOLDS', 2, 5), 'v0_S5': ('HOLDS', 2, 5), 'v0_S6': ('HOLDS', 2, 5),
        'v0_S7': ('HOLDS', 2, 5), 'v0_S8': ('HOLDS', 2, 5), 'v0_S9': ('HOLDS', 2, 5),
        'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2': ('HOLDS', 2, 5), 'z_Z3':
        ('HOLDS', 2, 5),
    },
    ('t407', 'separate'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'c0_C6': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 7, 83), 'r0_X1': ('HOLDS', 2, 2),
        'r0_X2': ('HOLDS', 2, 2), 'r0_X3': ('HOLDS', 2, 2), 'r0_X4': ('HOLDS', 2, 2),
        'v0_S0': ('HOLDS', 10, 381), 'v0_S1': ('HOLDS', 2, 5), 'v0_S10': ('HOLDS', 2, 5),
        'v0_S11': ('HOLDS', 2, 5), 'v0_S2': ('HOLDS', 2, 5), 'v0_S3': ('HOLDS', 2, 5),
        'v0_S4': ('HOLDS', 2, 5), 'v0_S5': ('HOLDS', 2, 5), 'v0_S6': ('HOLDS', 2, 5),
        'v0_S7': ('HOLDS', 2, 5), 'v0_S8': ('HOLDS', 2, 5), 'v0_S9': ('HOLDS', 2, 5),
        'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2': ('HOLDS', 2, 5), 'z_Z3':
        ('HOLDS', 2, 5),
    },
}

@cache
def _run(family: str, strategy: str):
    ts = TransitionSystem(FAMILIES[family])
    verifier = JAVerifier(
        ts,
        VerificationConfig(solver_backend="cdcl", design_name=family),
        local=strategy == "ja",
    )
    report = verifier.run()
    return ts, verifier.results, report.outcomes


def _identity(results, outcomes) -> str:
    rows = {
        prop: [
            result.status.name,
            result.frames,
            result.stats["sat_queries"],
            outcomes[prop].cex_depth,
            None if result.invariant is None else [list(c) for c in result.invariant],
        ]
        for prop, result in sorted(results.items())
    }
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def _mutants(ts: TransitionSystem, invariant: list, index: int):
    """(kind, clauses) for the three mutants of one certificate."""
    if invariant:
        at = index % len(invariant)
        yield "drop", invariant[:at] + invariant[at + 1 :]
        # Flip a literal the initial states still satisfy, if any, so
        # the mutant gets past the syntactic I ⊆ F check.
        clause = invariant[at]
        flips = [clause[:i] + (-clause[i],) + clause[i + 1 :] for i in range(len(clause))]
        flipped = next((c for c in flips if ts.clause_holds_at_init(c)), flips[0])
        yield "flip", invariant[:at] + [flipped] + invariant[at + 1 :]
    mentioned = {abs(lit) for clause in invariant for lit in clause}
    resets = [lit for lit in ts.init_pattern if lit is not None and abs(lit) not in mentioned]
    if resets:
        yield "add", [*invariant, (resets[index % len(resets)],)]


ROWS = [(family, strategy) for family in sorted(FAMILIES) for strategy in ("ja", "separate")]


@pytest.mark.parametrize("family,strategy", ROWS)
def test_the_ic3_search_is_unchanged(family, strategy):
    _, results, outcomes = _run(family, strategy)
    assert _identity(results, outcomes) == IDENTITY[f"{family}-{strategy}"]


@pytest.mark.parametrize("family,strategy", sorted(PINNED))
def test_results_match_the_whole_design_frames(family, strategy):
    _, results, _ = _run(family, strategy)
    assert {
        name: (result.status.name, result.frames, result.stats["sat_queries"])
        for name, result in results.items()
    } == PINNED[family, strategy]


@pytest.mark.parametrize("family,strategy", ROWS)
def test_the_run_certifier_agrees_with_one_shot_certification(family, strategy):
    ts, results, _ = _run(family, strategy)
    run = Certifier(ts, "cdcl")
    verdicts = {"certificate": 0, "rejected": 0}
    for index, result in enumerate(results.values()):
        if result.invariant is None:
            continue
        name, assumed = result.prop_name, result.assumed
        invariant = [tuple(c) for c in result.invariant]
        for kind, clauses in _mutants(ts, invariant, index):
            one_shot = certify_invariant(ts, name, clauses, assumed, "cdcl").valid
            assert run.certify(name, clauses, assumed).valid == one_shot, (name, kind)
            verdicts["rejected"] += not one_shot
        assert run.certify(name, invariant, assumed).valid
        assert certify_invariant(ts, name, invariant, assumed, "cdcl").valid
        verdicts["certificate"] += 1
    assert verdicts["certificate"] > 0


class _Probe(Solver):
    """``cdcl`` that remembers every instance."""

    instances: list = []

    def __init__(self) -> None:
        super().__init__()
        _Probe.instances.append(self)


@pytest.fixture
def probe():
    _Probe.instances = []
    register_backend("certifier-probe", replace=True)(_Probe)
    yield "certifier-probe"
    unregister_backend("certifier-probe")
    _Probe.instances = []


def _chain() -> TransitionSystem:
    """``a' = b``, ``b' = b``, both reset to 0, property ``¬a``.

    ``{¬a, ¬b}`` is inductive; ``¬a`` alone is not (from ``a=0, b=1``
    the next state has ``a=1``), though it implies the property.
    """
    aig = AIG()
    a = aig.add_latch("a", init=0)
    b = aig.add_latch("b", init=0)
    aig.set_next(a, b)
    aig.set_next(b, b)
    aig.add_property("p", aig_not(a))
    return TransitionSystem(aig)


class TestProofReuse:
    def test_a_clause_proved_under_a_hypothesis_is_requeried_without_it(self):
        ts = _chain()
        run = Certifier(ts)
        assert run.certify("p", [(-1,), (-2,)]).valid
        # (-1,) was proved relative to {¬a, ¬b}; the new F does not
        # contain that hypothesis, so (-1,) is queried again and fails.
        report = run.certify("p", [(-1,)])
        assert not report.valid
        assert "(-1,) is not inductive" in report.reason
        assert not certify_invariant(ts, "p", [(-1,)]).valid

    def test_a_superset_of_a_proved_invariant_queries_only_its_new_clauses(self, probe):
        ts = _chain()
        run = Certifier(ts, probe)
        assert run.certify("p", [(-1,), (-2,)]).valid
        [bad, step] = _Probe.instances
        assert step.stats()["solves"] == 1
        # The same invariant again: F ⊆ P is re-checked on a fresh
        # solver, consecution is not queried at all.
        assert run.certify("p", [(-2,), (-1,)]).valid
        assert len(_Probe.instances) == 3
        assert step.stats()["solves"] == 1
        # One new clause: one more consecution query, on the same solver.
        assert run.certify("p", [(-1,), (-2,), (-1, -2)]).valid
        assert len(_Probe.instances) == 4
        assert step.stats()["solves"] == 2
        assert bad.stats()["solves"] == 1

    @pytest.mark.parametrize("strategy", ["ja", "separate"])
    def test_a_run_shares_one_consecution_solver(self, probe, strategy):
        # Two ETH properties and an ETF one: under ja each target's set
        # is different, but extended by the target (when it is ETH) all
        # three are the ETH properties; under separate all are empty.
        aig = AIG()
        a = aig.add_latch("a", init=0)
        b = aig.add_latch("b", init=0)
        c = aig.add_latch("c", init=0)
        aig.set_next(a, b)
        aig.set_next(b, b)
        aig.set_next(c, c)
        aig.add_property("p", aig_not(a))
        aig.add_property("q", aig_not(c))
        aig.add_property("r", aig_not(b), expected_to_fail=True)
        ts = TransitionSystem(aig)
        verifier = JAVerifier(ts, local=strategy == "ja")
        verifier.run()
        certificates = [r for r in verifier.results.values() if r.invariant is not None]
        assert len(certificates) == 3
        assert len({tuple(r.assumed) for r in certificates}) == (3 if strategy == "ja" else 1)
        run = Certifier(ts, probe)
        for result in certificates:
            assert run.certify(result.prop_name, result.invariant, result.assumed).valid
        # One F ⊆ P solver per certificate, one consecution solver in all.
        assert len(_Probe.instances) == len(certificates) + 1


class TestLiteralRange:
    @pytest.mark.parametrize("lit", [0, 3, -3, 30])
    def test_a_literal_naming_no_latch_is_rejected_before_any_sat_work(self, probe, lit):
        ts = _chain()
        report = Certifier(ts, probe).certify("p", [(-1,), (lit,)])
        assert not report.valid
        assert f"names latch {abs(lit)}" in report.reason
        assert _Probe.instances == []
