"""The run certifier: one consecution solver per assumption set, and a
clause proved inductive is not queried again.

A driver run keeps one :class:`~repro.engines.certify.Certifier`.  Its
verdicts must be exactly those of a fresh one-shot ``certify_invariant``
on every certificate ``ja`` and ``separate`` produce on the 16 families,
and on mutants of each (a clause dropped, a reset-value unit clause
added, a literal flipped), checked in run order so that every earlier
proof is already recorded when a later one is judged.  The same runs pin
the IC3 search: per property, status, frames, ``sat_queries``, CEX depth
and invariant hash to the values recorded before the certifier existed
(when every proof opened two fresh solvers), so sharing the certifier's
solver cannot have changed a single IC3 query.
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
