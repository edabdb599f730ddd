"""Proofs that reuse no clauses run on their cones, built once and dropped.

Counters, never clocks: a spy on ``build_cone`` and the run's cone memo.
A ``clause_reuse=False`` run proves every property on a cone of its own
and leaves no :class:`~repro.multiprop.cones.Cone` behind; its verdicts
and debugging set are those of the clause-reusing run.
"""

from __future__ import annotations

import pytest

from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS
from repro.multiprop import cones as cones_module
from repro.multiprop import local as local_module
from repro.multiprop.ja import JAVerifier
from repro.session import Session, VerificationConfig
from repro.ts.system import TransitionSystem

SPECS = {**FAILING_SPECS, **ALL_TRUE_SPECS}
DESIGNS = ("f380", "t273")


@pytest.fixture
def cones_built(monkeypatch) -> list[str]:
    """The target of every cone built, in build order."""
    built: list[str] = []
    build = cones_module.build_cone

    def spy(ts, name, kept):
        built.append(name)
        return build(ts, name, kept)

    monkeypatch.setattr(cones_module, "build_cone", spy)
    monkeypatch.setattr(local_module, "build_cone", spy)
    return built


def verdicts(report) -> tuple[dict, list[str]]:
    return {n: o.status for n, o in report.outcomes.items()}, report.debugging_set()


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("local", [True, False], ids=["ja", "separate"])
def test_a_run_without_reuse_proves_each_property_on_a_dropped_cone(
    design, local, cones_built
):
    aig = SPECS[design].build()
    ts = TransitionSystem(aig)
    verifier = JAVerifier(ts, VerificationConfig(clause_reuse=False), local=local)
    report = verifier.run()

    assert sorted(cones_built) == sorted(p.name for p in ts.properties)
    memo = verifier.cones
    assert memo.counters["cones_built"] == 0
    assert not any(entry.cones for entry in memo._designs.values())
    reused = JAVerifier(TransitionSystem(aig), VerificationConfig(), local=local).run()
    assert verdicts(report) == verdicts(reused)


@pytest.mark.parametrize("design", DESIGNS)
def test_a_one_seat_pooled_run_without_reuse_agrees(design):
    aig = SPECS[design].build()
    pooled = Session(aig, strategy="parallel-ja", workers=1, clause_reuse=False).run()
    sequential = JAVerifier(TransitionSystem(aig), VerificationConfig(clause_reuse=False)).run()
    assert verdicts(pooled) == verdicts(sequential)
