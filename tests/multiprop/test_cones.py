"""The cone memo: one cone per (design, target, kept assumptions).

Counters, never clocks: counted ``support_signature`` calls and the
memo's ``cones_built``/``cone_hits``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cache.hashing import cone_digest
from repro.cache.store import serving
from repro.circuit import coi
from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS
from repro.gen.counter import fixed_counter
from repro.multiprop.cones import ConeMemo
from repro.multiprop.ja import JAVerifier
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

SPECS = {**FAILING_SPECS, **ALL_TRUE_SPECS}


@pytest.fixture
def signatures(monkeypatch) -> Counter:
    """Property literal -> ``support_signature`` calls on it."""
    calls: Counter = Counter()
    signature = coi.support_signature

    def counted(aig, lit):
        calls[lit] += 1
        return signature(aig, lit)

    monkeypatch.setattr(coi, "support_signature", counted)
    return calls


def test_a_coi_ja_run_computes_each_support_signature_once(signatures):
    ts = TransitionSystem(SPECS["f380"].build())
    JAVerifier(ts, VerificationConfig(coi_reduction=True)).run()
    assert sum(signatures.values()) == len(ts.properties) == 64
    assert set(signatures) == {p.lit for p in ts.properties}


def test_ja_and_separate_keep_their_own_cones():
    ts = TransitionSystem(fixed_counter(4))
    memo = ConeMemo()
    design = memo.design(ts)
    local = memo.cone(ts, design, "P0", ["P1"])
    global_ = memo.cone(ts, design, "P0", [])
    assert (local.kept, global_.kept) == (("P1",), ())
    assert memo.cone(ts, design, "P0") is local  # the cache's default: every assumable one
    assert memo.cone(ts, design, "P0", []) is global_
    assert memo.counters["cones_built"] == 2
    assert local.digest == cone_digest(ts, "P0")


def test_runs_sharing_a_memo_build_each_cone_once():
    aig = SPECS["t273"].build()
    memo = ConeMemo()
    config = VerificationConfig(coi_reduction=True)
    with serving(None, memo):
        first = JAVerifier(TransitionSystem(aig), config).run()
        built = dict(memo.counters)
        second = JAVerifier(TransitionSystem(aig), config).run()
    assert built["cones_built"] == len(first.outcomes) == 14
    assert memo.counters["cones_built"] == built["cones_built"]
    assert memo.counters["cone_hits"] == built["cone_hits"] + 14
    assert first.debugging_set() == second.debugging_set()
