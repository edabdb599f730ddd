"""Work-count guard: ``ja`` compiles a design for simulation once, and
lifting over the compiled netlist changes no search.

No wall clock.  Every local proof of a ``ja`` run lifts its predecessor,
CTG and bad states over the one netlist of the design's AIG; the lifted
cubes must be the ones the per-latch re-evaluating lifter returned, so
each property's verdict and search counters stay at the values pinned
below from the commit before the netlist existed (4dda519).  Clause
reuse is off so that every property runs its full search.
"""

from __future__ import annotations

import pickle

import pytest

from repro.circuit import aig as aig_module
from repro.gen import all_true_designs, failing_designs
from repro.multiprop.ja import JAVerifier
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

#: design -> property -> (status, frames, sat_queries, lift_drops, cubes_blocked)
#: recorded at 4dda519 on the `cdcl` backend, ``clause_reuse=False``.
PINNED = {
    "f175": {
        "s0_G": ("FAILS", 2, 3, 31, 0),
        "s0_T": ("HOLDS", 2, 5, 14, 2),
        "s1_G": ("FAILS", 3, 8, 61, 1),
        "s1_T": ("HOLDS", 2, 5, 14, 2),
        "c0_C0": ("HOLDS", 2, 5, 15, 2),
    },
    "t256": {
        "c0_C0": ("HOLDS", 2, 5, 12, 2),
        "c0_C4": ("HOLDS", 3, 19, 60, 7),
        "c0_C8": ("HOLDS", 3, 19, 60, 7),
        "z_Z0": ("HOLDS", 2, 5, 12, 2),
    },
}


@pytest.fixture
def netlist_builds(monkeypatch) -> list[int]:
    """One entry — the node count compiled — per ``Netlist`` built."""
    builds: list[int] = []

    class CountingNetlist(aig_module.Netlist):
        def __init__(self, aig, base=None) -> None:
            super().__init__(aig, base)
            builds.append(len(self.fanouts))

    monkeypatch.setattr(aig_module, "Netlist", CountingNetlist)
    return builds


@pytest.mark.parametrize("name", sorted(PINNED))
def test_ja_compiles_the_netlist_once_and_changes_no_search(name, netlist_builds):
    ts = TransitionSystem({**failing_designs(), **all_true_designs()}[name])
    cold = pickle.dumps(ts)
    config = VerificationConfig(solver_backend="cdcl", design_name=name, clause_reuse=False)
    verifier = JAVerifier(ts, config)
    verifier.run()

    assert len(ts.properties) == len(PINNED[name]) > 3
    # However many properties lifted (and however many counterexamples
    # were replayed): one compilation of the whole design.
    assert netlist_builds == [ts.aig.num_nodes]
    assert sum(r.stats["lift_drops"] for r in verifier.results.values()) > 0
    # ... which never travels with the design.
    assert pickle.dumps(ts) == cold
    assert {
        prop: (
            result.status.name,
            result.frames,
            result.stats["sat_queries"],
            result.stats["lift_drops"],
            result.stats["cubes_blocked"],
        )
        for prop, result in verifier.results.items()
    } == PINNED[name]
