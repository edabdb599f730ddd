"""Parallel stress suite: 100+ properties through 4 pool workers.

Slow-marked end-to-end hardening of the persistent pool and its clause
relay at a property count an order of magnitude above the unit tests:
a synthetic design of many independent latch groups is pushed through
4 pool workers and checked for verdict parity with the sequential JA
driver (exchange on), and verdict *and frame* parity with clause re-use
disabled on both sides (where the proofs are bit-identical by
construction).
"""

from __future__ import annotations

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.multiprop.ja import JAVerifier
from repro.parallel import WorkerPool, parallel_ja_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

WORKERS = 4
GROUPS = 35  # 3 properties each -> 105 properties


def many_group_design(groups: int = GROUPS) -> AIG:
    """``groups`` independent 3-latch blocks, 3 properties per block.

    Per block: ``x`` toggles every frame, ``y`` is stuck at 0, ``z``
    latches ``y`` (so it is stuck at 0 too).  The three properties have
    overlapping cones inside the block and disjoint cones across
    blocks, so the structural clustering yields one cluster per block.
    Every 7th block swaps one holding property for ``never x``, which
    fails at frame 1, so failures are spread across the run.
    """
    aig = AIG()
    for g in range(groups):
        x = aig.add_latch(f"x{g}", init=0)
        aig.set_next(x, aig_not(x))
        y = aig.add_latch(f"y{g}", init=0)
        aig.set_next(y, y)
        z = aig.add_latch(f"z{g}", init=0)
        aig.set_next(z, aig.or_(z, y))
        aig.add_property(f"g{g}_y0", aig_not(y))
        if g % 7 == 0:
            aig.add_property(f"g{g}_fail", aig_not(x))
        else:
            aig.add_property(f"g{g}_xy", aig_not(aig.and_(x, y)))
        aig.add_property(f"g{g}_z0", aig_not(z))
    return aig


@pytest.fixture(scope="module")
def stress_ts() -> TransitionSystem:
    return TransitionSystem(many_group_design())


def verdicts(report) -> dict:
    return {name: o.status for name, o in report.outcomes.items()}


def frames(report) -> dict:
    return {name: o.frames for name, o in report.outcomes.items()}


@pytest.mark.slow
class TestParallelStress:
    def test_exchanging_run_matches_sequential_ja(self, stress_ts):
        assert len(stress_ts.properties) >= 100
        sequential = JAVerifier(stress_ts, VerificationConfig()).run()
        with WorkerPool(workers=WORKERS) as pool:
            parallel = parallel_ja_verify(
                stress_ts, VerificationConfig(pool=pool)
            )
        assert verdicts(parallel) == verdicts(sequential)
        assert list(parallel.outcomes) == list(sequential.outcomes)
        assert parallel.stats["worker_crashes"] == 0
        # The exchange actually carried clauses (the holding properties
        # export invariants).
        assert parallel.stats["exchange_clauses"] > 0

    def test_no_reuse_run_matches_sequential_frames_exactly(self, stress_ts):
        """Without clause re-use the per-property proofs are identical
        computations in either driver: verdicts AND frame counts must
        match property-for-property."""
        sequential = JAVerifier(
            stress_ts, VerificationConfig(clause_reuse=False)
        ).run()
        with WorkerPool(workers=WORKERS) as pool:
            parallel = parallel_ja_verify(
                stress_ts,
                VerificationConfig(pool=pool, clause_reuse=False),
            )
        assert verdicts(parallel) == verdicts(sequential)
        assert frames(parallel) == frames(sequential)
        assert parallel.stats["exchange"] == 0
