"""Parallel stress suite: 100+ properties through shards x workers.

Slow-marked end-to-end hardening of the persistent-pool + sharded-
exchange engine at a property count an order of magnitude above the
unit tests: a synthetic design of many independent latch groups (so
the structural clustering produces many real clusters) is pushed
through 4 exchange shards x 4 pool workers and checked for

* verdict parity with the sequential JA driver (exchange on), and
  verdict *and frame* parity with clause re-use disabled on both sides
  (where the proofs are bit-identical by construction);
* zero cross-shard clause deliveries, straight from the per-shard
  traffic stats the exchange records.

``REPRO_STRESS_SHARDS`` scales the shard count (CI's nightly job runs
the suite at 2); workers stay at 4.
"""

from __future__ import annotations

import os

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.multiprop.ja import JAVerifier
from repro.parallel import WorkerPool, parallel_ja_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

SHARDS = int(os.environ.get("REPRO_STRESS_SHARDS", "4"))
WORKERS = 4
GROUPS = 35  # 3 properties each -> 105 properties


def many_group_design(groups: int = GROUPS) -> AIG:
    """``groups`` independent 3-latch blocks, 3 properties per block.

    Per block: ``x`` toggles every frame, ``y`` is stuck at 0, ``z``
    latches ``y`` (so it is stuck at 0 too).  The three properties have
    overlapping cones inside the block and disjoint cones across
    blocks, so the structural clustering yields one cluster per block —
    exactly the regime the sharded exchange is built for.  Every 7th
    block swaps one holding property for ``never x``, which fails at
    frame 1, so failures are spread across shards.
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
    def test_sharded_run_matches_sequential_ja(self, stress_ts):
        assert len(stress_ts.properties) >= 100
        sequential = JAVerifier(stress_ts, VerificationConfig()).run()
        with WorkerPool(workers=WORKERS) as pool:
            parallel = parallel_ja_verify(
                stress_ts,
                VerificationConfig(pool=pool, exchange_shards=SHARDS),
            )
        assert verdicts(parallel) == verdicts(sequential)
        assert list(parallel.outcomes) == list(sequential.outcomes)
        assert parallel.stats["exchange_shards"] == SHARDS
        assert parallel.stats["worker_crashes"] == 0
        # Zero cross-shard clause deliveries: every shard only ever saw
        # traffic from its own member properties.
        per_shard = parallel.stats["exchange_per_shard"]
        assert len(per_shard) == SHARDS
        for stats in per_shard:
            members = set(stats["members"])
            assert set(stats["publishers"]) <= members
            assert set(stats["fetchers"]) <= members
        # The run's properties partition exactly across the shards.
        everyone = sorted(
            name for stats in per_shard for name in stats["members"]
        )
        assert everyone == sorted(o.name for o in parallel.outcomes.values())
        # The exchange actually carried clauses (the holding properties
        # export invariants), all within shards.
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
