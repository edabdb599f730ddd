"""Simulated parallel JA-verification (paper Section 11).

The paper argues that JA-verification parallelizes naturally: each
property can be proved locally on its own processor, with no mandatory
clause exchange, and local proofs get *easier* as the property set grows
(more assumptions, smaller invariants).  Table X demonstrates the
ingredient facts on benchmark 6s289; the projected conclusion is that
"verification would be finished in a matter of seconds" on one processor
per property.

This module is the *simulation* counterpart: measure each property's
standalone (no clause exchange) local-proof time, then compute the
makespan of scheduling those independent jobs on ``w`` workers.  Greedy
list scheduling is within a factor 4/3 of optimal and matches the
paper's in-order dispatch.

Real process-parallel execution lives in :mod:`repro.parallel`; this
projection helper feeds Table X (``benchmarks/bench_table10_parallel.py``)
— deterministic, portable, and the honest choice when the host has
fewer cores than the run has properties.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from ..config import ProofOptions
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .local import prove


@dataclass
class ParallelSimResult:
    """Per-property standalone times plus simulated makespans.

    ``prop_queries`` counts the engine's SAT queries per property — the
    deterministic work measure (wall-clock comparisons flake on loaded
    hosts, the same reason budgets can be expressed in conflicts).
    """

    prop_times: dict[str, float] = field(default_factory=dict)
    prop_frames: dict[str, int] = field(default_factory=dict)
    prop_queries: dict[str, int] = field(default_factory=dict)
    statuses: dict[str, str] = field(default_factory=dict)

    def makespan(self, workers: int) -> float:
        """Greedy list-scheduling makespan on ``workers`` processors."""
        if workers <= 0:
            raise ValueError("workers must be positive")
        loads = [0.0] * min(workers, max(1, len(self.prop_times)))
        for duration in self.prop_times.values():
            loads[loads.index(min(loads))] += duration
        return max(loads) if loads else 0.0

    def sequential_time(self) -> float:
        return sum(self.prop_times.values())

    def speedup(self, workers: int) -> float:
        makespan = self.makespan(workers)
        if makespan == 0:
            return float(len(self.prop_times) or 1)
        return self.sequential_time() / makespan


def measure_local_proofs(
    ts: TransitionSystem,
    names: Sequence[str] | None = None,
    per_property_time: float | None = None,
    max_frames: int = 500,
    per_property_conflicts: int | None = None,
    engine_overrides: Mapping[str, object] | None = None,
    *,
    local: bool = True,
) -> ParallelSimResult:
    """Prove each named property locally, independently (no clauseDB).

    This is the Table X measurement: proofs "generated independently of
    each other, i.e. there was no exchange of strengthening clauses".
    ``engine_overrides`` are extra :class:`IC3Options` fields (e.g.
    ``max_ctgs``), so the measurement can mirror a configured engine.
    Times and query counts are those of the run that decided the
    property; a spurious-counterexample re-run shows in ``prop_times``.
    """
    options = ProofOptions(
        per_property_time=per_property_time,
        per_property_conflicts=per_property_conflicts,
        max_frames=max_frames,
        engine_overrides=dict(engine_overrides or {}),
    )
    result = ParallelSimResult()
    for name in names or [p.name for p in ts.properties]:
        assumed = assumption_names(ts, name) if local else []
        start = time.monotonic()
        outcome, engine_result = prove(ts, name, assumed, options, local=local)
        result.prop_times[name] = time.monotonic() - start
        result.prop_frames[name] = outcome.frames
        result.prop_queries[name] = int(engine_result.stats.get("sat_queries", 0))
        result.statuses[name] = outcome.status.value
    return result


def measure_global_proofs(
    ts: TransitionSystem, names: Sequence[str] | None = None, **knobs: object
) -> ParallelSimResult:
    """Global-proof counterpart for the Table X comparison (same knobs)."""
    return measure_local_proofs(ts, names, local=False, **knobs)
