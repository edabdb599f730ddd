"""Simulation-guided random-walk falsifier.

A portfolio needs one engine that is *embarrassingly cheap* on shallow
bugs: random simulation finds a depth-3 counterexample in microseconds
while IC3 is still busy generalizing frame 1.  This module packages the
random-simulation idiom from :mod:`repro.multiprop.sweep` as a proper
:class:`~repro.engines.result.EngineResult`-returning engine so the
portfolio scheduler can race it against BMC / k-induction / IC3.

Semantics and guarantees:

* **Falsifier only.**  The walk can return ``FAILS`` (with a concrete
  trace) or ``UNKNOWN`` — never ``HOLDS``.  Random simulation cannot
  prove anything.
* **Local verdicts.**  Like the SAT engines, the walk checks the target
  under JA-style *local* semantics: the other properties (``assumed``)
  are treated as transition guards.  A walk that violates an assumed
  property strictly before the target is abandoned — it left the
  projected system, so nothing it finds afterwards is a local CEX.
* **Replay-confirmed CEXs.**  A candidate trace is only reported after
  :meth:`repro.ts.trace.Trace.validate` replays it FALSE on the
  :class:`~repro.circuit.simulate.Simulator`.  A trace that does not
  replay is a bug in this module; we refuse to emit it.
* **Deterministic.**  All randomness comes from one seeded
  ``random.Random``; equal seeds give bit-identical results.
  :func:`derive_seed` derives stable per-property sub-seeds so one
  run-level seed reproduces a whole multi-property run.

The restart schedule doubles the walk depth every ``walks_per_depth``
restarts (geometric deepening, SMPT-style), so shallow bugs are found
at shallow depth without giving up on deeper ones.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence

from ..circuit.simulate import Simulator
from ..progress import BudgetCheckpoint, Emit, FrameAdvanced
from ..ts.system import TransitionSystem
from ..ts.trace import Trace
from .result import EngineResult, PropStatus, ResourceBudget, unknown_result

__all__ = ["derive_seed", "randomwalk_check"]


def derive_seed(seed: int | None, design_name: str, prop_name: str) -> int:
    """Derive a stable per-property sub-seed from a run-level seed.

    Hash-based so that adding or reordering properties never shifts the
    sub-seed of an unrelated property (a counter-based scheme would).
    """

    from ..cache.hashing import joined_digest

    base = 0 if seed is None else int(seed)
    digest = joined_digest(base, design_name, prop_name)
    return int.from_bytes(digest[:8], "big")


def randomwalk_check(
    ts: TransitionSystem,
    prop_name: str,
    *,
    max_depth: int = 256,
    restarts: int = 512,
    walks_per_depth: int = 16,
    seed: int = 0,
    input_bias: float = 0.5,
    assumed: Sequence[str] = (),
    budget: ResourceBudget | None = None,
    emit: Emit | None = None,
) -> EngineResult:
    """Race random walks against ``prop_name``; FAILS or UNKNOWN.

    Each restart walks up to the current depth with fresh random
    uninitialized-latch values and biased random inputs.  Constraint
    violations and assumed-property failures abandon the walk (they
    leave the local projected system).  The first frame where the
    target evaluates FALSE yields a candidate trace, truncated at that
    frame and replay-validated before being reported.
    """

    if prop_name in assumed:
        raise ValueError(f"target property {prop_name!r} cannot be assumed")
    prop = ts.prop_by_name[prop_name]
    assumed_lits = [ts.prop_by_name[name].lit for name in assumed]
    rng = random.Random(seed)
    sim = Simulator(ts.aig)
    free_latches = [latch.lit for latch in ts.latches if latch.init is None]
    start = time.monotonic()
    budget = budget or ResourceBudget()
    depth = min(8, max_depth) if max_depth > 0 else 0
    walks = 0
    frames_simulated = 0
    stats: dict[str, object] = {"engine": "rw", "seed": seed}

    for restart in range(restarts):
        if budget.exhausted():
            break
        if restart and restart % walks_per_depth == 0 and depth < max_depth:
            depth = min(depth * 2, max_depth)
            if emit is not None:
                emit(FrameAdvanced(name=prop_name, frame=depth))
        walks += 1
        uninit = {lit: rng.random() < 0.5 for lit in free_latches}
        sim.reset(uninit)
        inputs_so_far: list[dict[int, bool]] = []
        for _ in range(depth + 1):
            if budget.exhausted():
                break
            frame_inputs = {
                inp: rng.random() < input_bias for inp in ts.aig.inputs
            }
            inputs_so_far.append(dict(frame_inputs))
            frames_simulated += 1
            if ts.aig.constraints and not all(
                sim.eval_lit(c, frame_inputs) for c in ts.aig.constraints
            ):
                break  # left the legal input space
            if not sim.eval_lit(prop.lit, frame_inputs):
                trace = Trace(
                    inputs=inputs_so_far,
                    uninit=dict(uninit),
                    property_name=prop_name,
                )
                stats.update(walks=walks, frames=frames_simulated)
                if not trace.validate(ts.aig, prop.lit):
                    # Candidate failed replay: refuse to report it.
                    stats["replay_rejected"] = True
                    break
                return EngineResult(
                    status=PropStatus.FAILS,
                    prop_name=prop_name,
                    cex=trace,
                    frames=len(trace.inputs),
                    assumed=list(assumed),
                    time_seconds=time.monotonic() - start,
                    stats=stats,
                )
            if assumed_lits and not all(
                sim.eval_lit(lit, frame_inputs) for lit in assumed_lits
            ):
                break  # assumed property failed first: not a local walk
            sim.step(frame_inputs)
        if emit is not None and walks % 64 == 0:
            emit(BudgetCheckpoint(scope=prop_name, elapsed=budget.elapsed()))

    stats.update(walks=walks, frames=frames_simulated)
    return unknown_result(prop_name, assumed, start, stats)
