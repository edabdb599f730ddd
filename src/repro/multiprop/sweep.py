"""Random-simulation property sweeping.

Before spending SAT effort, industrial multi-property flows "sweep" the
property list with cheap random simulation: any property observed FALSE
on a random trace is definitely false globally, together with a concrete
witness.  Sweeping complements JA-verification in two ways:

* it pre-classifies shallow failures (often the whole debugging set of a
  buggy design) at simulation speed, and
* the witnesses it finds are *global* CEXs; replaying them against the
  other properties (``Trace.first_failures``) immediately shows which
  failures dominate which — a zero-SAT preview of the debugging set.

Sweeping can never prove a property: its survivors still need the
model checker.  ``repro sweep`` runs it on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..circuit.simulate import Simulator
from ..ts.system import TransitionSystem
from ..ts.trace import Trace


@dataclass
class SweepResult:
    """Outcome of a simulation sweep."""

    failed: dict[str, Trace] = field(default_factory=dict)  # name -> witness
    survivors: list[str] = field(default_factory=list)
    runs: int = 0
    frames_simulated: int = 0


def sweep(
    ts: TransitionSystem,
    runs: int = 32,
    depth: int = 32,
    seed: int = 0,
) -> SweepResult:
    """Random-simulate the design and classify properties.

    Each run drives all inputs with independent fair coin flips for
    ``depth`` cycles and evaluates every still-unfailed property each
    cycle.  Witness traces are truncated at the property's first failure
    so they validate as counterexamples.
    """
    rng = random.Random(seed)
    result = SweepResult()
    pending = {p.name: p.lit for p in ts.properties}
    sim = Simulator(ts.aig)
    for _ in range(runs):
        if not pending:
            break
        result.runs += 1
        uninit = {
            latch.lit: rng.random() < 0.5
            for latch in ts.latches
            if latch.init is None
        }
        sim.reset(uninit)
        inputs_so_far: list[dict[int, bool]] = []
        for _ in range(depth):
            frame_inputs = {
                inp: rng.random() < 0.5 for inp in ts.aig.inputs
            }
            inputs_so_far.append(frame_inputs)
            result.frames_simulated += 1
            if ts.aig.constraints and not all(
                sim.eval_lit(c, frame_inputs) for c in ts.aig.constraints
            ):
                break  # constraint-violating stimulus: abandon this run
            newly_failed = [
                name
                for name, lit in pending.items()
                if not sim.eval_lit(lit, frame_inputs)
            ]
            for name in newly_failed:
                witness = Trace(
                    inputs=[dict(f) for f in inputs_so_far],
                    uninit=dict(uninit),
                    property_name=name,
                )
                result.failed[name] = witness
                del pending[name]
            sim.step(frame_inputs)
    result.survivors = sorted(pending)
    return result
