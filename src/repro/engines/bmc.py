"""Bounded model checking (Biere et al., DAC 1999).

Incrementally unrolls the design inside one solver and asks, for
``k = 0, 1, 2, ...``, whether the target property can be falsified at
frame ``k``.  Supports the paper's *local* mode: the assumed properties
are asserted on every frame strictly before the failure frame, which is
the bounded analogue of searching in ``(I, T^P)``.

BMC is complete for falsification only; :func:`bmc_check` returns UNKNOWN
once the bound or budget is exhausted without finding a counterexample.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..circuit.aig import aig_not
from ..encode.unroll import Unroller
from ..progress import BudgetCheckpoint, Emit, FrameAdvanced, emit_or_null
from ..sat import Status, create_solver
from ..ts.system import TransitionSystem
from ..ts.trace import Trace
from .result import EngineResult, PropStatus, ResourceBudget, unknown_result


def bmc_check(
    ts: TransitionSystem,
    prop_name: str,
    max_depth: int = 64,
    assumed: Sequence[str] = (),
    budget: ResourceBudget | None = None,
    emit: Emit | None = None,
    solver_backend: str | None = None,
) -> EngineResult:
    """Search for a counterexample of depth ``<= max_depth`` frames.

    ``assumed`` names properties asserted at all frames before the
    failure frame (local verification); with ``assumed=()`` this is
    plain global BMC.  The whole search lives in **one** incremental
    solver (from the ``solver_backend`` registry entry): each depth
    extends the same unrolling and selects its bad cone purely by
    assumption, so deepening never re-encodes earlier frames.  ``emit``,
    when given, receives a :class:`~repro.progress.FrameAdvanced` event
    per unrolling depth (plus budget checkpoints when a budget is set).

    Depth convention matches :class:`Trace`: a depth-1 CEX fails in the
    initial state.
    """
    send: Emit = emit_or_null(emit)
    start = time.monotonic()
    prop = ts.prop_by_name[prop_name]
    assumed_props = [ts.prop_by_name[n] for n in assumed]
    if any(p.name == prop_name for p in assumed_props):
        raise ValueError("a property cannot be assumed while checking itself")

    solver = create_solver(solver_backend)
    unroller = Unroller(ts.aig, solver)
    stats = {"sat_queries": 0, "max_depth_reached": 0}

    for t in range(max_depth):
        if budget is not None and budget.exhausted():
            stats["clause_insertions"] = solver.stats()["clauses_added"]
            return unknown_result(prop_name, assumed, start, stats, t)
        frame = unroller.frame(t)
        for c in ts.aig.constraints:
            solver.add_clause([frame.lit(c)])
        bad_lit = frame.lit(aig_not(prop.lit))
        before = solver.stats()["conflicts"]
        status = solver.solve([bad_lit])
        stats["sat_queries"] += 1
        stats["max_depth_reached"] = t + 1
        send(FrameAdvanced(name=prop_name, frame=t + 1))
        if budget is not None:
            budget.charge_conflicts(solver.stats()["conflicts"] - before)
            send(
                BudgetCheckpoint(
                    scope=prop_name,
                    elapsed=budget.elapsed(),
                    conflicts=budget.conflicts_used,
                )
            )
        if status == Status.SAT:
            cex = Trace(
                inputs=unroller.extract_inputs(solver.value, t),
                uninit=unroller.extract_uninit(solver.value),
                property_name=prop_name,
            )
            if not cex.validate(ts.aig, prop.lit):
                raise RuntimeError(
                    f"BMC produced an invalid counterexample for {prop_name} "
                    f"at depth {t + 1}"
                )
            stats["clause_insertions"] = solver.stats()["clauses_added"]
            return EngineResult(
                status=PropStatus.FAILS,
                prop_name=prop_name,
                cex=cex,
                frames=t + 1,
                assumed=list(assumed),
                time_seconds=time.monotonic() - start,
                stats=stats,
            )
        # No CEX at this depth: pin the assumptions for frame t before
        # moving deeper (frames before a failure must satisfy them).
        for p in assumed_props:
            solver.add_clause([frame.lit(p.lit)])
    stats["clause_insertions"] = solver.stats()["clauses_added"]
    return unknown_result(prop_name, assumed, start, stats, max_depth)
