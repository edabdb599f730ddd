"""K-induction (Sheeran-Singh-Stålmarck style) as a cross-check engine.

Not part of the paper's toolbox, but a useful independent proof engine
for the test-suite: any verdict disagreement between k-induction, BMC
and IC3 indicates a bug in one of them.

The implementation uses the standard two queries per bound ``k``:

* base:  a counterexample of depth ``<= k`` exists (delegated to the
  incremental BMC unroller), and
* step:  ``P`` holding for ``k`` consecutive frames forces ``P`` in the
  next one, with simple-path (distinct-states) side constraints so that
  the method is complete for finite-state systems.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..circuit.aig import aig_not
from ..encode.unroll import Unroller
from ..sat import SatBackend, Status, create_solver
from ..ts.system import TransitionSystem
from ..ts.trace import Trace
from .result import EngineResult, PropStatus, ResourceBudget


def kinduction_check(
    ts: TransitionSystem,
    prop_name: str,
    max_k: int = 32,
    assumed: Sequence[str] = (),
    budget: ResourceBudget | None = None,
    unique_states: bool = True,
    solver_backend: str | None = None,
) -> EngineResult:
    """Prove or refute ``prop_name`` by k-induction up to bound ``max_k``.

    ``assumed`` properties are asserted on every non-final frame in both
    the base and the step case, mirroring local verification.  Both the
    base and the step case each live in one persistent incremental
    solver (``solver_backend`` names the registry entry): every bound
    extends the same two unrollings, bad cones selected by assumption.
    """
    start = time.monotonic()
    prop = ts.prop_by_name[prop_name]
    assumed_props = [ts.prop_by_name[n] for n in assumed]

    # --- base case: incremental BMC ---------------------------------
    base_solver = create_solver(solver_backend)
    base = Unroller(ts.aig, base_solver)

    # --- step case: unrolling without initial-state constraints -----
    step_solver = create_solver(solver_backend)
    step = _FreeUnroller(ts.aig, step_solver)

    stats = {"sat_queries": 0}

    def charge(solver: SatBackend, before: int) -> None:
        if budget is not None:
            budget.charge_conflicts(solver.stats()["conflicts"] - before)

    for k in range(max_k + 1):
        if budget is not None and budget.exhausted():
            return _unknown(prop_name, k, assumed, start, stats)
        # Base: CEX at depth exactly k?
        frame = base.frame(k)
        for c in ts.aig.constraints:
            base_solver.add_clause([frame.lit(c)])
        before = base_solver.stats()["conflicts"]
        status = base_solver.solve([frame.lit(aig_not(prop.lit))])
        stats["sat_queries"] += 1
        charge(base_solver, before)
        if status == Status.SAT:
            cex = Trace(
                inputs=base.extract_inputs(base_solver.value, k),
                uninit=base.extract_uninit(base_solver.value),
                property_name=prop_name,
            )
            if not cex.validate(ts.aig, prop.lit):
                raise RuntimeError("k-induction produced an invalid counterexample")
            return EngineResult(
                status=PropStatus.FAILS,
                prop_name=prop_name,
                cex=cex,
                frames=k + 1,
                assumed=list(assumed),
                time_seconds=time.monotonic() - start,
                stats=stats,
            )
        for p in assumed_props:
            base_solver.add_clause([frame.lit(p.lit)])

        # Step: P at frames 0..k implies P at frame k+1?
        sframe = step.frame(k)
        for c in ts.aig.constraints:
            step_solver.add_clause([sframe.lit(c)])
        step_solver.add_clause([sframe.lit(prop.lit)])
        for p in assumed_props:
            step_solver.add_clause([sframe.lit(p.lit)])
        if unique_states:
            step.add_uniqueness(k)
        nframe = step.frame(k + 1)
        for c in ts.aig.constraints:
            step_solver.add_clause([nframe.lit(c)])
        before = step_solver.stats()["conflicts"]
        status = step_solver.solve([nframe.lit(aig_not(prop.lit))])
        stats["sat_queries"] += 1
        charge(step_solver, before)
        if status == Status.UNSAT:
            return EngineResult(
                status=PropStatus.HOLDS,
                prop_name=prop_name,
                frames=k + 1,
                assumed=list(assumed),
                time_seconds=time.monotonic() - start,
                stats=stats,
            )
    return _unknown(prop_name, max_k, assumed, start, stats)


class _FreeUnroller(Unroller):
    """Unroller whose frame 0 leaves all latches unconstrained, plus
    simple-path (pairwise-distinct state) constraints for completeness."""

    free_init = True

    def __init__(self, aig, sink) -> None:
        super().__init__(aig, sink)
        self._uniqueness_done = set()

    def add_uniqueness(self, upto: int) -> None:
        """Assert pairwise distinctness of frames 0..upto."""
        for i in range(upto + 1):
            for j in range(i + 1, upto + 1):
                if (i, j) in self._uniqueness_done:
                    continue
                self._uniqueness_done.add((i, j))
                diff_lits = []
                for latch in self.aig.latches:
                    vi = self.latch_var(latch.lit, i)
                    vj = self.latch_var(latch.lit, j)
                    d = self.sink.new_var()
                    # d -> (vi XOR vj)
                    self.sink.add_clause([-d, vi, vj])
                    self.sink.add_clause([-d, -vi, -vj])
                    diff_lits.append(d)
                if diff_lits:
                    self.sink.add_clause(diff_lits)


def _unknown(prop_name, frames, assumed, start, stats) -> EngineResult:
    return EngineResult(
        status=PropStatus.UNKNOWN,
        prop_name=prop_name,
        frames=frames,
        assumed=list(assumed),
        time_seconds=time.monotonic() - start,
        stats=stats,
    )
