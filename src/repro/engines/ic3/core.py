"""IC3 / PDR (Bradley, VMCAI 2011; Eén-Mishchenko-Brayton, FMCAD 2011).

This is the property-checking engine underneath every experiment in the
paper.  Besides the standard machinery (frames, proof-obligation queue,
inductive generalization with unsat-core shrinking, clause propagation),
it implements the three features the paper's Ic3-db relies on:

* **Local proofs** (Sections 4, 7-A): ``assumed`` properties are asserted
  as constraints on the *source* frame of every transition query, which
  realizes the projection ``T^P``.  The bad-state query is left
  unconstrained so that a state falsifying the target property is
  reachable even if assumed properties fail there simultaneously —
  this is what makes Proposition 5 (all-local-true implies all-global-
  true) hold in the implementation, including the corner case of
  properties that only fail together.

* **State lifting with two modes** (Sections 6-C, 7-A): predecessor
  cubes are enlarged by ternary simulation, either respecting the
  assumed-property constraints or ignoring them.  Ignoring gives larger
  cubes but may yield spurious counterexamples; callers detect these by
  replay (the driver re-runs with respecting mode, as Ic3-db does).
  Each run owns one :class:`~repro.engines.ic3.ternary.Lifter` over the
  design's compiled netlist (:meth:`repro.circuit.aig.AIG.netlist`,
  built on the first lift and shared by every run on the design).

* **Strengthening-clause import/export** (Section 6): ``seed_clauses``
  initialize every frame, and a successful proof exports the final
  inductive clause set.  Because seeds proven under *different*
  assumption sets are not automatically inductive here, every
  converged run hands its invariant to the independent checker
  (:class:`repro.engines.certify.Certifier`); on rejection the engine
  signals the caller to retry without seeds.  This keeps the paper's
  optimization while staying sound.  A driver passes its run's
  certifier (or, on a COI rung, its cone's) in ``IC3Options.certifier``,
  so each proof pays only for clauses no earlier proof proved.

Solver management is fully incremental: the engine holds **one**
persistent consecution solver (the transition relation is loaded
exactly once per property) plus one persistent bad-state solver, both
obtained from the pluggable :mod:`repro.sat.backend` registry.  Each
solver loads the frame projected onto what its queries read
(:meth:`~repro.ts.system.TransitionSystem.encode_cone`): the init and
bad solvers the property's combinational cone, the consecution solver
the assumed properties' cones plus the next-state functions of the
property's sequential cone of influence — lifting keeps every cube
inside it, and the one-literal fallback of an empty cube is latch 0,
which the slice always includes.  Frame
membership is expressed with per-level activation literals — a clause
blocked at level ``L`` is inserted once, guarded by ``act(L)``, and a
query relative to ``F_k`` simply assumes ``act(k) .. act(top)`` — so
advancing the frontier, pushing clauses forward and discharging
obligations cost O(1) solver setup per query instead of O(CNF).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from collections.abc import Sequence

from ...progress import (
    BudgetCheckpoint,
    ClauseImport,
    Emit,
    FrameAdvanced,
    emit_or_null,
)
from ...sat import SatBackend, Status, create_solver
from ...ts.system import (
    Clause,
    Cube,
    StepEncoding,
    TransitionSystem,
    cube_subsumes,
    negate_cube,
    normalize_cube,
)
from ...ts.trace import Trace
from ..certify import Certifier
from ..result import EngineResult, PropStatus, ResourceBudget
from .ternary import Lifter


class SeedCertificateError(Exception):
    """The final invariant failed its certificate check.

    Only possible when seed clauses from a differently-constrained run
    were imported; the caller should re-run without seeds.
    """


#: Passes of literal dropping per generalized cube.
GENERALIZE_PASSES = 2

#: CTG blocking attempts per failed literal drop (``ctg`` on).
MAX_CTGS = 3


@dataclass
class IC3Options:
    """Tuning knobs for one IC3 run."""

    assumed: Sequence[str] = ()
    respect_constraints_in_lifting: bool = False
    seed_clauses: Sequence[Clause] = ()
    max_frames: int = 500
    budget: ResourceBudget | None = None
    # CTG handling during generalization (Hassan-Bradley-Somenzi, FMCAD'13):
    # when dropping a literal fails because of a counterexample-to-
    # generalization, try to block that state first.  Off by default to
    # match the paper's Ic3-db baseline; the ablation bench measures it.
    ctg: bool = False
    # SAT backend name resolved through repro.sat.backend; None uses the
    # process default (REPRO_SAT_BACKEND environment, then "cdcl").
    solver_backend: str | None = None
    # Progress events (frame advances, seed imports, budget checkpoints)
    # are sent here; None keeps the engine silent.
    emit: Emit | None = None
    # A certifier of this run's design (the driver run's, or a cone's,
    # see engines/certify.py); None certifies on a one-shot one.
    certifier: Certifier | None = None


@dataclass
class _Obligation:
    """A cube of states at some frame known to reach the bad condition."""

    cube: Cube
    inputs: dict[int, bool]
    witness: tuple[bool, ...]
    succ: "_Obligation | None"


class IC3:
    """One IC3 run for one property of a transition system."""

    def __init__(self, ts: TransitionSystem, prop_name: str, options: IC3Options | None = None) -> None:
        self.ts = ts
        self.options = options or IC3Options()
        self.prop = ts.prop_by_name[prop_name]
        if self.prop.name in self.options.assumed:
            raise ValueError("a property cannot be assumed while checking itself")
        self.assumed_props = [ts.prop_by_name[n] for n in self.options.assumed]
        self._lifter = Lifter(ts.aig, [latch.lit for latch in ts.latches])
        # frames[k] = cubes blocked at exactly level k (k >= 1).
        self.frames: list[list[Cube]] = [[], []]
        # Persistent incremental solvers (lazily created, never rebuilt):
        # one step solver for every consecution query at every frame,
        # one combinational solver for every bad-state query.  Frame
        # membership is selected per query via activation literals.
        self._step: SatBackend | None = None
        self._step_enc: StepEncoding | None = None
        self._init_act: int | None = None
        self._frame_acts: list[int | None] = []
        self._bad: SatBackend | None = None
        self._bad_enc = None
        self._bad_acts: list[int | None] = []
        # Every solver this run allocated, for the work accounting.
        self._solvers: list[SatBackend] = []
        self._seeds: list[Clause] = [normalize_cube(c) for c in self.options.seed_clauses]
        for seed in self._seeds:
            if not ts.clause_holds_at_init(seed):
                raise ValueError(f"seed clause {seed} does not hold at the initial states")
        self.stats: dict[str, int] = {
            "sat_queries": 0,
            "obligations": 0,
            "cubes_blocked": 0,
            "cubes_pushed": 0,
            "lift_drops": 0,
            "generalize_drops": 0,
            "seeds_used": len(self._seeds),
            "solver_allocs": 0,
        }
        self._start_time = time.monotonic()
        self._counter = itertools.count()
        self._emit: Emit = emit_or_null(self.options.emit)
        if self._seeds:
            self._emit(ClauseImport(name=self.prop.name, count=len(self._seeds)))

    # ------------------------------------------------------------------
    # Solver management
    # ------------------------------------------------------------------
    def _solve(self, solver: SatBackend, assumptions: Sequence[int]) -> Status:
        before = solver.stats()["conflicts"]
        status = solver.solve(assumptions)
        self.stats["sat_queries"] += 1
        budget = self.options.budget
        if budget is not None:
            budget.charge_conflicts(solver.stats()["conflicts"] - before)
        return status

    def _new_solver(self) -> SatBackend:
        """A fresh solver from the configured backend (work-accounted)."""
        solver = create_solver(self.options.solver_backend)
        self.stats["solver_allocs"] += 1
        self._solvers.append(solver)
        return solver

    def clause_insertions(self) -> int:
        """Total ``add_clause`` operations issued across all solvers."""
        return sum(
            solver.stats().get("clauses_added", 0) for solver in self._solvers
        )

    def _step_solver(self) -> tuple[SatBackend, StepEncoding]:
        """The persistent consecution solver (one per IC3 run).

        The transition relation, assumed-property constraints and seeds
        are encoded exactly once; initial-state clauses are guarded by
        ``_init_act`` (assumed only for ``F_0`` queries) and frame
        clauses by their level's activation literal.
        """
        if self._step is None:
            solver = self._new_solver()
            enc = self.ts.encode_cone(
                solver,
                "step",
                self.prop.name,
                self.options.assumed,
                self.options.respect_constraints_in_lifting,
            )
            for p in self.assumed_props:
                solver.add_clause([enc.prop_curr[p.name]])
            for seed in self._seeds:
                solver.add_clause(enc.clause_lits_curr(seed))
            init_act = solver.new_activation()
            for i, latch in enumerate(self.ts.latches):
                if latch.init == 0:
                    solver.add_clause([-init_act, -enc.curr[i]])
                elif latch.init == 1:
                    solver.add_clause([-init_act, enc.curr[i]])
            self._step, self._step_enc, self._init_act = solver, enc, init_act
            for level in range(1, len(self.frames)):
                for cube in self.frames[level]:
                    self._insert_frame_clause(negate_cube(cube), level)
        return self._step, self._step_enc

    def _bad_solver(self) -> tuple[SatBackend, object]:
        """The persistent bad-state solver (one per IC3 run).

        Combinational frame; blocked clauses are guarded per level so a
        query at the current top simply assumes ``act(top..)`` — the
        solver survives every frame advance un-rebuilt.
        """
        if self._bad is None:
            solver = self._new_solver()
            enc = self.ts.encode_cone(solver, "bad", self.prop.name)
            for seed in self._seeds:
                solver.add_clause(enc.clause_lits_curr(seed))
            self._bad, self._bad_enc = solver, enc
            for level in range(1, len(self.frames)):
                for cube in self.frames[level]:
                    self._insert_bad_clause(negate_cube(cube), level)
        return self._bad, self._bad_enc

    @staticmethod
    def _level_act(
        solver: SatBackend, acts: list[int | None], level: int
    ) -> int:
        """The activation literal guarding a level's clauses (lazily made)."""
        while len(acts) <= level:
            acts.append(None)
        if acts[level] is None:
            acts[level] = solver.new_activation()
        return acts[level]

    def _insert_frame_clause(self, clause: Clause, level: int) -> None:
        act = self._level_act(self._step, self._frame_acts, level)
        self._step.add_clause([-act] + self._step_enc.clause_lits_curr(clause))

    def _insert_bad_clause(self, clause: Clause, level: int) -> None:
        act = self._level_act(self._bad, self._bad_acts, level)
        self._bad.add_clause([-act] + self._bad_enc.clause_lits_curr(clause))

    def _frame_assumptions(self, k: int) -> list[int]:
        """Activation literals selecting ``F_k`` inside the step solver.

        ``F_k`` is the conjunction of every clause blocked at level
        ``>= max(k, 1)``; ``F_0`` additionally asserts the initial
        states.  Levels that never received a clause have no activation
        literal and are skipped.
        """
        assumps: list[int] = []
        if k == 0:
            assumps.append(self._init_act)
        for level in range(max(k, 1), len(self.frames)):
            if level < len(self._frame_acts) and self._frame_acts[level] is not None:
                assumps.append(self._frame_acts[level])
        return assumps

    @property
    def top(self) -> int:
        return len(self.frames) - 1

    def _add_blocked_cube(self, cube: Cube, level: int) -> None:
        """Record that ``cube`` is unreachable within ``level`` steps."""
        # Subsumption: drop weaker cubes this one covers.  The subsumed
        # clauses already inserted in the persistent solvers are implied
        # by the new, stronger one, so leaving them behind is sound.
        for lvl in range(1, level + 1):
            self.frames[lvl] = [
                c for c in self.frames[lvl] if not cube_subsumes(cube, c)
            ]
        self.frames[level].append(cube)
        self.stats["cubes_blocked"] += 1
        clause = negate_cube(cube)
        if self._step is not None:
            self._insert_frame_clause(clause, level)
        if self._bad is not None:
            self._insert_bad_clause(clause, level)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _consecution(self, cube: Cube, k: int) -> tuple[bool, object]:
        """Is ``F_k ∧ C ∧ ¬cube ∧ T ∧ cube'`` UNSAT?

        Returns ``(True, core_cube_lits)`` on UNSAT (the subset of cube
        literals whose next-state versions appear in the final conflict),
        or ``(False, (pred_state, inputs))`` on SAT.
        """
        solver, enc = self._step_solver()
        frame_sel = self._frame_assumptions(k)
        # The ¬cube clause is query-local: guarded by a one-shot
        # activation literal that is retired as soon as the query ends.
        act = solver.new_activation()
        not_cube = [-lit for lit in enc.cube_lits_curr(cube)]
        solver.add_clause([-act] + not_cube)
        next_lits = enc.cube_lits_next(cube)
        status = self._solve(solver, frame_sel + [act] + next_lits)
        if status == Status.UNSAT:
            core = solver.core()
            solver.retire(act)
            needed = [
                state_lit
                for state_lit, solver_lit in zip(cube, next_lits)
                if solver_lit in core
            ]
            return True, tuple(needed)
        if status == Status.UNKNOWN:
            solver.retire(act)
            raise _BudgetExhausted()
        pred_state = tuple(bool(solver.value(v)) for v in enc.curr)
        inputs = {
            inp: bool(solver.value(var)) for inp, var in enc.inputs.items()
        }
        solver.retire(act)
        return False, (pred_state, inputs)

    def _query_bad(self) -> tuple[tuple[bool, ...], dict[int, bool]] | None:
        """SAT(F_top ∧ ¬P): a state (+ input) falsifying the property."""
        solver, enc = self._bad_solver()
        assumps = [
            self._bad_acts[level]
            for level in range(self.top, len(self._bad_acts))
            if self._bad_acts[level] is not None
        ]
        status = self._solve(solver, assumps + [-enc.prop_curr[self.prop.name]])
        if status == Status.UNKNOWN:
            raise _BudgetExhausted()
        if status == Status.SAT:
            state = tuple(bool(solver.value(v)) for v in enc.curr)
            inputs = {
                inp: bool(solver.value(var)) for inp, var in enc.inputs.items()
            }
            return state, inputs
        return None

    # ------------------------------------------------------------------
    # Lifting
    # ------------------------------------------------------------------
    def _lift(
        self,
        state: tuple[bool, ...],
        inputs: dict[int, bool],
        require_true: list[int],
        require_false: list[int],
        respect_assumed: bool,
    ) -> Cube:
        require_true = list(require_true) + list(self.ts.aig.constraints)
        if respect_assumed:
            require_true += [p.lit for p in self.assumed_props]
        lifted = self._lifter.lift(state, inputs, require_true, require_false)
        return self._cube_from_lifted(lifted, state)

    def _cube_from_lifted(
        self, lifted: list[bool | None], state: tuple[bool, ...]
    ) -> Cube:
        lits = []
        for i, value in enumerate(lifted):
            if value is None:
                self.stats["lift_drops"] += 1
            else:
                lits.append((i + 1) if value else -(i + 1))
        if not lits:
            # Degenerate but possible (target depends on inputs only);
            # keep one concrete literal so cubes are never empty.
            lits.append(1 if state[0] else -1)
        return normalize_cube(lits)

    def _lift_predecessor(
        self, state: tuple[bool, ...], inputs: dict[int, bool], succ_cube: Cube
    ) -> Cube:
        require_true, require_false = [], []
        for lit in succ_cube:
            next_fn = self.ts.latches[abs(lit) - 1].next
            if lit > 0:
                require_true.append(next_fn)
            else:
                require_false.append(next_fn)
        respect = self.options.respect_constraints_in_lifting
        return self._lift(state, inputs, require_true, require_false, respect)

    def _lift_bad(self, state: tuple[bool, ...], inputs: dict[int, bool]) -> Cube:
        # The bad state must keep falsifying the property.  Assumed
        # properties are never required here: the final state of a local
        # counterexample is unconstrained (see module docstring).
        return self._lift(state, inputs, [], [self.prop.lit], False)

    def _init_witness(self, cube: Cube) -> tuple[bool, ...]:
        """A concrete initial state inside ``cube`` (which intersects I)."""
        values = []
        cube_map = {abs(l): l > 0 for l in cube}
        for i, latch in enumerate(self.ts.latches):
            if latch.init is not None:
                values.append(bool(latch.init))
            else:
                values.append(cube_map.get(i + 1, False))
        return tuple(values)

    # ------------------------------------------------------------------
    # Generalization
    # ------------------------------------------------------------------
    def _repair_init(self, cube: Cube, original: Cube) -> Cube:
        """Ensure the cube excludes the initial states.

        If a core-shrunk cube intersects I, add back a literal of the
        original cube that conflicts with the init pattern (one always
        exists because the original cube excluded I).
        """
        if not self.ts.cube_intersects_init(cube):
            return cube
        for lit in original:
            pattern = self.ts.init_pattern[abs(lit) - 1]
            if pattern is not None and pattern != lit:
                repaired = normalize_cube(tuple(cube) + (lit,))
                if not self.ts.cube_intersects_init(repaired):
                    return repaired
        raise RuntimeError("cannot repair cube against initial states")

    def _generalize(self, cube: Cube, k: int) -> Cube:
        """Shrink a blocked cube while keeping consecution rel. F_k and
        disjointness from the initial states."""
        current = cube
        for _ in range(GENERALIZE_PASSES):
            progress = False
            for lit in list(current):
                if len(current) <= 1:
                    break
                candidate = tuple(l for l in current if l != lit)
                if self.ts.cube_intersects_init(candidate):
                    continue
                ok, info = self._consecution(candidate, k)
                if not ok and self.options.ctg:
                    ok, info = self._try_block_ctgs(candidate, k, info)
                if ok:
                    shrunk = self._repair_init(normalize_cube(info), candidate)
                    if shrunk and not self.ts.cube_intersects_init(shrunk):
                        self.stats["generalize_drops"] += len(current) - len(shrunk)
                        current = shrunk
                    else:
                        current = candidate
                    progress = True
            if not progress:
                break
        return current

    def _try_block_ctgs(self, candidate: Cube, k: int, info) -> tuple[bool, object]:
        """CTG-aware generalization: block states that keep a literal alive.

        When dropping a literal fails, the SAT witness is a predecessor
        state (a counterexample to generalization).  If that state is
        itself inductive relative to F_k, block it at k+1 and retry; this
        often lets the drop go through, yielding much smaller clauses.
        Bounded by :data:`MAX_CTGS` attempts (no recursion), per HBS'13.
        """
        for _ in range(MAX_CTGS):
            pred_state, pred_inputs = info
            ctg_cube = self._lift_predecessor(pred_state, pred_inputs, candidate)
            if self.ts.cube_intersects_init(ctg_cube):
                return False, info
            ok, core = self._consecution(ctg_cube, k)
            if not ok:
                return False, info
            blocked = self._repair_init(normalize_cube(core), ctg_cube)
            self._add_blocked_cube(blocked, min(k + 1, self.top))
            self.stats["ctg_blocked"] = self.stats.get("ctg_blocked", 0) + 1
            ok, info = self._consecution(candidate, k)
            if ok:
                return True, info
        return False, info

    # ------------------------------------------------------------------
    # Blocking
    # ------------------------------------------------------------------
    def _is_blocked(self, cube: Cube, level: int) -> bool:
        for lvl in range(level, len(self.frames)):
            for blocked in self.frames[lvl]:
                if cube_subsumes(blocked, cube):
                    return True
        return False

    def _block(self, bad_ob: _Obligation) -> _Obligation | None:
        """Discharge one bad obligation at the top frame.

        Returns None when blocked, or the frame-0 obligation heading a
        counterexample chain.
        """
        queue: list[tuple[int, int, _Obligation]] = []
        heapq.heappush(queue, (self.top, next(self._counter), bad_ob))
        budget = self.options.budget
        while queue:
            if budget is not None and budget.exhausted():
                raise _BudgetExhausted()
            level, _, ob = heapq.heappop(queue)
            self.stats["obligations"] += 1
            if level == 0:
                return ob
            if self._is_blocked(ob.cube, level):
                continue
            ok, info = self._consecution(ob.cube, level - 1)
            if ok:
                shrunk = self._repair_init(normalize_cube(info), ob.cube)
                generalized = self._generalize(shrunk, level - 1)
                # Push the clause as far ahead as it stays inductive.
                place = level
                while place < self.top:
                    holds, _ = self._consecution(generalized, place)
                    if not holds:
                        break
                    place += 1
                self._add_blocked_cube(generalized, place)
                if place < self.top:
                    heapq.heappush(queue, (place + 1, next(self._counter), ob))
            else:
                pred_state, pred_inputs = info
                pred_cube = self._lift_predecessor(pred_state, pred_inputs, ob.cube)
                pred_ob = _Obligation(
                    cube=pred_cube, inputs=pred_inputs, witness=pred_state, succ=ob
                )
                if level - 1 > 0 and self.ts.cube_intersects_init(pred_cube):
                    # The lifted cube reaches back into I: every state of
                    # the cube (under the stored input) steps into the
                    # successor cube, so an initial state in it heads a
                    # genuine counterexample — no need to recurse further.
                    pred_ob.witness = self._init_witness(pred_cube)
                    return pred_ob
                heapq.heappush(queue, (level - 1, next(self._counter), pred_ob))
                heapq.heappush(queue, (level, next(self._counter), ob))
        return None

    # ------------------------------------------------------------------
    # Propagation / convergence
    # ------------------------------------------------------------------
    def _propagate(self) -> int | None:
        """Push blocked cubes forward; returns the convergence level if
        two adjacent frames become equal."""
        for k in range(1, self.top):
            for cube in list(self.frames[k]):
                if cube not in self.frames[k]:
                    continue  # removed by subsumption meanwhile
                ok, info = self._consecution(cube, k)
                if ok:
                    shrunk = self._repair_init(normalize_cube(info), cube)
                    self.frames[k] = [c for c in self.frames[k] if c != cube]
                    self._add_blocked_cube(shrunk, k + 1)
                    self.stats["cubes_pushed"] += 1
            if not self.frames[k]:
                return k
        return None

    # ------------------------------------------------------------------
    # Counterexample / invariant construction
    # ------------------------------------------------------------------
    def _build_trace(self, head: _Obligation) -> Trace:
        inputs: list[dict[int, bool]] = []
        node: _Obligation | None = head
        while node is not None:
            inputs.append(dict(node.inputs))
            node = node.succ
        uninit = {}
        for i, latch in enumerate(self.ts.latches):
            if latch.init is None:
                uninit[latch.lit] = head.witness[i]
        trace = Trace(inputs=inputs, uninit=uninit, property_name=self.prop.name)
        # Lifting with relaxed constraints can make the target property
        # fail earlier than the last frame on the concrete replay; the
        # prefix up to the first failure is still a genuine CEX.
        fail_at = trace.failure_frame(self.ts.aig, self.prop.lit)
        if fail_at is None:
            raise RuntimeError(
                f"IC3 counterexample for {self.prop.name} does not refute it"
            )
        if fail_at < len(inputs) - 1:
            trace = trace.truncated(fail_at + 1)
        return trace

    def _invariant_clauses(self, conv_level: int) -> list[Clause]:
        clauses: list[Clause] = list(self._seeds)
        for level in range(conv_level + 1, len(self.frames)):
            for cube in self.frames[level]:
                clauses.append(negate_cube(cube))
        return clauses

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self) -> EngineResult:
        try:
            return self._solve_main()
        except _BudgetExhausted:
            return self._result(PropStatus.UNKNOWN, frames=self.top)

    def _solve_main(self) -> EngineResult:
        # Depth-1 check: does the property fail at an initial state?
        init_solver = self._new_solver()
        init_enc = self.ts.encode_cone(init_solver, "init", self.prop.name)
        status = self._solve(init_solver, [-init_enc.prop_curr[self.prop.name]])
        if status == Status.UNKNOWN:
            raise _BudgetExhausted()
        if status == Status.SAT:
            inputs = {
                inp: bool(init_solver.value(var))
                for inp, var in init_enc.inputs.items()
            }
            uninit = {}
            for i, latch in enumerate(self.ts.latches):
                if latch.init is None:
                    uninit[latch.lit] = bool(init_solver.value(init_enc.curr[i]))
            trace = Trace(inputs=[inputs], uninit=uninit, property_name=self.prop.name)
            return self._finish_cex(trace)

        if not self.ts.latches:
            # Purely combinational design: the single (empty) state is
            # both initial and invariant, and the init check just passed.
            return self._result(PropStatus.HOLDS, frames=1, invariant=[])

        while True:
            budget = self.options.budget
            if budget is not None and budget.exhausted():
                raise _BudgetExhausted()
            hit = self._query_bad()
            if hit is not None:
                state, inputs = hit
                cube = self._lift_bad(state, inputs)
                ob = _Obligation(cube=cube, inputs=inputs, witness=state, succ=None)
                if self.ts.cube_intersects_init(cube):
                    ob.witness = self._init_witness(cube)
                    return self._finish_cex(self._build_trace(ob))
                head = self._block(ob)
                if head is not None:
                    return self._finish_cex(self._build_trace(head))
                continue
            # Frame is clean; unfold one more level.
            if self.top >= self.options.max_frames:
                return self._result(PropStatus.UNKNOWN, frames=self.top)
            self.frames.append([])
            self._emit(FrameAdvanced(name=self.prop.name, frame=self.top))
            if budget is not None:
                self._emit(
                    BudgetCheckpoint(
                        scope=self.prop.name,
                        elapsed=budget.elapsed(),
                        conflicts=budget.conflicts_used,
                    )
                )
            conv = self._propagate()
            if conv is not None:
                clauses = self._invariant_clauses(conv)
                # I ⊆ F, F ⊆ P, F ∧ C ∧ T ⊆ F' — rejected only through
                # unsound seeds (see module docstring).
                certifier = self.options.certifier
                if certifier is None:
                    certifier = Certifier(self.ts, self.options.solver_backend)
                report = certifier.certify(
                    self.prop.name, clauses, self.options.assumed
                )
                if not report.valid:
                    raise SeedCertificateError(report.reason)
                return self._result(
                    PropStatus.HOLDS, frames=self.top, invariant=clauses
                )

    def _finish_cex(self, trace: Trace) -> EngineResult:
        if not trace.validate(self.ts.aig, self.prop.lit):
            raise RuntimeError(
                f"IC3 produced an invalid counterexample for {self.prop.name}"
            )
        return self._result(PropStatus.FAILS, frames=len(trace), cex=trace)

    def _result(
        self,
        status: PropStatus,
        frames: int,
        cex: Trace | None = None,
        invariant: list[Clause] | None = None,
    ) -> EngineResult:
        self.stats["clause_insertions"] = self.clause_insertions()
        return EngineResult(
            status=status,
            prop_name=self.prop.name,
            cex=cex,
            invariant=invariant,
            frames=frames,
            assumed=[p.name for p in self.assumed_props],
            time_seconds=time.monotonic() - self._start_time,
            stats=dict(self.stats),
        )


class _BudgetExhausted(Exception):
    """Internal: a budget ran out mid-run."""


def ic3_check(
    ts: TransitionSystem,
    prop_name: str,
    options: IC3Options | None = None,
) -> EngineResult:
    """Convenience wrapper: run IC3 on one property."""
    return IC3(ts, prop_name, options).solve()
