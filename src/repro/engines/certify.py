"""Standalone certification of verification results.

Every answer an engine can give has an independently checkable
certificate:

* FAILS  → a :class:`~repro.ts.trace.Trace`, replayed on the concrete
  simulator (optionally also checking local-CEX side conditions);
* HOLDS  → an inductive invariant, checked with fresh SAT queries
  against the (possibly constrained) transition relation.

The engines already self-check; this module exposes the checks as a
public API so users can re-certify stored results, cross-check foreign
tools' invariants, or audit a clauseDB.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..sat import Status, create_solver
from ..ts.system import Clause, TransitionSystem, negate_cube
from ..ts.trace import Trace


@dataclass
class CertificateReport:
    """Outcome of a certification check."""

    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.valid


def certify_invariant(
    ts: TransitionSystem,
    prop_name: str,
    clauses: Sequence[Clause],
    assumed: Sequence[str] = (),
    solver_backend: str | None = None,
) -> CertificateReport:
    """Check that ``clauses`` certify ``prop_name`` (under ``assumed``).

    Verifies the three inductive-invariant conditions for ``F = ⋀ clauses``:

    1. ``I ⊆ F`` — every clause holds in all initial states;
    2. ``F ∧ C ∧ T ⊆ F'`` — F is closed under the (constrained)
       transition relation, where C asserts the assumed properties on
       the source frame;
    3. ``F ⊆ P`` — no F-state falsifies the property under any input.

    Condition 2 runs on the design's full step frame: an invariant may
    mention any latch, so the check reads every next-state function and
    stays independent of the slice an engine worked on.  Condition 3
    runs on the bad frame projected onto the property's cone
    (:meth:`~repro.ts.system.TransitionSystem.encode_cone`): every latch
    keeps its variable, so F's clauses load as they are, and the other
    properties' cones could only add definitions that are satisfiable
    for every state.

    A valid certificate proves the property holds *locally* w.r.t. the
    assumption set (globally when ``assumed`` is empty).
    """
    prop = ts.prop_by_name.get(prop_name)
    if prop is None:
        return CertificateReport(False, f"unknown property {prop_name!r}")
    normalized: list[Clause] = []
    for clause in clauses:
        clause = tuple(clause)
        if not ts.clause_holds_at_init(clause):
            return CertificateReport(
                False, f"clause {clause} does not hold at the initial states"
            )
        normalized.append(clause)

    solver = create_solver(solver_backend)
    enc = ts.encode_step(solver)
    for name in assumed:
        if name not in ts.prop_by_name:
            return CertificateReport(False, f"unknown assumed property {name!r}")
        solver.add_clause([enc.prop_curr[name]])
    for clause in normalized:
        solver.add_clause(enc.clause_lits_curr(clause))
    # One aggregate consecution query: F ∧ C ∧ T ∧ (∨ ¬c') is UNSAT
    # exactly when every clause is inductive relative to the set.  A
    # selector variable per clause encodes its next-state violation, an
    # activation literal keeps the disjunction out of later queries, and
    # the per-clause checks run only on failure — to name the offender.
    selectors = []
    for clause in normalized:
        selector = solver.new_var()
        for lit in enc.cube_lits_next(negate_cube(clause)):
            solver.add_clause([-selector, lit])
        selectors.append(selector)
    activate = solver.new_var()
    solver.add_clause([-activate, *selectors])
    if solver.solve([activate]) != Status.UNSAT:
        for clause in normalized:
            cube = negate_cube(clause)
            if solver.solve(enc.cube_lits_next(cube)) != Status.UNSAT:
                return CertificateReport(
                    False, f"clause {clause} is not inductive relative to the set"
                )
        return CertificateReport(  # unreachable unless the solver lies
            False, "invariant is not inductive relative to the set"
        )

    bad_solver = create_solver(solver_backend)
    bad_enc = ts.encode_cone(bad_solver, "bad", prop_name)
    for clause in normalized:
        bad_solver.add_clause(bad_enc.clause_lits_curr(clause))
    if bad_solver.solve([-bad_enc.prop_curr[prop_name]]) != Status.UNSAT:
        return CertificateReport(
            False, "invariant does not imply the property"
        )
    return CertificateReport(True, f"{len(normalized)} clauses certify {prop_name}")


def certify_cex(
    ts: TransitionSystem,
    prop_name: str,
    trace: Trace,
    assumed: Sequence[str] = (),
) -> CertificateReport:
    """Check a counterexample trace, including local-CEX side conditions.

    The trace must drive the property to FALSE exactly at its final
    frame; when ``assumed`` is given, no assumed property may fail
    *strictly before* that frame (otherwise the trace is spurious as a
    ``T^P`` counterexample, even though it may refute the property
    globally).
    """
    prop = ts.prop_by_name.get(prop_name)
    if prop is None:
        return CertificateReport(False, f"unknown property {prop_name!r}")
    if not trace.inputs:
        return CertificateReport(False, "empty trace")
    fail_at = trace.failure_frame(ts.aig, prop.lit)
    if fail_at is None:
        return CertificateReport(False, "trace never falsifies the property")
    if fail_at != len(trace) - 1:
        return CertificateReport(
            False,
            f"property first fails at frame {fail_at}, not the final frame "
            f"{len(trace) - 1}",
        )
    if assumed:
        lits = {}
        for name in assumed:
            if name not in ts.prop_by_name:
                return CertificateReport(False, f"unknown assumed property {name!r}")
            lits[name] = ts.prop_by_name[name].lit
        frame, failed = trace.first_failures(ts.aig, lits)
        if frame is not None and frame < len(trace) - 1:
            return CertificateReport(
                False,
                f"assumed properties {failed} fail at frame {frame}, before "
                "the target: spurious as a local counterexample",
            )
    return CertificateReport(True, f"depth-{len(trace)} counterexample for {prop_name}")
