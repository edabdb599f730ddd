"""Standalone certification of verification results.

Every answer an engine can give has an independently checkable
certificate:

* FAILS  → a :class:`~repro.ts.trace.Trace`, replayed on the concrete
  simulator (optionally also checking local-CEX side conditions);
* HOLDS  → an inductive invariant, checked with SAT queries against the
  (possibly constrained) transition relation.

The engines already self-check; this module exposes the checks as a
public API so users can re-certify stored results, cross-check foreign
tools' invariants, or audit a clauseDB.

A run that certifies many proofs of one design — the k local proofs of
a ``ja`` run, a pool seat's jobs — keeps one :class:`Certifier`.  It
holds one full-step consecution solver per assumption set, loaded on
its first query, and two facts keep that solver set small and its
queries short:

* **Set extension.**  Once ``F ⊆ P`` is checked, ``F ∧ A ∧ T ⊆ F'``
  holds exactly when ``F ∧ (A ∪ {P}) ∧ T ⊆ F'`` does: every F-state
  satisfies P under every input, so asserting P on the source frame
  removes no transition out of F.  A target that is itself assumable
  (Expected To Hold) therefore joins a non-empty set, and all k targets
  of a ``ja`` run share one set, the ETH properties (an ETF target's set
  already is that); a global run's targets share the empty set.
* **Proof reuse.**  If the clauses of H were proved inductive relative
  to H under a set, and ``H ⊆ F`` as clause sets, then
  ``F ∧ S ∧ T ⊆ H ∧ S ∧ T ⊆ H'``: only the clauses of ``F \\ H`` still
  need a consecution query.  Under the paper's clause reuse every later
  invariant of a run contains the earlier ones (the clauseDB seeds each
  IC3 run and gets its whole invariant back), so each certificate pays
  for its new clauses only.  The proved invariants are clause sets, kept
  apart from the solvers in a :class:`ProvenInvariants` a certifier can
  be handed: each cone keeps one per solver backend
  (:class:`~repro.multiprop.cones.Cone`), for its COI proofs and cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections.abc import Sequence

from ..circuit.simulate import Simulator
from ..sat import SatBackend, Status, create_solver
from ..ts.system import Clause, StepEncoding, TransitionSystem, negate_cube
from ..ts.trace import Trace


@dataclass
class CertificateReport:
    """Outcome of a certification check."""

    valid: bool
    reason: str = ""
    #: A valid invariant whose every clause a proved invariant it
    #: contains covered: its consecution needed no query.
    reused: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.valid


class ProvenInvariants:
    """Invariants proved inductive, per assumption set, as clause sets.

    Every clause of each invariant H kept for a set was proved inductive
    relative to H under that set.  A superset replaces what it contains.
    One may be shared by certifiers of one design (one backend) on
    several threads: a lookup reads a tuple that is never mutated, and
    an update replaces the set's tuple under a lock.
    """

    def __init__(self) -> None:
        self._by_set: dict[frozenset, tuple[frozenset, ...]] = {}
        self._lock = threading.Lock()

    def covered(self, key: frozenset, invariant: frozenset) -> set:
        """The clauses of ``invariant`` proved under ``key`` by an
        invariant it contains."""
        proved: set = set()
        for hypothesis in self._by_set.get(key, ()):
            if hypothesis <= invariant:
                proved |= hypothesis
        return proved

    def add(self, key: frozenset, invariant: frozenset) -> None:
        """Record ``invariant`` as proved under ``key``."""
        with self._lock:
            kept = [h for h in self._by_set.get(key, ()) if not h <= invariant]
            self._by_set[key] = (*kept, invariant)


class Certifier:
    """Certifies invariants of one design on one solver per assumption set.

    :meth:`certify` checks the three inductive-invariant conditions for
    ``F = ⋀ clauses``:

    1. ``I ⊆ F`` — every clause holds in all initial states (syntactic,
       clause by clause, after every literal is checked to name a latch);
    2. ``F ⊆ P`` — no F-state falsifies the property under any input;
    3. ``F ∧ C ∧ T ⊆ F'`` — F is closed under the (constrained)
       transition relation, where C asserts the assumed properties on
       the source frame.

    Condition 2 runs first, on a fresh solver loaded with the bad frame
    projected onto the property's cone
    (:meth:`~repro.ts.system.TransitionSystem.encode_cone`): every latch
    keeps its variable, so F's clauses load as they are, and the other
    properties' cones could only add definitions that are satisfiable
    for every state.  Condition 3 runs on the design's full step frame
    (an invariant may mention any latch), in the solver of its
    assumption set after the set extension (see the module docstring),
    with the set asserted as hard units.  F's clauses and the
    per-clause next-state violation selectors are added under one
    activation literal, retired when the check ends; one aggregate query
    ``F ∧ C ∧ T ∧ (∨ ¬c')`` over the clauses not already proved is UNSAT
    exactly when they are all inductive, and the per-clause queries run
    only on failure, to name the offender.  When :attr:`proven` covers
    every clause, condition 3 issues no query and loads no step frame.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        solver_backend: str | None = None,
        proven: ProvenInvariants | None = None,
    ) -> None:
        self.ts = ts
        self.solver_backend = solver_backend
        #: What this certifier and every other one handed ``proven`` proved.
        self.proven = proven if proven is not None else ProvenInvariants()
        #: The consecution solver of each assumption set, loaded on first
        #: query: an invariant ``proven`` covers loads none.
        self._sets: dict[frozenset, tuple[SatBackend, StepEncoding]] = {}

    def certify(
        self,
        prop_name: str,
        clauses: Sequence[Clause],
        assumed: Sequence[str] = (),
    ) -> CertificateReport:
        """Check that ``clauses`` certify ``prop_name`` (under ``assumed``).

        A valid certificate proves the property holds *locally* w.r.t.
        the assumption set (globally when ``assumed`` is empty).
        """
        ts = self.ts
        prop = ts.prop_by_name.get(prop_name)
        if prop is None:
            return CertificateReport(False, f"unknown property {prop_name!r}")
        for name in assumed:
            if name not in ts.prop_by_name:
                return CertificateReport(False, f"unknown assumed property {name!r}")
        latches = ts.num_state_vars
        normalized: list[Clause] = []
        for clause in clauses:
            clause = tuple(clause)
            for lit in clause:
                if not 1 <= abs(lit) <= latches:
                    return CertificateReport(
                        False,
                        f"clause {clause} names latch {abs(lit)}, but the design "
                        f"has latches 1..{latches}",
                    )
            if not ts.clause_holds_at_init(clause):
                return CertificateReport(
                    False, f"clause {clause} does not hold at the initial states"
                )
            normalized.append(clause)

        bad_solver = create_solver(self.solver_backend)
        bad_enc = ts.encode_cone(bad_solver, "bad", prop_name)
        for clause in normalized:
            bad_solver.add_clause(bad_enc.clause_lits_curr(clause))
        if bad_solver.solve([-bad_enc.prop_curr[prop_name]]) != Status.UNSAT:
            return CertificateReport(False, "invariant does not imply the property")

        key = frozenset(assumed)
        if key and not prop.expected_to_fail:
            key |= {prop_name}  # the set extension: F ⊆ P was just checked
        unique = list(dict.fromkeys(normalized))
        invariant = frozenset(unique)
        proved = self.proven.covered(key, invariant)
        fresh = [clause for clause in unique if clause not in proved]
        if fresh:
            reason = self._consecution(key, unique, fresh)
            if reason is not None:
                return CertificateReport(False, reason)
        self.proven.add(key, invariant)
        return CertificateReport(
            True,
            f"{len(normalized)} clauses certify {prop_name}",
            reused=bool(proved) and not fresh,
        )

    def _set_solver(self, key: frozenset) -> tuple[SatBackend, StepEncoding]:
        """The consecution solver of ``key``, loaded on first use."""
        entry = self._sets.get(key)
        if entry is None:
            solver = create_solver(self.solver_backend)
            enc = self.ts.encode_step(solver)
            for prop in self.ts.properties:
                if prop.name in key:
                    solver.add_clause([enc.prop_curr[prop.name]])
            entry = self._sets[key] = (solver, enc)
        return entry

    def _consecution(
        self, key: frozenset, clauses: list[Clause], fresh: list[Clause]
    ) -> str | None:
        """``F ∧ key ∧ T ⊆ F'`` for the ``fresh`` clauses of F?  ``None``
        if so, else why not."""
        solver, enc = self._set_solver(key)
        act = solver.new_activation()
        for clause in clauses:
            solver.add_clause([-act, *enc.clause_lits_curr(clause)])
        selectors = []
        for clause in fresh:
            selector = solver.new_var()
            for lit in enc.cube_lits_next(negate_cube(clause)):
                solver.add_clause([-act, -selector, lit])
            selectors.append(selector)
        solver.add_clause([-act, *selectors])
        inductive = solver.solve([act]) == Status.UNSAT
        offender = None
        if not inductive:
            offender = next(
                (
                    clause
                    for clause in fresh
                    if solver.solve([act, *enc.cube_lits_next(negate_cube(clause))])
                    != Status.UNSAT
                ),
                None,
            )
        solver.retire(act)
        if inductive:
            return None
        if offender is None:  # unreachable unless the solver lies
            return "invariant is not inductive relative to the set"
        return f"clause {offender} is not inductive relative to the set"


def certify_invariant(
    ts: TransitionSystem,
    prop_name: str,
    clauses: Sequence[Clause],
    assumed: Sequence[str] = (),
    solver_backend: str | None = None,
) -> CertificateReport:
    """Check that ``clauses`` certify ``prop_name`` (under ``assumed``).

    The one-shot form of :meth:`Certifier.certify`, on a certifier of
    its own: the same checks, nothing shared with any other call.
    """
    return Certifier(ts, solver_backend).certify(prop_name, clauses, assumed)


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
    # One replay: each frame evaluates the target and the known assumed
    # properties together, until the target fails.
    known = list(dict.fromkeys(name for name in assumed if name in ts.prop_by_name))
    lits = [prop.lit, *(ts.prop_by_name[name].lit for name in known)]
    sim = Simulator(ts.aig)
    sim.reset(trace.uninit)
    last, fail_at, spurious = len(trace) - 1, None, None
    for frame, frame_inputs in enumerate(trace.inputs):
        target, *values = sim.eval_lits(lits, frame_inputs)
        failed = sorted(name for name, ok in zip(known, values) if not ok)
        if failed and spurious is None and frame < last:
            spurious = (
                f"assumed properties {failed} fail at frame {frame}, before "
                "the target: spurious as a local counterexample"
            )
        if not target:
            fail_at = frame
            break
        sim.step(frame_inputs)
    if fail_at is None:
        return CertificateReport(False, "trace never falsifies the property")
    if fail_at != last:
        return CertificateReport(
            False,
            f"property first fails at frame {fail_at}, not the final frame {last}",
        )
    unknown = [name for name in assumed if name not in ts.prop_by_name]
    if unknown:
        return CertificateReport(False, f"unknown assumed property {unknown[0]!r}")
    if spurious is not None:
        return CertificateReport(False, spurious)
    return CertificateReport(True, f"depth-{len(trace)} counterexample for {prop_name}")
