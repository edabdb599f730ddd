"""The local proof: the paper's one per-property step, defined once.

Every driver that decides a property with IC3 — sequential ``ja`` and
``separate`` (:class:`~repro.multiprop.ja.JAVerifier`) and a pool
seat's IC3 job (:mod:`repro.parallel.worker`) — calls :func:`prove`:

1. run IC3 on the property under the given assumption set, seeded from
   the clauseDB (Section 6).  A proof that reuses no clauses runs on its
   cone of influence: an assumption whose support never meets the
   target's cone cannot change its local verdict, and no other proof
   reads the cone, so it is built for this proof and dropped after it
   (the caller's :class:`~repro.multiprop.cones.ConeMemo` keeps only
   the support fixpoint).  With ``coi_reduction`` a proof that does
   reuse clauses runs on its cone too, memoized in that memo;
2. replay a counterexample against the assumed properties; if one of
   them fails strictly before the target, the trace is spurious for the
   local semantics (Section 7-A) and the proof is re-run one rung up
   the ladder: first without the COI reduction, then with
   constraint-respecting lifting, as Ic3-db does;
3. if the engine's certificate check rejects the invariant (seeds
   proven under a different assumption set), re-run without seeds;
4. export the invariant to the clauseDB and build the
   :class:`~repro.multiprop.report.PropOutcome`.

With an empty assumption set the same function is a *global* proof
(``local=False``): nothing can be spurious and every seed is sound.

:class:`~repro.config.ProofOptions` is the one declaration of the knobs
this step reads: a driver projects its
:class:`~repro.config.VerificationConfig` onto it once
(``config.proof_options()``) and the pool ships it to the seats as is.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..config import ProofOptions
from ..engines.certify import Certifier
from ..engines.ic3 import IC3Options, SeedCertificateError, ic3_check
from ..engines.result import EngineResult, PropStatus, ResourceBudget
from ..progress import (
    ClauseExport,
    Emit,
    PropertyStarted,
    emit_or_null,
)
from ..ts.system import TransitionSystem
from .clausedb import ClauseDB
from .cones import ConeMemo, build_cone
from .report import PropOutcome


def outcome_of(
    ts: TransitionSystem,
    result: EngineResult,
    *,
    local: bool = True,
    assumed: Sequence[str] | None = None,
    reruns: int = 0,
    engine: str | None = None,
) -> PropOutcome:
    """The :class:`PropOutcome` of one engine result, witnesses included.

    ``assumed`` defaults to what the engine ran under; the ladder passes
    the full set when a COI reduction made the engine see fewer.
    """
    name = result.prop_name
    return PropOutcome(
        name=name,
        status=result.status,
        local=local,
        frames=result.frames,
        time_seconds=result.time_seconds,
        cex_depth=len(result.cex) if result.cex is not None else None,
        assumed=list(result.assumed if assumed is None else assumed),
        reruns=reruns,
        expected_to_fail=ts.prop_by_name[name].expected_to_fail,
        engine=engine,
        invariant=result.invariant,
        cex=result.cex,
    )


def prove(
    ts: TransitionSystem,
    name: str,
    assumed: Sequence[str],
    options: ProofOptions,
    db: ClauseDB | None = None,
    emit: Emit | None = None,
    *,
    local: bool = True,
    budget: ResourceBudget | None = None,
    certifier: Certifier | None = None,
    cones: ConeMemo | None = None,
) -> tuple[PropOutcome, EngineResult]:
    """Decide ``name`` under ``assumed``: the ladder, the export, the events.

    Emits ``PropertyStarted``, the engine's own progress, ``ClauseExport``
    and ``PropertySolved``.  ``db`` is read for seeds and receives the
    invariant only when ``options.clause_reuse`` is set.  ``budget``,
    when given, bounds the whole ladder (a pool seat's, which carries its
    stop check; a race's slice); by default every rung gets a fresh
    ``options.budget()``.  ``certifier`` is the caller's run certifier
    on ``ts``; a COI rung proves and certifies on the cone, kept in
    ``cones`` (the caller's memo, by default a fresh one) only when the
    proof reuses clauses.
    """
    send = emit_or_null(emit)
    assumed = list(assumed)
    send(PropertyStarted(name=name, assumed=tuple(assumed)))
    reuse = options.clause_reuse and db is not None
    seeds = db.clauses() if reuse else ()
    assumed_lits = {n: ts.prop_by_name[n].lit for n in assumed}
    respect = options.respect_constraints_in_lifting
    use_coi = options.coi_reduction or not options.clause_reuse
    if use_coi and cones is None:
        cones = ConeMemo()
    reruns = 0
    while True:
        result = _run_ic3(
            ts, name, assumed, options, respect, use_coi, seeds, send, budget, certifier, cones
        )
        if result.status is not PropStatus.FAILS or not assumed:
            break
        fail_frame, _ = result.cex.first_failures(ts.aig, assumed_lits)
        if fail_frame is None or fail_frame >= len(result.cex) - 1:
            break
        # Spurious for the local semantics: an assumed property fails
        # strictly before the target does.
        if use_coi:
            # A dropped assumption (or relaxed lifting) broke the
            # trace: retry on the full design first.
            use_coi = False
        elif not respect:
            # Re-run with lifting that respects the constraints (Sec. 7-A).
            respect = True
        else:
            break
        reruns += 1
    if reuse and result.status is PropStatus.HOLDS and result.invariant is not None:
        exported = db.add_all(result.invariant)
        if exported:
            send(ClauseExport(name=name, count=exported))
    outcome = outcome_of(ts, result, local=local, assumed=assumed, reruns=reruns)
    send(outcome.solved_event())
    return outcome, result


def _run_ic3(
    ts: TransitionSystem,
    name: str,
    assumed: list[str],
    options: ProofOptions,
    respect: bool,
    use_coi: bool,
    seeds: Sequence,
    emit: Emit,
    budget: ResourceBudget | None,
    certifier: Certifier | None,
    cones: ConeMemo | None,
) -> EngineResult:
    """One rung: one IC3 run, translated back from its COI reduction."""
    run_ts, run_assumed, run_seeds, run_certifier, reduction = ts, assumed, seeds, certifier, None
    if use_coi:
        # Only the assumptions support-connected to the target stay:
        # sound for proofs, and counterexamples are re-validated.
        design = cones.design(ts)
        if options.clause_reuse:
            cone = cones.cone(ts, design, name, assumed)
            run_certifier = cones.certifier(cone, options.solver_backend)
        else:
            # No other proof reads this cone: build it, prove, drop it.
            cone = build_cone(ts, name, cones.kept(ts, design, name, assumed))
            run_certifier = Certifier(cone.ts, options.solver_backend)
        run_ts, run_assumed, reduction = cone.ts, list(cone.kept), cone.reduction
        # Seeds that mention a latch outside the cone are dropped.
        run_seeds = reduction.clauses_to_cone(seeds)
    ic3_opts = IC3Options(
        assumed=run_assumed,
        respect_constraints_in_lifting=respect,
        seed_clauses=run_seeds,
        budget=budget if budget is not None else options.budget(),
        max_frames=options.max_frames,
        ctg=options.ctg,
        solver_backend=options.solver_backend,
        emit=emit,
        certifier=run_certifier,
    )
    try:
        result = ic3_check(run_ts, name, ic3_opts)
    except SeedCertificateError as exc:
        if not seeds:
            raise RuntimeError(
                f"IC3 certificate failed without seeds on {name}"
            ) from exc
        # Poisoned seeds (possible when mixing invariants proven under
        # different assumption sets): retry from scratch without them.
        result = _run_ic3(
            ts, name, assumed, options, respect, use_coi, (), emit, budget, certifier, cones
        )
        result.stats["certificate_retry"] = 1
        return result
    if reduction is not None:
        if result.cex is not None:
            result.cex = reduction.trace_from_cone(result.cex)
        if result.invariant is not None:
            result.invariant = reduction.clauses_from_cone(result.invariant)
    return result
