"""Joint verification of the aggregate property (the paper's Jnt-ver).

Verify ``P := P1 ∧ ... ∧ Pk`` with IC3.  If ``P`` holds, all properties
hold.  If a counterexample is found, the properties falsified at its
final frame are reported false; they are removed, a new aggregate is
formed from the survivors, and the procedure re-iterates (Section 9's
Jnt-ver behaviour) until everything is solved or the budget runs out.

This is the baseline the paper compares JA-verification against; its
weaknesses on designs with many heterogeneous or failing properties are
exactly what Tables II and III measure.  The loop is
:func:`verify_jointly`: ``joint`` runs it once on the whole design,
``clustered`` once per cone cluster, both on the run's one budget.
"""

from __future__ import annotations

import pickle
from collections.abc import Sequence

from ..circuit.aig import Property
from ..config import VerificationConfig, resolve_order
from ..engines.ic3 import IC3Options, ic3_check
from ..engines.result import PropStatus, ResourceBudget
from ..progress import (
    BudgetCheckpoint,
    Emit,
    PropertyStarted,
    emit_or_null,
)
from ..ts.system import TransitionSystem
from .ordering import design_order
from .report import MultiPropReport, PropOutcome

_AGGREGATE_PREFIX = "__aggregate"


def verify_jointly(
    ts: TransitionSystem,
    names: Sequence[str],
    budget: ResourceBudget,
    report: MultiPropReport,
    config: VerificationConfig,
    send: Emit,
) -> int:
    """Jnt-ver's loop over ``names`` of ``ts``, filling ``report``.

    Proves the aggregate of the names with IC3 on ``budget``, drops
    the properties a counterexample refutes and re-iterates on the
    survivors.  Every one of ``names`` left without a verdict when the
    budget ran out is reported UNKNOWN.  Returns the number of
    aggregate proofs run.

    The aggregates' AND gates go into one private copy of the AIG
    (same node numbering, so the same encoding and search): the
    caller's design, and every digest of it, stays as it was.
    """
    wanted = set(names)
    remaining: list[Property] = [p for p in ts.properties if p.name in wanted]
    aig = pickle.loads(pickle.dumps(ts.aig, pickle.HIGHEST_PROTOCOL))
    iteration = 0

    def record(prop_name: str, status: PropStatus, **kwargs: object) -> None:
        etf = ts.prop_by_name[prop_name].expected_to_fail
        outcome = PropOutcome(
            name=prop_name, status=status, local=False, expected_to_fail=etf, **kwargs
        )
        report.outcomes[prop_name] = outcome
        send(outcome.solved_event())

    while remaining and not budget.exhausted():
        iteration += 1
        aggregate_name = f"{_AGGREGATE_PREFIX}_{iteration}"
        aggregate_lit = aig.and_many(p.lit for p in remaining)
        # Not registered on the AIG: the aggregate is private to this view.
        agg_prop = Property(name=aggregate_name, lit=aggregate_lit)
        view = TransitionSystem(aig, properties=[agg_prop])
        send(PropertyStarted(name=aggregate_name))
        result = ic3_check(
            view,
            aggregate_name,
            IC3Options(
                budget=budget,
                max_frames=config.max_frames,
                ctg=config.ctg,
                solver_backend=config.solver_backend,
                emit=send,
            ),
        )
        elapsed = budget.elapsed()
        send(
            BudgetCheckpoint(
                scope="total", elapsed=elapsed, conflicts=budget.conflicts_used
            )
        )
        if result.status is PropStatus.HOLDS:
            for p in remaining:
                record(
                    p.name,
                    PropStatus.HOLDS,
                    frames=result.frames,
                    time_seconds=elapsed,
                )
            remaining = []
        elif result.status is PropStatus.FAILS:
            # The CEX's final frame falsifies the aggregate; report every
            # individual property false at its first failure frame (which
            # is the final frame — earlier aggregate failures would have
            # produced a shorter CEX).
            lits = {p.name: p.lit for p in remaining}
            _, failed_names = result.cex.first_failures(ts.aig, lits)
            if not failed_names:
                raise RuntimeError("joint CEX refutes no individual property")
            for name in failed_names:
                record(
                    name,
                    PropStatus.FAILS,
                    frames=result.frames,
                    time_seconds=elapsed,
                    cex_depth=len(result.cex),
                )
            remaining = [p for p in remaining if p.name not in failed_names]
        else:  # UNKNOWN: budget exhausted
            break

    for name in names:
        if name not in report.outcomes:
            record(name, PropStatus.UNKNOWN)
    return iteration


def joint_verify(
    ts: TransitionSystem,
    config: VerificationConfig | None = None,
    emit: Emit | None = None,
) -> MultiPropReport:
    """Joint verification of the aggregate property (Jnt-ver, Sec. 9).

    Returns per-property global verdicts for the properties ``order``
    names (default: all).  The budgets are the run's (``total_time``,
    ``total_conflicts``): one aggregate proof has no per-property step
    to budget.
    """
    config = config or VerificationConfig()
    report = MultiPropReport(method="joint", design=config.design_name)
    budget = ResourceBudget(
        time_limit=config.total_time, conflict_limit=config.total_conflicts
    )
    names = resolve_order(ts, config.order) or design_order(ts)
    iterations = verify_jointly(ts, names, budget, report, config, emit_or_null(emit))
    report.total_time = budget.elapsed()
    report.stats = {"iterations": iterations, "conflicts": budget.conflicts_used}
    return report
