"""Joint verification of the aggregate property (the paper's Jnt-ver).

Verify ``P := P1 ∧ ... ∧ Pk`` with IC3.  If ``P`` holds, all properties
hold.  If a counterexample is found, the properties falsified at its
final frame are reported false; they are removed, a new aggregate is
formed from the survivors, and the procedure re-iterates (Section 9's
Jnt-ver behaviour) until everything is solved or the budget runs out.

This is the baseline the paper compares JA-verification against; its
weaknesses on designs with many heterogeneous or failing properties are
exactly what Tables II and III measure.
"""

from __future__ import annotations

import time

from ..circuit.aig import Property
from ..config import VerificationConfig
from ..engines.ic3 import IC3Options, ic3_check
from ..engines.result import PropStatus, ResourceBudget
from ..progress import (
    BudgetCheckpoint,
    Emit,
    PropertyStarted,
    emit_or_null,
)
from ..ts.system import TransitionSystem
from .report import MultiPropReport, PropOutcome

_AGGREGATE_PREFIX = "__aggregate"


def joint_verify(
    ts: TransitionSystem,
    config: VerificationConfig | None = None,
    emit: Emit | None = None,
) -> MultiPropReport:
    """Joint verification of the aggregate property (Jnt-ver, Sec. 9).

    Returns per-property global verdicts.  The budgets are the run's
    (``total_time``, ``total_conflicts``): one aggregate proof has no
    per-property step to budget.
    """
    config = config or VerificationConfig()
    send: Emit = emit_or_null(emit)
    start = time.monotonic()
    report = MultiPropReport(method="joint", design=config.design_name)
    remaining: list[Property] = [
        p
        for p in ts.properties
        # The HWMCC sets do not mark ETF properties, hence the default.
        if config.include_etf or not p.expected_to_fail
    ]
    budget = ResourceBudget(
        time_limit=config.total_time, conflict_limit=config.total_conflicts
    )
    iteration = 0

    def record(prop_name: str, status: PropStatus, **kwargs: object) -> None:
        etf = ts.prop_by_name[prop_name].expected_to_fail
        outcome = PropOutcome(
            name=prop_name, status=status, local=False, expected_to_fail=etf, **kwargs
        )
        report.outcomes[prop_name] = outcome
        send(outcome.solved_event())

    while remaining:
        if budget.exhausted():
            break
        iteration += 1
        aggregate_name = f"{_AGGREGATE_PREFIX}_{iteration}"
        aggregate_lit = ts.aig.and_many(p.lit for p in remaining)
        # Not registered on the AIG: the aggregate is private to this view.
        agg_prop = Property(name=aggregate_name, lit=aggregate_lit)
        view = TransitionSystem(ts.aig, properties=[agg_prop])
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
                **config.engine,
            ),
        )
        elapsed = time.monotonic() - start
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

    # One pass covers both the budget-exhausted survivors and any ETF
    # properties excluded from the run: everything without a verdict is
    # reported UNKNOWN.
    for p in ts.properties:
        if p.name not in report.outcomes:
            record(p.name, PropStatus.UNKNOWN)
    report.total_time = time.monotonic() - start
    report.stats = {"iterations": iteration, "conflicts": budget.conflicts_used}
    return report
