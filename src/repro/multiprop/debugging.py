"""Debugging-set analysis (paper Sections 3, 4 and 8).

Utilities that interpret the output of JA-verification the way the
paper's narrative does, and empirical validators for the theory's
propositions (used both by the test-suite and by users who want a
machine-checked debugging report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..engines.result import PropStatus
from ..ts.system import TransitionSystem
from ..ts.trace import Trace
from .report import MultiPropReport


@dataclass
class DebuggingReport:
    """Interpretation of a JA run for the design-debugging workflow."""

    debugging_set: list[str]
    locally_true: list[str]
    unsolved: list[str]
    cex_depths: dict[str, int] = field(default_factory=dict)
    etf_confirmed: list[str] = field(default_factory=list)
    etf_unconfirmed: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        """True iff every ETH property was proved (locally, hence globally)."""
        return not self.debugging_set and not self.unsolved

    def narrative(self) -> str:
        """A human-readable summary in the paper's terms."""
        lines = []
        if self.all_hold:
            lines.append(
                "All properties hold locally; by Proposition 5 they all "
                "hold globally — the design is correct w.r.t. this set."
            )
        if self.debugging_set:
            lines.append(
                f"Debugging set: {{{', '.join(self.debugging_set)}}} — these "
                "properties fail first; fix the behaviours they expose before "
                "looking at anything else."
            )
        if self.locally_true:
            lines.append(
                f"{len(self.locally_true)} properties hold locally: each either "
                "holds globally or only fails after a debugging-set property "
                "has already failed."
            )
        if self.unsolved:
            lines.append(f"Unsolved within budget: {', '.join(self.unsolved)}.")
        if self.etf_confirmed:
            lines.append(
                f"Expected-to-fail properties confirmed (reachability "
                f"witnessed): {', '.join(self.etf_confirmed)}."
            )
        if self.etf_unconfirmed:
            lines.append(
                f"WARNING: expected-to-fail properties that actually HOLD "
                f"locally: {', '.join(self.etf_unconfirmed)} — the intended "
                "behaviour is unreachable without another property failing first."
            )
        return "\n".join(lines)


def debugging_report(report: MultiPropReport) -> DebuggingReport:
    """Distill a JA :class:`MultiPropReport` into a debugging report.

    The debugging set and the confirmed ETF properties are the report's
    own (:meth:`~MultiPropReport.debugging_set`,
    :meth:`~MultiPropReport.etf_confirmed`).
    """
    locally_true, unsolved, etf_unconfirmed = [], [], []
    depths: dict[str, int] = {}
    for outcome in report.outcomes.values():
        if outcome.status is PropStatus.FAILS:
            if outcome.cex_depth is not None:
                depths[outcome.name] = outcome.cex_depth
        elif outcome.status is PropStatus.HOLDS:
            if outcome.expected_to_fail:
                etf_unconfirmed.append(outcome.name)
            else:
                locally_true.append(outcome.name)
        else:
            unsolved.append(outcome.name)
    return DebuggingReport(
        debugging_set=report.debugging_set(),
        locally_true=sorted(locally_true),
        unsolved=sorted(unsolved),
        cex_depths=depths,
        etf_confirmed=report.etf_confirmed(),
        etf_unconfirmed=sorted(etf_unconfirmed),
    )


def check_proposition6(
    ts: TransitionSystem,
    debugging_set: Sequence[str],
    cex: Trace,
) -> bool:
    """Empirically check Proposition 6 on one aggregate counterexample.

    Given a CEX for the aggregate property, its final state must falsify
    at least one property of the debugging set.  Used by the tests to
    validate computed debugging sets against independently found CEXs.
    """
    eth = {p.name: p.lit for p in ts.eth_properties()}
    frame, failed = cex.first_failures(ts.aig, eth)
    if frame is None:
        return True  # not an aggregate CEX at all
    return any(name in set(debugging_set) for name in failed)
