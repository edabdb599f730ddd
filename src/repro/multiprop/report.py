"""Aggregated multi-property verification reports and table rendering.

Every driver (JA, joint, separate) returns a :class:`MultiPropReport`;
the CLI renders its tables with :func:`render_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..engines.result import PropStatus
from ..progress import PropertySolved


@dataclass
class PropOutcome:
    """Final verdict for one property under one driver."""

    name: str
    status: PropStatus
    local: bool  # True if the verdict is w.r.t. T^P (local), False if global
    frames: int = 0
    time_seconds: float = 0.0
    cex_depth: int | None = None
    assumed: list[str] = field(default_factory=list)
    reruns: int = 0  # spurious-CEX re-runs with respecting lifting
    expected_to_fail: bool = False  # ETF properties (Section 5)
    engine: str | None = None  # which engine produced the verdict (portfolio)
    errors: list[str] = field(default_factory=list)  # engines that raised (portfolio)
    # Witnesses, carried so the proof cache can persist and re-certify
    # them.  Deliberately kept off the network report wire (traces stay
    # server-side; see repro/net/codec.py).
    invariant: list | None = None  # strengthening clauses for HOLDS
    cex: object | None = None  # Trace for FAILS

    def solved_event(self) -> PropertySolved:
        """The progress event announcing this verdict."""
        return PropertySolved(
            name=self.name,
            status=self.status,
            local=self.local,
            time_seconds=self.time_seconds,
            cex_depth=self.cex_depth,
            assumed=tuple(self.assumed),
        )


@dataclass
class MultiPropReport:
    """Outcome of a whole multi-property verification run."""

    method: str
    design: str
    outcomes: dict[str, PropOutcome] = field(default_factory=dict)
    total_time: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)

    # -- counters used by the paper's tables ---------------------------
    @property
    def num_props(self) -> int:
        return len(self.outcomes)

    def solved(self) -> list[PropOutcome]:
        return [o for o in self.outcomes.values() if o.status is not PropStatus.UNKNOWN]

    def unsolved(self) -> list[PropOutcome]:
        return [o for o in self.outcomes.values() if o.status is PropStatus.UNKNOWN]

    def false_props(self) -> list[str]:
        return sorted(
            o.name for o in self.outcomes.values() if o.status is PropStatus.FAILS
        )

    def true_props(self) -> list[str]:
        return sorted(
            o.name for o in self.outcomes.values() if o.status is PropStatus.HOLDS
        )

    def debugging_set(self) -> list[str]:
        """ETH properties proved false *locally* (empty for global methods).

        ETF properties are excluded: their failures are expected
        behaviour (reachability witnesses), not bugs to fix (Section 5).
        """
        return sorted(
            o.name
            for o in self.outcomes.values()
            if o.status is PropStatus.FAILS and o.local and not o.expected_to_fail
        )

    def etf_confirmed(self) -> list[str]:
        """ETF properties whose expected failure was witnessed."""
        return sorted(
            o.name
            for o in self.outcomes.values()
            if o.status is PropStatus.FAILS and o.expected_to_fail
        )

    def summary(self) -> str:
        n_false = len(self.false_props())
        n_true = len(self.true_props())
        n_unk = len(self.unsolved())
        return (
            f"{self.method}[{self.design}]: {n_false} false, {n_true} true, "
            f"{n_unk} unsolved, {self.total_time:.2f}s"
        )


def format_time(seconds: float) -> str:
    """Render a duration the way the paper's tables do."""
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} h"
    if seconds >= 100:
        return f"{seconds:,.0f} s"
    return f"{seconds:.2f} s"


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str = "",
) -> str:
    """Fixed-width table rendering for benchmark output."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title]
    if note:
        lines.append(note)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
