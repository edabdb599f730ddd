"""Result types shared by all verification engines."""

from __future__ import annotations

import enum
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..ts.system import Clause
from ..ts.trace import Trace


class PropStatus(enum.Enum):
    """Verdict for one property under one verification regime."""

    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class EngineResult:
    """Outcome of running one engine on one property.

    Attributes
    ----------
    status:
        HOLDS / FAILS / UNKNOWN (budget exhausted).
    prop_name:
        The property that was checked.
    cex:
        Validated counterexample trace when ``status == FAILS``.
    invariant:
        When ``status == HOLDS`` and the engine produces proofs (IC3),
        the strengthening clauses (over state literals) such that
        ``P ∧ ⋀ invariant`` is inductive for the (possibly constrained)
        transition relation used.  Exactly the clauses the paper's
        clauseDB collects.
    frames:
        Frames unfolded: CEX depth for FAILS, convergence level for
        HOLDS, last explored bound for UNKNOWN.
    assumed:
        Names of the properties that were assumed (empty for global proofs).
    stats:
        Engine counters (SAT queries, conflicts, lift successes, ...).
    """

    status: PropStatus
    prop_name: str
    cex: Trace | None = None
    invariant: list[Clause] | None = None
    frames: int = 0
    assumed: list[str] = field(default_factory=list)
    time_seconds: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status is PropStatus.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is PropStatus.FAILS

    @property
    def unknown(self) -> bool:
        return self.status is PropStatus.UNKNOWN

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EngineResult({self.prop_name}: {self.status.value}, "
            f"frames={self.frames}, t={self.time_seconds:.3f}s)"
        )


class ResourceBudget:
    """A combined wall-clock / SAT-conflict budget shared by engine phases.

    The paper's experiments use per-property time limits; pure wall-clock
    limits make tests flaky, so budgets can also be expressed in SAT
    conflicts (deterministic).  Whichever limit is hit first wins.

    ``stop``, when given, is asked at every :meth:`exhausted` check too:
    once it returns true the budget counts as spent, so an engine gives
    up at its next check and returns UNKNOWN.  A pool seat passes one to
    let the parent stop a race's losing attempt.
    """

    def __init__(
        self,
        time_limit: float | None = None,
        conflict_limit: int | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        self.time_limit = time_limit
        self.conflict_limit = conflict_limit
        self.stop = stop
        self._start = time.monotonic()
        self.conflicts_used = 0

    def charge_conflicts(self, amount: int) -> None:
        self.conflicts_used += amount

    def exhausted(self) -> bool:
        if self.time_limit is not None and time.monotonic() - self._start > self.time_limit:
            return True
        if self.conflict_limit is not None and self.conflicts_used > self.conflict_limit:
            return True
        return self.stop is not None and self.stop()

    def elapsed(self) -> float:
        return time.monotonic() - self._start
