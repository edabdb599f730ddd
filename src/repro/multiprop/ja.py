"""JA-verification ("Just Assume"), the paper's core contribution (Sec. 4).

For each property ``Pi`` (in a configurable order), run IC3 on the
projected system ``(I, T^P)``: every other Expected-To-Hold property is
assumed as a constraint on transition sources.  The run either

* proves ``Pi`` *locally* — by Proposition 5, if every property is proved
  locally then every property holds globally; the strengthening clauses
  are exported to the clauseDB and re-used for later properties
  (Section 6), or
* finds a local counterexample — ``Pi`` joins the **debugging set**: its
  failure is not preceded by the failure of any other ETH property, so
  the behaviour it exposes must be fixed first (Section 3), or
* exhausts its per-property budget — ``Pi`` is reported unsolved, exactly
  like the time-limited rows of the paper's tables.

Spurious counterexamples (Section 7-A): with constraint-ignoring lifting
(the default, faster mode) the trace may contain a transition from a
state violating an assumed property.  The driver replays every CEX on
the design; if an assumed property fails strictly before the final
frame, the CEX is spurious for the local semantics and the property is
re-run with constraint-respecting lifting, as Ic3-db does.

ETF properties (Section 5): properties marked Expected To Fail are
checked like all others but never *assumed*, so legitimate failures are
not masked.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from collections.abc import Sequence

from ..engines.result import EngineResult, PropStatus
from ..progress import (
    BudgetCheckpoint,
    ClauseImport,
    Emit,
    PropertyStarted,
    emit_or_null,
)
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .clausedb import ClauseDB
from .local import ProofOptions, prove
from .ordering import checked_order
from .report import MultiPropReport, PropOutcome


@dataclass(frozen=True)
class JAOptions(ProofOptions):
    """Configuration of one sequential run: the proof knobs plus the loop's."""

    total_time: float | None = None
    order: Sequence[str] | None = None  # default: design order
    clause_db_path: str | None = None  # persist the clauseDB like Ja-ver


class JAVerifier:
    """The sequential loop over :func:`~repro.multiprop.local.prove`.

    With ``local=True`` (Ja-ver) every other ETH property is assumed
    while one is proved; with ``local=False`` nothing is, which is
    separate verification with global proofs — same loop, same clause
    re-use, method ``separate-global``.

    ``emit``, when given, receives typed :mod:`repro.progress` events
    (property started/solved, clauseDB exports, budget checkpoints, and
    the engine's frame advances).
    """

    def __init__(
        self,
        ts: TransitionSystem,
        options: JAOptions | None = None,
        emit: Emit | None = None,
        *,
        local: bool = True,
    ) -> None:
        self.ts = ts
        self.options = options or JAOptions()
        self.local = local
        self.clause_db = ClauseDB(ts)
        self.results: dict[str, EngineResult] = {}
        self._emit: Emit = emit_or_null(emit)

    # ------------------------------------------------------------------
    def run(self, design_name: str = "design") -> MultiPropReport:
        opts = self.options
        local = self.local
        start = time.monotonic()
        if opts.clause_db_path and opts.clause_reuse:
            self._load_clause_db(opts.clause_db_path)
        report = MultiPropReport(
            method="ja" if local else "separate-global", design=design_name
        )
        spurious_reruns = 0
        certificate_retries = 0
        for name in checked_order(self.ts, opts.order):
            if opts.total_time is not None and time.monotonic() - start > opts.total_time:
                outcome = PropOutcome(name=name, status=PropStatus.UNKNOWN, local=local)
                report.outcomes[name] = outcome
                self._emit(PropertyStarted(name=name))
                self._emit(outcome.solved_event())
                continue
            assumed = assumption_names(self.ts, name) if local else []
            outcome, result = prove(
                self.ts, name, assumed, opts, self.clause_db, self._emit, local=local
            )
            if opts.clause_db_path and opts.clause_reuse and result.holds:
                self.clause_db.save(opts.clause_db_path)
            spurious_reruns += outcome.reruns
            certificate_retries += int(result.stats.get("certificate_retry", 0))
            report.outcomes[name] = outcome
            self.results[name] = result
            self._emit(
                BudgetCheckpoint(
                    scope="total", elapsed=time.monotonic() - start
                )
            )

        report.total_time = time.monotonic() - start
        report.stats = {
            "spurious_reruns": spurious_reruns,
            "certificate_retries": certificate_retries,
            "clause_db_size": len(self.clause_db),
        }
        return report

    # ------------------------------------------------------------------
    def _load_clause_db(self, path: str) -> None:
        """Warm-start from a persisted clauseDB, exactly like Ja-ver.

        A missing file is a cold start; a present file must parse (a
        stale or foreign database raises
        :class:`~repro.multiprop.clausedb.ClauseDBFormatError` rather
        than silently poisoning proofs).  Loaded clauses go through the
        same init-state validation as freshly exported ones, and the
        engine's certificate re-check (``SeedCertificateError`` retry)
        backstops anything structural validation cannot catch.
        """
        if not os.path.exists(path):
            return
        loaded = ClauseDB.load(path, self.ts)
        imported = self.clause_db.add_all(loaded.clauses())
        if imported:
            self._emit(ClauseImport(name="<clausedb>", count=imported))


def ja_verify(
    ts: TransitionSystem,
    options: JAOptions | None = None,
    design_name: str = "design",
    emit: Emit | None = None,
) -> MultiPropReport:
    """Convenience wrapper: run JA-verification on all properties.

    .. deprecated::
        Prefer ``repro.session.Session(ts, strategy="ja").run()``; this
        wrapper remains for backward compatibility.
    """
    return JAVerifier(ts, options, emit=emit).run(design_name)
