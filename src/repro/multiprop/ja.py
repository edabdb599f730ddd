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

from ..config import VerificationConfig, resolve_order
from ..engines.certify import Certifier
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
from .local import prove
from .ordering import design_order
from .report import MultiPropReport, PropOutcome


class JAVerifier:
    """The sequential loop over :func:`~repro.multiprop.local.prove`.

    With ``local=True`` (Ja-ver) every other ETH property is assumed
    while one is proved; with ``local=False`` nothing is, which is
    separate verification with global proofs — same loop, same clause
    re-use, method ``separate``.

    ``emit``, when given, receives typed :mod:`repro.progress` events
    (property started/solved, clauseDB exports, budget checkpoints, and
    the engine's frame advances).
    """

    def __init__(
        self,
        ts: TransitionSystem,
        config: VerificationConfig | None = None,
        emit: Emit | None = None,
        *,
        local: bool = True,
    ) -> None:
        self.ts = ts
        self.config = config or VerificationConfig()
        self.local = local
        self.clause_db = ClauseDB(ts)
        self.results: dict[str, EngineResult] = {}
        self._emit: Emit = emit_or_null(emit)

    # ------------------------------------------------------------------
    def run(self) -> MultiPropReport:
        config = self.config
        proof = config.proof_options()
        local = self.local
        start = time.monotonic()
        db_path = config.clause_db_path if config.clause_reuse else None
        if db_path:
            self._load_clause_db(db_path)
        report = MultiPropReport(
            method="ja" if local else "separate", design=config.design_name
        )
        spurious_reruns = 0
        certificate_retries = 0
        # Every proof of the run is certified on one consecution solver
        # per assumption set (engines/certify.py).
        certifier = Certifier(self.ts, proof.solver_backend)
        for name in resolve_order(self.ts, config.order) or design_order(self.ts):
            if (
                config.total_time is not None
                and time.monotonic() - start > config.total_time
            ):
                outcome = PropOutcome(name=name, status=PropStatus.UNKNOWN, local=local)
                report.outcomes[name] = outcome
                self._emit(PropertyStarted(name=name))
                self._emit(outcome.solved_event())
                continue
            assumed = assumption_names(self.ts, name) if local else []
            outcome, result = prove(
                self.ts,
                name,
                assumed,
                proof,
                self.clause_db,
                self._emit,
                local=local,
                certifier=certifier,
            )
            if db_path and result.holds:
                self.clause_db.save(db_path)
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
    config: VerificationConfig | None = None,
    emit: Emit | None = None,
) -> MultiPropReport:
    """JA-verification: local proofs under wrong assumptions (Ja-ver, Sec. 4)."""
    return JAVerifier(ts, config, emit).run()


def separate_verify(
    ts: TransitionSystem,
    config: VerificationConfig | None = None,
    emit: Emit | None = None,
) -> MultiPropReport:
    """Separate verification with global proofs (Tables V, VI, X baseline).

    Properties are checked one by one like JA-verification, but without
    any assumptions: each verdict is global.  Clause re-use remains
    available (invariants from global proofs over-approximate global
    reachability, so re-using them is unconditionally sound — the
    setting in which Section 6-B justifies it); the knob about
    assumptions (``respect_constraints_in_lifting``) has nothing to act
    on, every other one means what it means for ``ja``.
    """
    return JAVerifier(ts, config, emit, local=False).run()
