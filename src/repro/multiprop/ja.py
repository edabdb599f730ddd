"""JA-verification ("Just Assume"), the paper's core contribution (Sec. 4).

For each property ``Pi`` (in a configurable order), run IC3 on the
projected system ``(I, T^P)``: every other Expected-To-Hold property is
assumed as a constraint on transition sources.  The run either

* proves ``Pi`` *locally* — by Proposition 5, if every property is proved
  locally then every property holds globally; the strengthening clauses
  are exported to the clauseDB and re-used for later properties
  (Section 6), and — with a proof cache — for later runs too, through
  the design's warm log, or
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

import time

from ..config import VerificationConfig, resolve_order
from ..engines.certify import Certifier
from ..engines.result import EngineResult, PropStatus, ResourceBudget
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
from .cones import SERVICE_MEMO, ConeMemo
from .local import prove
from .ordering import design_order
from .report import MultiPropReport, PropOutcome

#: The name of the :class:`ClauseImport` a run's warm start emits.
WARM_LOG = "<warm-log>"


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
        self.cones = SERVICE_MEMO.get() or ConeMemo()  # the run's COI cones
        self.results: dict[str, EngineResult] = {}
        self._emit: Emit = emit_or_null(emit)

    # ------------------------------------------------------------------
    def run(self) -> MultiPropReport:
        config = self.config
        proof = config.proof_options()
        local = self.local
        start = time.monotonic()
        if config.clause_reuse:
            self._warm_start()
        report = MultiPropReport(
            method="ja" if local else "separate", design=config.design_name
        )
        spurious_reruns = 0
        certificate_retries = 0
        # Every proof of the run is certified on one consecution solver
        # per assumption set (engines/certify.py).
        certifier = Certifier(self.ts, proof.solver_backend)
        # Every property's budget is charged to the run's conflict total;
        # ``total_time`` is checked between properties (a proof in flight finishes).
        run_budget = ResourceBudget(conflict_limit=config.total_conflicts)
        for name in resolve_order(self.ts, config.order) or design_order(self.ts):
            if run_budget.exhausted() or (
                config.total_time is not None
                and time.monotonic() - start > config.total_time
            ):
                outcome = PropOutcome(name=name, status=PropStatus.UNKNOWN, local=local)
                report.outcomes[name] = outcome
                self._emit(PropertyStarted(name=name))
                self._emit(outcome.solved_event())
                continue
            assumed = assumption_names(self.ts, name) if local else []
            budget = ResourceBudget(
                proof.per_property_time, proof.per_property_conflicts, parent=run_budget
            )
            outcome, result = prove(
                self.ts,
                name,
                assumed,
                proof,
                self.clause_db,
                self._emit,
                local=local,
                budget=budget,
                certifier=certifier,
                cones=self.cones,
            )
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
            "conflicts": run_budget.conflicts_used,
        }
        return report

    # ------------------------------------------------------------------
    def _warm_start(self) -> None:
        """Seed the clauseDB from the proof cache's warm log, like Ja-ver.

        The paper's external clauseDB file is the cache's warm log
        (:meth:`~repro.cache.store.ProofStore.load_warm`): read unless
        the run has no ``cache_dir`` or ``cache_mode`` is ``"off"``, and
        written once per finished job by the cache's write-back, never
        from here.  Under a service it is read through the service's
        store (:func:`~repro.cache.store.open_store`), so the service's
        cache stats count the load.  A missing, foreign or unreadable
        log is a cold start.  Loaded clauses go through the same
        init-state validation as freshly exported ones, and the
        engine's certificate re-check (``SeedCertificateError`` retry)
        backstops anything structural validation cannot catch.
        """
        config = self.config
        if config.cache_dir is None or config.cache_mode == "off":
            return
        # Imported here: repro.cache imports this package.
        from ..cache import design_digest, open_store

        store = open_store(config.cache_dir)
        imported = self.clause_db.add_all(store.load_warm(design_digest(self.ts), self.ts))
        if imported:
            self._emit(ClauseImport(name=WARM_LOG, count=imported))


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
