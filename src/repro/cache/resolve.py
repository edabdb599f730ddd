"""Certification-gated cache resolution.

:class:`CacheResolver` is the only component allowed to turn a stored
record into a reported verdict, and it refuses to do so until the
stored witness re-passes certification *against the design actually
being verified*:

* a HOLDS record must carry an inductive invariant that passes
  :func:`~repro.engines.certify.certify_invariant` under the current
  assumption set;
* a FAILS record must carry a trace that replays under
  :func:`~repro.engines.certify.certify_cex` (including the local-CEX
  side conditions).

A record that fails certification — poisoned store, stale assumption
structure, hash collision, cosmic rays — is counted as a
``certify_reject`` and treated as a miss, so the property simply gets
re-proved.  The cache can therefore never produce a wrong verdict,
only a wasted certification check.

Assumption handling: a record is certified under the assumptions *the
requester makes* — for a local strategy (``local=True``) those
currently legal for the property (``assumption_names`` on the current
design), for a global one (``separate``, ``joint``, ``clustered``)
none at all.  An invariant is checked under the part of that set its
author also assumed: dropping an assumption only strengthens the
obligation, so the verdict is sound to report, while an invariant that
needed an assumption the requester does not make (a local proof asked
for globally, a now-illegal assumption) is rejected and re-proved.  A
counterexample is checked against the whole set, whatever its author
assumed: a local counterexample is also a global one and still hits, a
global one that an assumed property pre-empts is spurious locally and
does not.
"""

from __future__ import annotations

import time

from ..circuit.coi import reduce_to_cone, remap_clause
from ..engines.certify import Certifier, certify_cex, certify_invariant
from ..engines.result import PropStatus
from ..multiprop.report import PropOutcome
from ..progress import CacheHit, Emit, emit_or_null
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .hashing import cone_digest, cone_properties, cone_support, design_digest
from .store import CacheRecord, ProofStore

__all__ = ["CacheResolver"]

_STATUS = {"holds": PropStatus.HOLDS, "fails": PropStatus.FAILS}


class CacheResolver:
    """Resolve properties from a :class:`ProofStore`, certification first."""

    def __init__(
        self,
        store: ProofStore,
        mode: str = "readwrite",
        *,
        solver_backend: str | None = None,
        local: bool = True,
    ) -> None:
        if mode not in ("off", "read", "readwrite"):
            raise ValueError(f"bad cache mode {mode!r}")
        self.store = store
        self.mode = mode
        self.solver_backend = solver_backend
        self.local = local  # does the requesting strategy assume the other properties?

    @property
    def readable(self) -> bool:
        return self.mode in ("read", "readwrite")

    @property
    def writable(self) -> bool:
        return self.mode == "readwrite"

    # ------------------------------------------------------------------
    # Lookup side
    # ------------------------------------------------------------------
    def resolve(
        self,
        ts: TransitionSystem,
        order: list[str],
        emit: Emit | None = None,
    ) -> tuple[dict[str, PropOutcome], list[str]]:
        """Split ``order`` into cache-served outcomes and remaining work.

        Returns ``(outcomes, remaining)``: ``outcomes`` maps property
        name to a certified cache-served :class:`PropOutcome` (one
        :class:`CacheHit` emitted per entry), ``remaining`` preserves
        the submission order of everything that must be proved.
        """
        emit = emit_or_null(emit)
        outcomes: dict[str, PropOutcome] = {}
        remaining: list[str] = []
        if not self.readable:
            return outcomes, list(order)
        current_design = design_digest(ts)
        supports: dict[str, frozenset] = {}  # shared support-signature memo
        for name in order:
            outcome = self._resolve_one(ts, name, current_design, emit, supports)
            if outcome is None:
                remaining.append(name)
            else:
                outcomes[name] = outcome
        return outcomes, remaining

    def _resolve_one(
        self,
        ts: TransitionSystem,
        name: str,
        current_design: str,
        emit: Emit,
        supports: dict[str, frozenset],
    ) -> PropOutcome | None:
        kept = cone_properties(ts, name, supports)
        reduction = reduce_to_cone(ts.aig, [name, *kept])
        cone = cone_digest(ts, name, kept, reduction=reduction)
        self.store.pin(cone)  # GC must not race the certification below
        try:
            record = self.store.get(cone)
            if record is None or record.prop != name:
                self.store.counters["misses"] += 1
                return None
            outcome = self._certify(ts, name, record, reduction)
            if outcome is None:
                self.store.counters["certify_rejects"] += 1
                return None
            self.store.counters["hits"] += 1
            emit(
                CacheHit(
                    name=name,
                    status=outcome.status,
                    exact_design=record.design == current_design,
                    frames=outcome.frames,
                )
            )
            return outcome
        finally:
            self.store.unpin(cone)

    def _certify(
        self,
        ts: TransitionSystem,
        name: str,
        record: CacheRecord,
        reduction=None,
    ) -> PropOutcome | None:
        """Re-check the stored witness; ``None`` means reject (re-prove)."""
        status = _STATUS.get(record.status)
        if status is None:
            return None
        start = time.monotonic()
        allowed = assumption_names(ts, name) if self.local else []
        if status is PropStatus.HOLDS:
            if record.invariant is None:
                return None
            # Fewer assumptions only strengthen an invariant's obligation.
            assumed = [n for n in record.assumed if n in allowed]
            report = self._certify_invariant(
                ts, name, record.invariant, assumed, reduction
            )
        else:
            if record.trace is None:
                return None
            # A counterexample must outlive *every* assumption the
            # requester makes, whatever the record's author assumed.
            assumed = allowed
            report = certify_cex(ts, name, record.trace, assumed)
        if not report.valid:
            return None
        return PropOutcome(
            name=name,
            status=status,
            local=bool(assumed),
            frames=record.frames,
            time_seconds=time.monotonic() - start,
            cex_depth=record.cex_depth,
            assumed=assumed,
            engine="cache",
            invariant=record.invariant,
            cex=record.trace,
        )

    def _certify_invariant(
        self,
        ts: TransitionSystem,
        name: str,
        invariant,
        assumed: list[str],
        reduction,
    ):
        """Certify on the reduced cone when possible, full design otherwise.

        The SAT queries certification runs are linear in the encoded
        design, and on a many-property design each cone is a small slice
        of the whole — so re-certifying against the cone the digest was
        computed from (same latch names, resets and constraints, per
        :func:`~repro.circuit.coi.reduce_to_cone`) is both sound and far
        cheaper.  Clause latch indices are remapped through the
        reduction's latch map; a clause that mentions an out-of-cone
        latch (legacy full-DB invariants) falls back to full-design
        certification.  That fallback rejects a literal naming no latch
        of this design: a record another design wrote for a
        structurally identical cone (same digest) is stored in that
        design's latch positions and is re-proved, never trusted.
        Assumptions absent from the cone are dropped —
        the support fixpoint guarantees they are variable-disjoint, and
        dropping only strengthens the obligation.
        """
        if reduction is not None:
            rts = TransitionSystem(reduction.aig)
            mapped = [remap_clause(c, reduction.latch_positions) for c in invariant]
            if None not in mapped:
                kept = [n for n in assumed if n in rts.prop_by_name]
                return certify_invariant(
                    rts, name, mapped, kept, solver_backend=self.solver_backend
                )
        return certify_invariant(
            ts, name, invariant, assumed, solver_backend=self.solver_backend
        )

    # ------------------------------------------------------------------
    # Write-back side
    # ------------------------------------------------------------------
    def record_outcomes(
        self,
        ts: TransitionSystem,
        outcomes: dict[str, PropOutcome],
        design_name: str = "design",
    ) -> int:
        """Persist fresh HOLDS/FAILS verdicts (and warm clauses).

        Cache-served outcomes (``engine == "cache"``) and UNKNOWNs are
        skipped; a HOLDS without an invariant or a FAILS without a
        trace cannot be re-certified later, so they are not cached
        either.  Returns the number of records written.
        """
        if not self.writable:
            return 0
        design = design_digest(ts)
        written = 0
        warm: list = []
        supports: dict[str, frozenset] = {}  # shared support-signature memo
        certifier = Certifier(ts, self.solver_backend)  # one for the whole write-back
        for name, outcome in outcomes.items():
            if outcome.engine == "cache":
                continue
            kept = cone_properties(ts, name, supports)
            invariant = outcome.invariant
            if outcome.status is PropStatus.HOLDS and invariant is not None:
                status = "holds"
                warm.extend(invariant)
                invariant = self._cone_invariant(
                    certifier, name, kept, outcome, supports
                )
            elif outcome.status is PropStatus.FAILS and outcome.cex is not None:
                status = "fails"
            else:
                continue
            self.store.put(
                CacheRecord(
                    prop=name,
                    status=status,
                    design=design,
                    cone=cone_digest(ts, name, kept),
                    design_name=design_name,
                    local=outcome.local,
                    frames=outcome.frames,
                    time_seconds=outcome.time_seconds,
                    cex_depth=outcome.cex_depth,
                    assumed=list(outcome.assumed),
                    engine=outcome.engine,
                    invariant=invariant,
                    trace=outcome.cex,
                )
            )
            written += 1
        if warm:
            self.store.save_warm(design, ts, warm)
        return written

    @staticmethod
    def _cone_invariant(certifier, name, kept, outcome, supports=None) -> list:
        """The invariant restricted to the property's cone, if it certifies.

        The JA clause DB shares strengthening clauses across properties,
        so a fresh HOLDS invariant typically mentions latches far outside
        the property's own cone.  Stored as-is, such an invariant fails
        certification after any out-of-cone edit — exactly the hits the
        cone key exists to provide.  Dropping the out-of-cone clauses
        cannot break consecution of the in-cone ones (their transition
        functions read only in-cone variables), but rather than argue,
        we check: the restricted invariant is re-certified here, on the
        write-back's one ``certifier``, and the full one kept as a
        fallback if it somehow does not pass.
        """
        ts = certifier.ts
        invariant = [tuple(c) for c in outcome.invariant]
        region = cone_support(ts, name, kept, supports)
        latches = ts.latches
        restricted = [
            clause
            for clause in invariant
            if all(latches[abs(lit) - 1].lit in region for lit in clause)
        ]
        if restricted == invariant:
            return invariant
        report = certifier.certify(name, restricted, list(outcome.assumed))
        return restricted if report.valid else invariant

    def warm_clauses(self, ts: TransitionSystem) -> list:
        """Warm-start clauses recorded for this exact design (or [])."""
        if not self.readable:
            return []
        return self.store.load_warm(design_digest(ts), ts)
