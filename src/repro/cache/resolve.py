"""Certification-gated cache resolution.

:class:`CacheResolver` is the only component allowed to turn a stored
record into a reported verdict, and it refuses to do so until the
stored witness re-passes certification *against the design actually
being verified*:

* a HOLDS record must carry an inductive invariant that passes
  :meth:`~repro.engines.certify.Certifier.certify` under the current
  assumption set;
* a FAILS record must carry a trace that replays under
  :func:`~repro.engines.certify.certify_cex` (including the local-CEX
  side conditions).

A record that fails certification — poisoned store, stale assumption
structure, hash collision, cosmic rays — is counted as a
``certify_reject`` and treated as a miss, so the property simply gets
re-proved.  The cache can therefore never produce a wrong verdict,
only a wasted certification check.

Witnesses are stored in *cone coordinates* (latch positions, input and
latch literals of the reduced cone the record's key hashes), so any
design with that cone reads the record in its own coordinates.

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

Each property's cone comes from the service's one
:class:`~repro.multiprop.cones.ConeMemo`, with the invariants proved on
it, which every HOLDS certificate of the cone reuses: a hit on an
unchanged record costs its syntactic checks and one ``F ⊆ P`` query
(``proofs_reused`` counts those hits).  A counterexample is replayed
on the whole design every time.
"""

from __future__ import annotations

import time

from ..config import CACHE_MODES
from ..engines.certify import certify_cex
from ..engines.result import PropStatus
from ..multiprop.cones import Cone, ConeMemo, DesignCones
from ..multiprop.report import PropOutcome
from ..progress import CacheHit, Emit, emit_or_null
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
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
        cones: ConeMemo | None = None,
    ) -> None:
        if mode not in CACHE_MODES:
            raise ValueError(f"bad cache mode {mode!r}")
        self.store = store
        self.mode = mode
        self.solver_backend = solver_backend
        self.local = local  # does the requesting strategy assume the other properties?
        self.cones = cones if cones is not None else ConeMemo()

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
        design = self.cones.design(ts)
        for name in order:
            outcome = self._resolve_one(ts, name, design, emit)
            if outcome is None:
                remaining.append(name)
            else:
                outcomes[name] = outcome
        return outcomes, remaining

    def _resolve_one(
        self,
        ts: TransitionSystem,
        name: str,
        design: DesignCones,
        emit: Emit,
    ) -> PropOutcome | None:
        cone = self.cones.cone(ts, design, name)
        record = self.store.get(cone.digest)
        if record is None or record.prop != name:
            self.store.counters["misses"] += 1
            return None
        outcome = self._certify(ts, name, record, cone)
        if outcome is None:
            self.store.counters["certify_rejects"] += 1
            return None
        self.store.counters["hits"] += 1
        emit(
            CacheHit(
                name=name,
                status=outcome.status,
                exact_design=record.design == design.digest,
                frames=outcome.frames,
            )
        )
        return outcome

    def _certify(
        self,
        ts: TransitionSystem,
        name: str,
        record: CacheRecord,
        cone: Cone,
    ) -> PropOutcome | None:
        """Re-check the stored witness; ``None`` means reject (re-prove).

        The record's witness is in cone coordinates.  An invariant is
        certified on the cone, through its proved invariants; assumptions
        absent from the cone are variable-disjoint from it, and dropping
        them only strengthens the obligation.  A counterexample is
        replayed on this design against every assumption the requester
        makes.  A hit reports both witnesses in this design's coordinates.
        """
        status = _STATUS.get(record.status)
        if status is None:
            return None
        start = time.monotonic()
        allowed = assumption_names(ts, name) if self.local else []
        invariant = cex = None
        if status is PropStatus.HOLDS:
            if record.invariant is None:
                return None
            # Fewer assumptions only strengthen an invariant's obligation.
            assumed = [n for n in record.assumed if n in allowed]
            report = self.cones.certifier(cone, self.solver_backend).certify(
                name, record.invariant, [n for n in assumed if n in cone.ts.prop_by_name]
            )
            if report.valid:
                invariant = cone.reduction.clauses_from_cone(record.invariant)
            if report.reused:
                self.cones.count("proofs_reused")
        else:
            if record.trace is None:
                return None
            # A counterexample must outlive *every* assumption the
            # requester makes, whatever the record's author assumed.
            assumed = allowed
            cex = cone.reduction.trace_from_cone(record.trace)
            report = certify_cex(ts, name, cex, assumed)
        if not report.valid:
            return None
        return PropOutcome(
            name=name,
            status=status,
            local=self.local,
            frames=record.frames,
            time_seconds=time.monotonic() - start,
            cex_depth=record.cex_depth,
            assumed=assumed,
            engine="cache",
            invariant=invariant,
            cex=cex,
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
        either.  Witnesses are written in cone coordinates, the
        invariant restricted to the cone and certified there (see
        :meth:`_cone_invariant`).  Returns the number of records
        written.
        """
        if not self.writable:
            return 0
        design = self.cones.design(ts)
        written = 0
        warm: list = []
        for name, outcome in outcomes.items():
            if outcome.engine == "cache":
                continue
            if outcome.status is PropStatus.HOLDS and outcome.invariant is not None:
                status = "holds"
                warm.extend(outcome.invariant)
            elif outcome.status is PropStatus.FAILS and outcome.cex is not None:
                status = "fails"
            else:
                continue
            cone = self.cones.cone(ts, design, name)
            invariant = trace = None
            if status == "holds":
                invariant = self._cone_invariant(name, cone, outcome)
                if invariant is None:
                    continue
            else:
                trace = cone.reduction.trace_to_cone(outcome.cex)
            self.store.put(
                CacheRecord(
                    prop=name,
                    status=status,
                    design=design.digest,
                    cone=cone.digest,
                    design_name=design_name,
                    local=outcome.local,
                    frames=outcome.frames,
                    time_seconds=outcome.time_seconds,
                    cex_depth=outcome.cex_depth,
                    assumed=list(outcome.assumed),
                    engine=outcome.engine,
                    invariant=invariant,
                    trace=trace,
                )
            )
            written += 1
        if warm:
            self.store.save_warm(design.digest, ts, warm)
        return written

    def _cone_invariant(self, name: str, cone: Cone, outcome: PropOutcome) -> list | None:
        """The invariant restricted to the property's cone, in cone
        positions, once it passes the certificate a later hit checks.

        The clause DB shares clauses across properties, so an invariant
        may mention latches outside the cone; dropping those clauses
        cannot break consecution of the rest, but it is checked, and
        ``None`` (no record) returned if it fails.  The check is the
        hit's own obligation (on ``cone.ts``, under the author's
        assumptions the cone keeps), so a later hit runs no consecution
        query, nor does this one when a COI proof already proved it.
        """
        invariant = cone.reduction.clauses_to_cone(list(outcome.invariant))
        assumed = [n for n in outcome.assumed if n in cone.ts.prop_by_name]
        certifier = self.cones.certifier(cone, self.solver_backend)
        if not certifier.certify(name, invariant, assumed).valid:
            return None
        return invariant

    def warm_clauses(self, ts: TransitionSystem) -> list:
        """Warm-start clauses recorded for this exact design (or [])."""
        if not self.readable:
            return []
        return self.store.load_warm(self.cones.design(ts).digest, ts)
