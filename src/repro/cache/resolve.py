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

Witnesses are stored in *cone coordinates*: the invariant over the
latch positions, the trace over the input and latch literals, of the
reduced cone the record's key hashes
(:class:`~repro.circuit.coi.CoiReduction` translates both ways).  Any
design with that cone — the author, an edit of it outside the cone, or
another design that shares it — reads the record in its own
coordinates, so a hit never depends on where the author kept its
latches.

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

from ..circuit.coi import CoiReduction, reduce_to_cone
from ..engines.certify import Certifier, certify_cex, certify_invariant
from ..engines.result import PropStatus
from ..multiprop.report import PropOutcome
from ..progress import CacheHit, Emit, emit_or_null
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .hashing import cone_digest, cone_properties, design_digest
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

    def _certify(
        self,
        ts: TransitionSystem,
        name: str,
        record: CacheRecord,
        reduction: CoiReduction,
    ) -> PropOutcome | None:
        """Re-check the stored witness; ``None`` means reject (re-prove).

        The record's witness is in cone coordinates (see
        :meth:`record_outcomes`).  An invariant is certified on the
        reduced cone itself: its SAT queries are linear in the encoded
        design, and on a many-property design each cone is a small
        slice of the whole.  Assumptions absent from the cone are
        dropped — the support fixpoint guarantees they are
        variable-disjoint, and dropping only strengthens the
        obligation.  A counterexample is mapped into this design and
        replayed there, against every assumption the requester makes.
        On a hit both witnesses are reported in this design's
        coordinates.
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
            cone = TransitionSystem(reduction.aig)
            report = certify_invariant(
                cone,
                name,
                record.invariant,
                [n for n in assumed if n in cone.prop_by_name],
                solver_backend=self.solver_backend,
            )
            if report.valid:
                invariant = reduction.clauses_from_cone(record.invariant)
        else:
            if record.trace is None:
                return None
            # A counterexample must outlive *every* assumption the
            # requester makes, whatever the record's author assumed.
            assumed = allowed
            cex = reduction.trace_from_cone(record.trace)
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
        invariant restricted to the cone (see :meth:`_cone_invariant`).
        Returns the number of records written.
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
            if outcome.status is PropStatus.HOLDS and outcome.invariant is not None:
                status = "holds"
                warm.extend(outcome.invariant)
            elif outcome.status is PropStatus.FAILS and outcome.cex is not None:
                status = "fails"
            else:
                continue
            kept = cone_properties(ts, name, supports)
            reduction = reduce_to_cone(ts.aig, [name, *kept])
            invariant = trace = None
            if status == "holds":
                invariant = self._cone_invariant(certifier, name, reduction, outcome)
                if invariant is None:
                    continue
            else:
                trace = reduction.trace_to_cone(outcome.cex)
            self.store.put(
                CacheRecord(
                    prop=name,
                    status=status,
                    design=design,
                    cone=cone_digest(ts, name, kept, reduction=reduction),
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
            self.store.save_warm(design, ts, warm)
        return written

    @staticmethod
    def _cone_invariant(certifier, name, reduction, outcome) -> list | None:
        """The invariant restricted to the property's cone, in cone positions.

        The JA clause DB shares strengthening clauses across properties,
        so a fresh HOLDS invariant typically mentions latches far outside
        the property's own cone.  Stored as-is, such an invariant could
        not be certified on the cone — exactly the hits the cone key
        exists to provide, after an out-of-cone edit or from another
        design with the same cone.  Dropping the out-of-cone clauses
        cannot break consecution of the in-cone ones (their transition
        functions read only in-cone variables), but rather than argue,
        we check: a restricted invariant is re-certified here, on the
        write-back's one ``certifier``, and ``None`` (no record) is
        returned if it somehow does not pass.
        """
        invariant = list(outcome.invariant)
        cone = reduction.clauses_to_cone(invariant)
        if len(cone) < len(invariant):
            restricted = reduction.clauses_from_cone(cone)
            if not certifier.certify(name, restricted, list(outcome.assumed)).valid:
                return None
        return cone

    def warm_clauses(self, ts: TransitionSystem) -> list:
        """Warm-start clauses recorded for this exact design (or [])."""
        if not self.readable:
            return []
        return self.store.load_warm(design_digest(ts), ts)
