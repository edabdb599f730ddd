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

A service derives each cone once per design, not once per hit: its
one :class:`ConeMemo` holds, per property, the COI reduction (with the
kept assumptions), the cone's :class:`~repro.ts.system.TransitionSystem`
and its templates, and the cone digest, for lookup and write-back
alike.  The key is the design's exact AAG text plus its input, latch
and property literals, compared as values.  It is never a digest, so
two designs never share an entry; the literals are in it because one
text can come with two numberings, and witness maps are in the
numbers.  It keeps :data:`~repro.parallel.pool.DESIGN_CACHE_SIZE`
designs (LRU), as the seats do.

Each cone also keeps the invariants already proved on it, per solver
backend and assumption set, as clause sets
(:class:`~repro.engines.certify.ProvenInvariants`).  Every HOLDS
certificate of the cone — a hit's, or the write-back's — runs through a
:class:`~repro.engines.certify.Certifier` handed them, so its proof-reuse
rule applies across jobs: only clauses no proved invariant inside the
record's covers get a consecution query.  Every hit still runs its
syntactic checks and a fresh ``F ⊆ P`` query; an unchanged record whose
invariant the write-back or an earlier hit proved costs one ``solve``
and loads no step frame (``proofs_reused`` counts those hits).  A
counterexample is replayed on the whole design every time.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..circuit.aiger import write_aag
from ..circuit.coi import CoiReduction, reduce_to_cone
from ..config import CACHE_MODES
from ..engines.certify import (
    CertificateReport,
    Certifier,
    ProvenInvariants,
    certify_cex,
)
from ..engines.result import PropStatus
from ..multiprop.report import PropOutcome
from ..progress import CacheHit, Emit, emit_or_null
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem
from .hashing import cone_digest, cone_properties, text_digest
from .store import CacheRecord, ProofStore

__all__ = ["CacheResolver", "Cone", "ConeMemo"]

_STATUS = {"holds": PropStatus.HOLDS, "fails": PropStatus.FAILS}


@dataclass(frozen=True)
class Cone:
    """One property's cone: its reduction, system and store key, and the
    invariants proved on its system, by solver backend."""

    reduction: CoiReduction
    ts: TransitionSystem
    digest: str
    proven: dict[str | None, ProvenInvariants] = field(
        default_factory=dict, compare=False
    )


@dataclass
class _DesignCones:
    """One design's digest, support-signature memo and cones by property."""

    digest: str
    supports: dict[str, frozenset] = field(default_factory=dict)
    cones: dict[str, Cone] = field(default_factory=dict)


class ConeMemo:
    """Cones per design, shared by every resolver of a service (see the
    module docstring for its key and bound)."""

    def __init__(self) -> None:
        # Imported here: repro.parallel.pool imports this package.
        from ..parallel.pool import DESIGN_CACHE_SIZE

        self.size = DESIGN_CACHE_SIZE
        self._designs: OrderedDict[tuple, _DesignCones] = OrderedDict()
        self._lock = threading.Lock()
        self.counters = {"cones_built": 0, "cone_hits": 0, "proofs_reused": 0}

    def design(self, ts: TransitionSystem) -> _DesignCones:
        """``ts``'s entry, created on first use (and refreshed in the LRU)."""
        text = write_aag(ts.aig)
        key = (
            text,
            tuple(ts.aig.inputs),
            tuple(latch.lit for latch in ts.latches),
            tuple((p.name, p.lit, p.expected_to_fail) for p in ts.properties),
        )
        with self._lock:
            entry = self._designs.pop(key, None)
            if entry is None:
                entry = _DesignCones(text_digest(text))
            self._designs[key] = entry
            if len(self._designs) > self.size:
                self._designs.popitem(last=False)
        return entry

    def cone(self, ts: TransitionSystem, design: _DesignCones, name: str) -> Cone:
        """``name``'s cone in ``ts``, whose entry is ``design``."""
        with self._lock:
            cone = design.cones.get(name)
            if cone is not None:
                self.counters["cone_hits"] += 1
                return cone
            kept = cone_properties(ts, name, design.supports)
            reduction = reduce_to_cone(ts.aig, [name, *kept])
            cone = design.cones[name] = Cone(
                reduction,
                TransitionSystem(reduction.aig),
                cone_digest(ts, name, reduction=reduction),
            )
            self.counters["cones_built"] += 1
            return cone

    def certify(
        self,
        cone: Cone,
        solver_backend: str | None,
        name: str,
        clauses: list,
        assumed: list[str],
    ) -> CertificateReport:
        """Certify ``clauses`` (cone coordinates) for ``name`` on
        ``cone.ts``, reusing and extending what ``cone`` has proved on
        ``solver_backend``."""
        with self._lock:
            proven = cone.proven.setdefault(solver_backend, ProvenInvariants())
        return Certifier(cone.ts, solver_backend, proven).certify(name, clauses, assumed)

    def count(self, counter: str) -> None:
        with self._lock:
            self.counters[counter] += 1


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
        design: _DesignCones,
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

        The record's witness is in cone coordinates (see
        :meth:`record_outcomes`).  An invariant is certified on the
        reduced cone itself, through the memo (:meth:`ConeMemo.certify`):
        its SAT queries are linear in the encoded design, and on a
        many-property design each cone is a small slice of the whole.
        Assumptions absent from the cone are dropped — the support
        fixpoint guarantees they are variable-disjoint, and dropping
        only strengthens the obligation.  A counterexample is mapped
        into this design and replayed there, against every assumption
        the requester makes.
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
            report = self.cones.certify(
                cone,
                self.solver_backend,
                name,
                record.invariant,
                [n for n in assumed if n in cone.ts.prop_by_name],
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

        The JA clause DB shares strengthening clauses across properties,
        so a fresh HOLDS invariant typically mentions latches far outside
        the property's own cone.  Stored as-is, such an invariant could
        not be certified on the cone — exactly the hits the cone key
        exists to provide, after an out-of-cone edit or from another
        design with the same cone.  Dropping the out-of-cone clauses
        cannot break consecution of the in-cone ones (their transition
        functions read only in-cone variables), but rather than argue,
        we check, and ``None`` (no record) is returned if it somehow
        does not pass.  The check is the hit's own obligation — on
        ``cone.ts``, under the author's assumptions the cone keeps — so
        it proves the invariant for the cone's memo, and a later hit by
        a requester with those assumptions runs no consecution query.
        """
        invariant = cone.reduction.clauses_to_cone(list(outcome.invariant))
        assumed = [n for n in outcome.assumed if n in cone.ts.prop_by_name]
        if not self.cones.certify(cone, self.solver_backend, name, invariant, assumed).valid:
            return None
        return invariant

    def warm_clauses(self, ts: TransitionSystem) -> list:
        """Warm-start clauses recorded for this exact design (or [])."""
        if not self.readable:
            return []
        return self.store.load_warm(self.cones.design(ts).digest, ts)
