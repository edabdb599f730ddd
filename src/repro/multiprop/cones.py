"""A property's cone, derived once: the one place that turns (design,
target, candidate assumptions) into a :class:`Cone`.

A local proof needs only the assumed properties that can constrain the
target's cone.  A cone holds those the support fixpoint keeps (each
property's signature read from its design's memo: P properties cost P
signatures, not P²), their COI reduction and its system, the invariants
proved on it per solver backend, and its digest, the proof cache's key.
It is keyed by target and kept assumptions: ``ja`` keeps the
support-connected ETH properties, ``separate`` none.

One :class:`ConeMemo` serves the COI rung of
:func:`~repro.multiprop.local.prove` (per ``ja``/``separate`` run, per
pool seat process, or the service's: :data:`SERVICE_MEMO`) and the proof
cache, so a cache hit or write-back finds the cone's COI proofs.  A
proof that reuses no clauses takes only its kept assumptions from the
memo (:meth:`ConeMemo.kept`) and builds a cone no one else reads.  A
design's key is its exact AAG text (written once per system object)
plus its input, latch and property literals: never a digest, and one
text numbered two ways is two keys, since witness maps are in the
numbers.  A memo keeps :data:`DESIGN_CACHE_SIZE` designs (LRU).
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from collections.abc import Sequence
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property

from ..circuit.aiger import write_aag
from ..circuit.coi import CoiReduction, reduce_to_cone, support_connected
from ..engines.certify import Certifier, ProvenInvariants
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem

#: Designs kept per LRU cache (a cone memo, the pool's payloads, a seat's
#: copies): twice the 16 families, ~5.3 MB on a seat for all 16 (tracemalloc).
DESIGN_CACHE_SIZE = 32


def cone_properties(ts: TransitionSystem, name: str, supports: dict | None = None) -> list[str]:
    """Assumable properties support-connected to ``name``'s cone: the
    others cannot constrain its local verdict, or its cache key.
    ``supports`` is the fixpoint's per-design signature memo."""
    return support_connected(ts.aig, ts.prop_by_name, name, assumption_names(ts, name), supports)


@dataclass(frozen=True)
class Cone:
    """One property's cone: its kept assumptions, reduction and system,
    and the invariants proved on its system, by solver backend."""

    name: str
    kept: tuple[str, ...]
    reduction: CoiReduction
    ts: TransitionSystem
    proven: dict[str | None, ProvenInvariants] = field(default_factory=dict, compare=False)

    @cached_property
    def digest(self) -> str:
        """The cone's content hash (see :mod:`repro.cache.hashing`); the
        target name is in it because two properties can share one cone."""
        text = f"{self.name}\x00{write_aag(self.reduction.aig)}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_cone(ts: TransitionSystem, name: str, kept: Sequence[str]) -> Cone:
    """``name``'s cone in ``ts`` with the assumptions ``kept``, unmemoized."""
    reduction = reduce_to_cone(ts.aig, [name, *kept])
    return Cone(name, tuple(kept), reduction, TransitionSystem(reduction.aig))


@dataclass
class DesignCones:
    """One design's digest, support signatures, kept assumptions by (target,
    candidates or ``None``: every assumable one) and cones by (target, kept)."""

    digest: str
    supports: dict[str, frozenset] = field(default_factory=dict)
    kept: dict[tuple, tuple[str, ...]] = field(default_factory=dict)
    cones: dict[tuple, Cone] = field(default_factory=dict)


class ConeMemo:
    """Cones per design (see the module docstring for its key and bound)."""

    def __init__(self) -> None:
        self.size = DESIGN_CACHE_SIZE
        self._designs: OrderedDict[tuple, DesignCones] = OrderedDict()
        self._keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        self.counters = {"cones_built": 0, "cone_hits": 0, "proofs_reused": 0}

    def design(self, ts: TransitionSystem) -> DesignCones:
        """``ts``'s entry, created on first use (and refreshed in the LRU)."""
        with self._lock:
            key = self._keys.get(ts)
        if key is None:
            key = (
                write_aag(ts.aig),
                tuple(ts.aig.inputs),
                tuple(latch.lit for latch in ts.latches),
                tuple((p.name, p.lit, p.expected_to_fail) for p in ts.properties),
            )
        with self._lock:
            self._keys[ts] = key
            entry = self._designs.pop(key, None)
            if entry is None:
                entry = DesignCones(hashlib.sha256(key[0].encode("utf-8")).hexdigest())
            self._designs[key] = entry
            if len(self._designs) > self.size:
                self._designs.popitem(last=False)
        return entry

    def cone(
        self,
        ts: TransitionSystem,
        design: DesignCones,
        name: str,
        candidates: Sequence[str] | None = None,
    ) -> Cone:
        """``name``'s cone in ``ts``, whose entry is ``design``, keeping the
        ``candidates`` support-connected to it (default: every property
        ``name`` may assume, the proof cache's cone)."""
        kept = self.kept(ts, design, name, candidates)
        with self._lock:
            cone = design.cones.get((name, kept))
            if cone is not None:
                self.counters["cone_hits"] += 1
                return cone
            cone = design.cones[name, kept] = build_cone(ts, name, kept)
            self.counters["cones_built"] += 1
            return cone

    def kept(
        self,
        ts: TransitionSystem,
        design: DesignCones,
        name: str,
        candidates: Sequence[str] | None = None,
    ) -> tuple[str, ...]:
        """The ``candidates`` :meth:`cone` keeps, memoized without building
        a cone: a proof that reuses no clauses builds its own and drops it."""
        wanted = (name, None if candidates is None else tuple(candidates))
        with self._lock:
            kept = design.kept.get(wanted)
            if kept is None:
                if candidates is None:
                    candidates = assumption_names(ts, name)
                kept = design.kept[wanted] = tuple(
                    support_connected(ts.aig, ts.prop_by_name, name, candidates, design.supports)
                )
            return kept

    def certifier(self, cone: Cone, solver_backend: str | None) -> Certifier:
        """A certifier on ``cone.ts`` that reuses and extends what
        ``cone`` has proved on ``solver_backend``."""
        with self._lock:
            proven = cone.proven.setdefault(solver_backend, ProvenInvariants())
        return Certifier(cone.ts, solver_backend, proven)

    def count(self, counter: str) -> None:
        with self._lock:
            self.counters[counter] += 1


#: The memo of the service job running on this thread, set by
#: :func:`repro.cache.store.serving`; a run outside one keeps its own.
SERVICE_MEMO: ContextVar[ConeMemo | None] = ContextVar("repro_cones_serving", default=None)
