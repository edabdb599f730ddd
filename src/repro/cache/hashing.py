"""Stable content hashes, unified for the whole repo.

The pool's payload dedup, the random walk's seeds and the proof
cache's keys, with the stability of each flavour documented:

``payload_digest``
    SHA-256 of raw bytes.  Stable only for the exact byte string —
    pickle payloads are *not* guaranteed stable across Python versions,
    so this flavour is for process-local dedup (the pool's design
    shipping cache), never for on-disk cache keys.

``design_digest``
    SHA-256 of the design's canonical AAG text
    (:func:`~repro.circuit.aiger.write_aag`).  Stable across processes,
    machines and Python versions; two designs with identical logic,
    names and resets collide exactly.  This keys warm clause logs.

``cone_digest``
    SHA-256 of the canonical AAG text of one property's *assumption
    cone* (:class:`~repro.multiprop.cones.Cone`): its COI cone plus every
    assumable property support-connected to it.
    An edit outside the cone leaves the digest unchanged — which is the
    whole basis of incremental re-verification.  The target property's
    name is mixed into the digest so that mutually-assuming properties
    sharing one cone still get distinct keys.  The assumed-name list
    itself is deliberately *not* part of the key: assumption sets are
    re-derived (and re-certified) against the current design on every
    hit, so a key that ignored them stays sound while hitting more.

``joined_digest``
    SHA-256 over NUL-joined string parts, for stable derived values
    (per-property seeds) where field boundaries must not smear.
"""

from __future__ import annotations

import hashlib

from ..circuit.aiger import write_aag
from ..multiprop.cones import build_cone, cone_properties
from ..ts.system import TransitionSystem

__all__ = [
    "cone_digest",
    "design_digest",
    "joined_digest",
    "payload_digest",
    "text_digest",
]


def payload_digest(payload: bytes) -> str:
    """Hex SHA-256 of ``payload``.  Process-local dedup only (see module doc)."""
    return hashlib.sha256(payload).hexdigest()


def text_digest(text: str) -> str:
    """Hex SHA-256 of UTF-8 encoded ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def joined_digest(*parts: object) -> bytes:
    """Raw SHA-256 over NUL-joined ``str(part)`` values.

    The NUL separator keeps field boundaries exact: ``("ab", "c")`` and
    ``("a", "bc")`` hash differently.
    """
    return hashlib.sha256("\x00".join(str(p) for p in parts).encode("utf-8")).digest()


def design_digest(ts: TransitionSystem) -> str:
    """Cross-process stable content hash of a whole design."""
    return text_digest(write_aag(ts.aig))


def cone_digest(ts: TransitionSystem, name: str) -> str:
    """Content hash of ``name``'s assumption cone (see module doc)."""
    return build_cone(ts, name, cone_properties(ts, name)).digest
