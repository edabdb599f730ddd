"""Stable content hashes, unified for the whole repo.

Before this module each layer grew its own ad-hoc hashing: the worker
pool hashed pickle payloads to dedupe design shipping, the random-walk
engine hashed name tuples for seed derivation, and the proof cache
needed design and cone digests.  All of them live here now, with the
stability of each flavour documented:

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
    cone*: the COI cone of the property plus every assumable property
    whose support is transitively connected to it
    (:func:`~repro.circuit.coi.support_connected`, the fixpoint the JA
    verifier's COI reduction runs).
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
from collections.abc import Sequence

from ..circuit.aiger import write_aag
from ..circuit.coi import reduce_to_cone, support_connected
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem

__all__ = [
    "cone_digest",
    "cone_properties",
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


def cone_properties(
    ts: TransitionSystem,
    name: str,
    supports: dict[str, frozenset] | None = None,
) -> list[str]:
    """Assumable properties support-connected to ``name``'s cone.

    The JA verifier's COI-reduction fixpoint
    (:func:`~repro.circuit.coi.support_connected`) over every property
    ``name`` may assume.  Properties outside the closure cannot
    constrain the projected transition relation for ``name``, so they
    are irrelevant to its local verdict — and to its cache key.
    ``supports`` is the fixpoint's per-design signature memo.
    """
    return support_connected(
        ts.aig, ts.prop_by_name, name, assumption_names(ts, name), supports
    )


def cone_digest(
    ts: TransitionSystem,
    name: str,
    kept: Sequence[str] | None = None,
    *,
    reduction=None,
) -> str:
    """Content hash of ``name``'s assumption cone (see module doc).

    ``kept`` may be passed when :func:`cone_properties` was already
    computed, to avoid re-running the fixpoint; ``reduction`` may be
    passed when :func:`~repro.circuit.coi.reduce_to_cone` over
    ``[name, *kept]`` was already computed, to avoid re-running it.
    """
    if reduction is None:
        if kept is None:
            kept = cone_properties(ts, name)
        reduction = reduce_to_cone(ts.aig, [name, *kept])
    # The target name is mixed in because two properties can share one
    # cone (mutually-assuming pairs) yet need distinct verdicts.
    return text_digest(f"{name}\x00{write_aag(reduction.aig)}")
