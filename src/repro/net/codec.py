"""The versioned JSON wire format for events and reports.

Everything that crosses the HTTP boundary is encoded here, nowhere
else: each :class:`~repro.progress.ProgressEvent` subclass becomes a
flat JSON object tagged with its ``kind`` and the wire version, and a
whole :class:`~repro.multiprop.report.MultiPropReport` becomes one
nested object carrying every outcome field needed to reconstruct it
client-side (counterexample *traces* deliberately stay server-side —
they can be arbitrarily deep; the wire carries their depth).

The event registry is the load-bearing piece: :data:`EVENT_TYPES` is a
**literal tuple naming every event class**, and
``tests/net/test_codec.py`` pins it to exactly the subclasses declared
in ``repro/progress.py`` — adding an event without a codec entry (or
leaving a stale entry behind) fails the suite.

Round-trip contract (pinned by the Hypothesis suite in
``tests/net/test_codec.py``)::

    decode_event(json.loads(json.dumps(encode_event(e)))) == e

for every event type, including tuple-valued fields (restored from
JSON lists) and the :class:`~repro.engines.result.PropStatus` enum on
``PropertySolved``.  Version mismatches and unknown kinds raise
:class:`CodecError` rather than guessing.
"""

from __future__ import annotations

import typing
from dataclasses import fields

from ..engines.result import PropStatus
from ..multiprop.report import MultiPropReport, PropOutcome
from ..progress import (
    AttemptCancelled,
    AttemptStarted,
    BudgetCheckpoint,
    CacheHit,
    ClauseExport,
    ClauseImport,
    ClusterStarted,
    FrameAdvanced,
    JobFinished,
    JobQueued,
    JobStarted,
    PoolAttached,
    PortfolioDecided,
    ProgressEvent,
    PropertyCancelled,
    PropertyRequeued,
    PropertySolved,
    PropertyStarted,
    ServiceSaturated,
    StatsSnapshot,
    WorkerStarted,
)

__all__ = [
    "WIRE_VERSION",
    "CodecError",
    "EVENT_TYPES",
    "event_class",
    "encode_event",
    "decode_event",
    "encode_report",
    "decode_report",
]

#: Version stamped into every wire object.  Bump on any change to the
#: encoded shape; decoders refuse versions they do not speak instead of
#: mis-reading fields.
WIRE_VERSION = 1

#: Every event class the wire speaks, one entry per
#: :class:`~repro.progress.ProgressEvent` subclass.  This literal tuple
#: is the codec registry: ``encode_event``/``decode_event`` resolve
#: through it, and the codec tests diff it against ``repro/progress.py``
#: so it can never silently fall behind.
EVENT_TYPES: tuple[type[ProgressEvent], ...] = (
    CacheHit,
    PropertyStarted,
    PropertySolved,
    FrameAdvanced,
    ClauseImport,
    ClauseExport,
    BudgetCheckpoint,
    ClusterStarted,
    WorkerStarted,
    PoolAttached,
    PropertyCancelled,
    PropertyRequeued,
    AttemptStarted,
    AttemptCancelled,
    PortfolioDecided,
    JobQueued,
    JobStarted,
    JobFinished,
    ServiceSaturated,
    StatsSnapshot,
)

_BY_KIND: dict[str, type[ProgressEvent]] = {cls.kind: cls for cls in EVENT_TYPES}

#: Field-level decode hooks for values JSON cannot carry natively.
#: ``PropertySolved.status`` is typed ``object`` in ``progress.py`` (to
#: keep that module import-free) but is a :class:`PropStatus` in
#: practice; it travels as its value string.
_FIELD_DECODERS: dict[tuple[str, str], typing.Callable] = {
    ("property-solved", "status"): PropStatus,
    ("portfolio-decided", "status"): PropStatus,
    ("cache-hit", "status"): PropStatus,
}


class CodecError(ValueError):
    """A wire object could not be encoded or decoded."""


def event_class(kind: str) -> type[ProgressEvent]:
    """The event class registered for ``kind`` (:class:`CodecError` if none)."""
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise CodecError(
            f"unknown event kind {kind!r}; known: {', '.join(sorted(_BY_KIND))}"
        ) from None


def _check_version(payload: dict, what: str) -> None:
    version = payload.get("v")
    if version != WIRE_VERSION:
        raise CodecError(
            f"unsupported {what} wire version {version!r} "
            f"(this side speaks {WIRE_VERSION})"
        )


def _encode_value(value: object) -> object:
    if isinstance(value, PropStatus):
        return value.value
    if isinstance(value, tuple):
        return [_encode_value(item) for item in value]
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    return value


def encode_event(event: ProgressEvent) -> dict:
    """One flat JSON-ready dict for ``event`` (``{"v", "kind", ...fields}``)."""
    cls = type(event)
    registered = _BY_KIND.get(cls.kind)
    if registered is not cls:
        raise CodecError(
            f"event type {cls.__name__!r} has no codec entry in "
            f"repro.net.codec.EVENT_TYPES"
        )
    payload: dict = {"v": WIRE_VERSION, "kind": cls.kind}
    for spec in fields(cls):
        payload[spec.name] = _encode_value(getattr(event, spec.name))
    return payload


# ``get_type_hints`` resolves the stringified annotations of
# ``progress.py`` (``from __future__ import annotations``) once per
# class; cached because decode runs per event on the hot stream path.
_HINTS_CACHE: dict[type, dict[str, object]] = {}


def _hints(cls: type) -> dict[str, object]:
    hints = _HINTS_CACHE.get(cls)
    if hints is None:
        hints = _HINTS_CACHE[cls] = typing.get_type_hints(cls)
    return hints


def _is_tuple_hint(hint: object) -> bool:
    return typing.get_origin(hint) is tuple


def decode_event(payload: dict) -> ProgressEvent:
    """The :class:`ProgressEvent` a wire dict encodes.

    Unknown fields are ignored (a newer peer may send more than we
    know); missing fields fall back to the dataclass defaults, and a
    missing *required* field surfaces as :class:`CodecError`.
    """
    if not isinstance(payload, dict):
        raise CodecError(f"event payload must be an object, got {type(payload).__name__}")
    _check_version(payload, "event")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise CodecError("event payload carries no 'kind'")
    cls = event_class(kind)
    hints = _hints(cls)
    kwargs: dict[str, object] = {}
    for spec in fields(cls):
        if spec.name not in payload:
            continue
        value = payload[spec.name]
        decoder = _FIELD_DECODERS.get((kind, spec.name))
        if decoder is not None and value is not None:
            try:
                value = decoder(value)
            except ValueError as exc:
                raise CodecError(f"bad {kind}.{spec.name}: {exc}") from None
        elif isinstance(value, list) and _is_tuple_hint(hints.get(spec.name)):
            value = tuple(value)
        kwargs[spec.name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise CodecError(f"bad {kind} payload: {exc}") from None


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def _encode_outcome(outcome: PropOutcome) -> dict:
    return {
        "name": outcome.name,
        "status": outcome.status.value,
        "local": outcome.local,
        "frames": outcome.frames,
        "time_seconds": outcome.time_seconds,
        "cex_depth": outcome.cex_depth,
        "assumed": list(outcome.assumed),
        "reruns": outcome.reruns,
        "expected_to_fail": outcome.expected_to_fail,
        "engine": outcome.engine,
    }


def encode_report(report: MultiPropReport) -> dict:
    """The full-fidelity wire form of one verification report.

    Carries every :class:`PropOutcome` field (so the client-side decode
    reconstructs an equal report) plus the derived summaries
    (``debugging_set``, ``etf_confirmed``) that CI scripts consume
    without wanting to recompute paper semantics.
    """
    return {
        "v": WIRE_VERSION,
        "method": report.method,
        "design": report.design,
        "total_time": report.total_time,
        "stats": dict(report.stats),
        "outcomes": {
            name: _encode_outcome(outcome)
            for name, outcome in report.outcomes.items()
        },
        "debugging_set": report.debugging_set(),
        "etf_confirmed": report.etf_confirmed(),
    }


def decode_report(payload: dict) -> MultiPropReport:
    """The :class:`MultiPropReport` a wire dict encodes."""
    if not isinstance(payload, dict):
        raise CodecError(
            f"report payload must be an object, got {type(payload).__name__}"
        )
    _check_version(payload, "report")
    try:
        report = MultiPropReport(
            method=payload["method"],
            design=payload["design"],
            total_time=payload.get("total_time", 0.0),
            stats=dict(payload.get("stats", {})),
        )
        for name, raw in payload.get("outcomes", {}).items():
            report.outcomes[name] = PropOutcome(
                name=raw.get("name", name),
                status=PropStatus(raw["status"]),
                local=raw["local"],
                frames=raw.get("frames", 0),
                time_seconds=raw.get("time_seconds", 0.0),
                cex_depth=raw.get("cex_depth"),
                assumed=list(raw.get("assumed", [])),
                reruns=raw.get("reruns", 0),
                expected_to_fail=raw.get("expected_to_fail", False),
                engine=raw.get("engine"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"bad report payload: {exc!r}") from None
    return report
