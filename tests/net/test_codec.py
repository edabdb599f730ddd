"""The wire codec: every event type survives a real JSON round trip.

The contract under test is exactly what the server and client rely on:
``decode_event(json.loads(json.dumps(encode_event(e)))) == e`` for every
registered ``ProgressEvent`` subclass — including tuple-valued fields
(which JSON flattens to lists) and the ``PropStatus`` enum — plus the
report codec, version gating, and tolerance for unknown fields.  The
registry rows also pin what every event type owes the CLI: its own
``format_event`` arm and a place in ``repro.progress.__all__``.
"""

from __future__ import annotations

import json
import typing
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.result import PropStatus
from repro.multiprop.report import MultiPropReport, PropOutcome
from repro.net.codec import (
    EVENT_TYPES,
    WIRE_VERSION,
    CodecError,
    decode_event,
    decode_report,
    encode_event,
    encode_report,
)
from repro.progress import (
    JobFinished,
    ProgressEvent,
    JobQueued,
    PropertySolved,
    format_event,
)

# JSON-native scalars that compare equal after a dump/load cycle.
_SCALARS = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.none(),
)


def _leaf_strategy(hint: object) -> st.SearchStrategy:
    if hint is bool:
        return st.booleans()
    if hint is int:
        return st.integers(min_value=-(2**31), max_value=2**31)
    if hint is float:
        return st.floats(allow_nan=False, allow_infinity=False, width=32)
    if hint is str:
        return st.text(max_size=24)
    if hint is dict:
        return st.dictionaries(st.text(max_size=8), _SCALARS, max_size=4)
    origin = typing.get_origin(hint)
    if origin is tuple:
        element = typing.get_args(hint)[0]
        return st.lists(_leaf_strategy(element), max_size=4).map(tuple)
    if origin is typing.Union or str(origin) == "<class 'types.UnionType'>":
        return st.one_of(
            *[_leaf_strategy(member) for member in typing.get_args(hint)]
        )
    if hint is type(None):
        return st.none()
    raise AssertionError(f"no strategy for annotation {hint!r}")


def _event_strategy(cls: type[ProgressEvent]) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for spec in fields(cls):
        if spec.name == "status" and hints[spec.name] is object:
            # Typed ``object`` in progress.py (PropertySolved,
            # PortfolioDecided); a PropStatus in practice.
            kwargs[spec.name] = st.sampled_from(list(PropStatus))
        else:
            kwargs[spec.name] = _leaf_strategy(hints[spec.name])
    return st.builds(cls, **kwargs)


@pytest.mark.parametrize("cls", EVENT_TYPES, ids=lambda c: c.kind)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_event_type_round_trips(cls, data):
    event = data.draw(_event_strategy(cls))
    wire = json.loads(json.dumps(encode_event(event)))
    assert wire["kind"] == cls.kind
    assert wire["v"] == WIRE_VERSION
    decoded = decode_event(wire)
    assert type(decoded) is cls
    assert decoded == event
    # The CLI renders it through its own arm, not the generic fallback.
    assert format_event(event) != f"[{event.kind}] {event!r}"


def test_registry_covers_every_progress_event_subclass():
    import repro.progress as progress

    declared = {
        obj
        for obj in vars(progress).values()
        if isinstance(obj, type)
        and issubclass(obj, ProgressEvent)
        and obj is not ProgressEvent
    }
    assert declared == set(EVENT_TYPES)
    assert {cls.__name__ for cls in declared} <= set(progress.__all__)


def test_unknown_kind_raises():
    with pytest.raises(CodecError, match="unknown event kind"):
        decode_event({"v": WIRE_VERSION, "kind": "time-travel"})


def test_version_mismatch_raises():
    wire = encode_event(JobFinished(job="j", status="done"))
    wire["v"] = WIRE_VERSION + 1
    with pytest.raises(CodecError, match="wire version"):
        decode_event(wire)


def test_missing_required_field_raises():
    wire = encode_event(JobQueued(job="j", design="d", strategy="ja"))
    del wire["design"]
    with pytest.raises(CodecError, match="job-queued"):
        decode_event(wire)


def test_unknown_fields_are_ignored():
    # A newer peer may send fields we do not know; decoding tolerates them.
    event = JobFinished(job="j", status="done", total_time=1.5)
    wire = encode_event(event)
    wire["from_the_future"] = {"x": 1}
    assert decode_event(wire) == event


def test_unregistered_event_type_refuses_to_encode():
    class PluginEvent(ProgressEvent):
        kind = "plugin-event"

    with pytest.raises(CodecError, match="no codec entry"):
        encode_event(PluginEvent())


def test_bad_status_string_raises():
    wire = encode_event(
        PropertySolved(name="p", status=PropStatus.HOLDS, local=True)
    )
    wire["status"] = "maybe"
    with pytest.raises(CodecError, match="status"):
        decode_event(wire)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def _sample_report() -> MultiPropReport:
    report = MultiPropReport(
        method="parallel-ja",
        design="toggler",
        total_time=2.25,
        stats={"frames": 7, "clauses_exported": 3},
    )
    report.outcomes["never_r"] = PropOutcome(
        name="never_r",
        status=PropStatus.HOLDS,
        local=True,
        frames=3,
        time_seconds=0.5,
        assumed=["never_q"],
    )
    report.outcomes["never_q"] = PropOutcome(
        name="never_q",
        status=PropStatus.FAILS,
        local=True,
        cex_depth=1,
        reruns=1,
    )
    report.outcomes["etf_w"] = PropOutcome(
        name="etf_w",
        status=PropStatus.FAILS,
        local=True,
        cex_depth=4,
        expected_to_fail=True,
    )
    report.outcomes["stuck"] = PropOutcome(
        name="stuck", status=PropStatus.UNKNOWN, local=False
    )
    return report


def test_report_round_trips_through_json():
    report = _sample_report()
    wire = json.loads(json.dumps(encode_report(report)))
    decoded = decode_report(wire)
    assert decoded == report
    # Derived summaries survive (and match a client-side recompute).
    assert wire["debugging_set"] == report.debugging_set() == ["never_q"]
    assert wire["etf_confirmed"] == report.etf_confirmed() == ["etf_w"]
    assert decoded.debugging_set() == report.debugging_set()


def test_report_version_mismatch_raises():
    wire = encode_report(_sample_report())
    wire["v"] = 99
    with pytest.raises(CodecError, match="wire version"):
        decode_report(wire)


def test_report_with_malformed_outcome_raises():
    wire = encode_report(_sample_report())
    wire["outcomes"]["never_r"].pop("status")
    with pytest.raises(CodecError, match="bad report payload"):
        decode_report(wire)
