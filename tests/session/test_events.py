"""Event-stream contracts: bracketing, ordering, and channel parity."""

from __future__ import annotations

import threading
import time

import pytest

from repro.circuit import words
from repro.circuit.aig import AIG
from repro.engines.result import PropStatus
from repro.multiprop.report import MultiPropReport
from repro.progress import (
    ClauseExport,
    ClauseImport,
    FrameAdvanced,
    JobFinished,
    JobQueued,
    JobStarted,
    ProgressEvent,
    PropertySolved,
    PropertyStarted,
)
from repro.session import Session


def collect(design, **config):
    events = []
    session = Session(design, on_event=events.append, **config)
    report = session.run()
    return events, report


class TestBracketing:
    @pytest.mark.parametrize("strategy", ["ja", "joint", "separate", "clustered"])
    def test_run_events_bracket_the_stream(self, counter4, strategy):
        # A run is one service job: its lifecycle events bracket it.
        events, report = collect(counter4, strategy=strategy)
        assert isinstance(events[0], JobQueued)
        assert isinstance(events[-1], JobFinished)
        assert events[0].strategy == strategy
        assert events[0].job == events[-1].job
        finished = events[-1]
        assert finished.status == "done"
        assert finished.num_false == len(report.false_props())
        assert finished.num_true == len(report.true_props())
        assert finished.num_unknown == len(report.unsolved())


class TestOrdering:
    def test_started_precedes_solved_per_property(self, counter4):
        events, _ = collect(counter4, strategy="ja")
        for name in ("P0", "P1"):
            started = next(
                i for i, e in enumerate(events)
                if isinstance(e, PropertyStarted) and e.name == name
            )
            solved = next(
                i for i, e in enumerate(events)
                if isinstance(e, PropertySolved) and e.name == name
            )
            assert started < solved

    def test_one_solved_event_per_property(self, counter4):
        events, report = collect(counter4, strategy="separate")
        solved = [e for e in events if isinstance(e, PropertySolved)]
        assert sorted(e.name for e in solved) == sorted(report.outcomes)
        by_name = {e.name: e for e in solved}
        for name, outcome in report.outcomes.items():
            assert by_name[name].status is outcome.status
            assert by_name[name].local == outcome.local

    def test_frames_advance_monotonically_per_property(self, counter4):
        events, _ = collect(counter4, strategy="ja")
        frames = {}
        for event in events:
            if isinstance(event, FrameAdvanced):
                assert event.frame > frames.get(event.name, 0)
                frames[event.name] = event.frame
        assert frames, "IC3 emitted no frame events"

    def test_clause_reuse_emits_export_then_import(self, toggler):
        # toggler: never_r holds (exports clauses), never_q is checked
        # after and imports them via the clauseDB.
        events, report = collect(toggler, strategy="separate")
        assert report.outcomes["never_r"].status is PropStatus.HOLDS
        kinds = [type(e) for e in events]
        assert ClauseExport in kinds
        export_at = kinds.index(ClauseExport)
        import_at = kinds.index(ClauseImport)
        assert export_at < import_at


class TestChannels:
    def test_stream_iterator_matches_callback_channel(self, counter4):
        callback_events, _ = collect(counter4, strategy="joint")
        session = Session(counter4, strategy="joint")
        streamed = list(session.stream())
        assert session.report is not None
        assert [type(e) for e in streamed] == [type(e) for e in callback_events]
        assert all(isinstance(e, ProgressEvent) for e in streamed)

    def test_stream_reraises_strategy_errors(self, counter4):
        from repro.session import register_strategy, unregister_strategy

        @register_strategy("exploding")
        class Exploding:
            """Always raises."""

            def run(self, ts, config, emit):
                raise RuntimeError("boom")

        try:
            session = Session(counter4, strategy="exploding")
            seen = []
            session.subscribe(seen.append)
            with pytest.raises(RuntimeError, match="boom"):
                list(session.stream())
            # JobFinished still brackets the stream on failure.
            assert isinstance(seen[-1], JobFinished)
            assert seen[-1].status == "failed"
            assert seen[-1].num_true == seen[-1].num_false == 0
        finally:
            unregister_strategy("exploding")

    def test_stream_abandoned_early_does_not_block(self, counter4):
        session = Session(counter4, strategy="ja")
        iterator = session.stream()
        first = next(iterator)
        assert isinstance(first, JobQueued)
        iterator.close()  # must detach promptly, not join the whole run

    def test_stream_abandoned_while_pooled_cancels_its_job(self):
        # A 20-bit counter whose property fails only after 2^20 - 1
        # steps: no engine settles it within the test.
        aig = AIG()
        val = words.word_latches(aig, "val", 20, init=0)
        words.set_next_word(aig, val, words.inc(aig, val))
        aig.add_property("deep", words.ule_const(aig, val, (1 << 20) - 2))
        seen = []
        session = Session(aig, strategy="parallel-ja", workers=1, on_event=seen.append)
        iterator = session.stream()
        for event in iterator:
            if isinstance(event, JobStarted):
                break
        started = time.monotonic()
        iterator.close()
        assert time.monotonic() - started < 10.0
        assert isinstance(seen[-1], JobFinished)
        assert seen[-1].status == "cancelled"
        assert session.report is None

    def test_stream_abandoned_while_threaded_keeps_the_report(self, counter4):
        from repro.session import register_strategy, unregister_strategy

        release = threading.Event()

        @register_strategy("held")
        class Held:
            """Blocks until the test releases it."""

            def run(self, ts, config, emit):
                assert release.wait(timeout=60)
                return MultiPropReport(method="held", design=config.design_name)

        try:
            session = Session(counter4, strategy="held")
            iterator = session.stream()
            for event in iterator:
                if isinstance(event, JobStarted):
                    break
            iterator.close()  # the job is RUNNING: detaches, does not wait
            assert session.report is None
            release.set()
            deadline = time.monotonic() + 30
            while session.report is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert session.report is not None
            assert session.report.method == "held"
        finally:
            release.set()
            unregister_strategy("held")

    def test_started_and_solved_paired_when_budget_skips(self, counter4):
        # total_time=0 exhausts before any property: every verdict is
        # UNKNOWN, yet each still gets a started/solved pair.
        for strategy in ("ja", "separate"):
            events, report = collect(counter4, strategy=strategy, total_time=0.0)
            assert {o.status for o in report.outcomes.values()} == {
                PropStatus.UNKNOWN
            }
            started = [e.name for e in events if isinstance(e, PropertyStarted)]
            solved = [e.name for e in events if isinstance(e, PropertySolved)]
            assert started == solved == ["P0", "P1"]

    def test_subscribe_and_unsubscribe(self, counter4):
        session = Session(counter4, strategy="ja")
        seen = []
        callback = session.subscribe(seen.append)
        session.unsubscribe(callback)
        session.run()
        assert seen == []

    def test_events_are_immutable(self, counter4):
        events, _ = collect(counter4, strategy="ja")
        with pytest.raises(Exception):
            events[0].strategy = "hacked"
