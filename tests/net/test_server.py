"""The HTTP front end in-process: routes, streams, back-pressure.

One ``VerificationServer`` per fixture (the stdlib threaded server on a
daemon thread, real sockets on 127.0.0.1) with a ``ServiceClient``
talking to it — everything the remote path promises, checked without
the cost of separate OS processes (which ``test_remote_e2e.py`` covers).
"""

from __future__ import annotations

import http.client
import json
import sys
import threading

import pytest

from repro.circuit.aig import AIG, aig_not
from repro.circuit.aiger import write_aag
from repro.engines.result import PropStatus
from repro.net import (
    RemoteError,
    ServiceBusy,
    ServiceClient,
    ServiceUnavailable,
)
from repro.net.server import MAX_BODY_BYTES, ROUTES, STREAM_POLL_S, VerificationServer
from repro.progress import JobFinished, JobQueued
from repro.service import VerificationService
from repro.session import Session, unregister_strategy
from repro.ts.system import TransitionSystem


def toggler_text() -> str:
    aig = AIG()
    q = aig.add_latch("q", init=0)
    aig.set_next(q, aig_not(q))
    r = aig.add_latch("r", init=0)
    aig.set_next(r, r)
    aig.add_property("never_r", aig_not(r))  # holds
    aig.add_property("never_q", aig_not(q))  # fails at frame 1
    return write_aag(aig)


def verdicts(report):
    return {name: o.status for name, o in report.outcomes.items()}


@pytest.fixture
def remote():
    """``(client, server)`` over a fresh single-job-at-a-time service."""
    service = VerificationService(max_concurrent_jobs=2)
    with VerificationServer(service, drain_grace=2.0) as server:
        yield ServiceClient(server.address), server


class TestSubmitAndResult:
    def test_remote_verdicts_match_in_process_session(self, remote, toggler):
        client, _ = remote
        expected = verdicts(Session(toggler, strategy="ja").run())
        job = client.submit(
            design_text=toggler_text(), strategy="ja", design_name="toggler"
        )
        # A two-latch design can be done before the submit response is built.
        assert job.info["status"] in ("queued", "running", "done")
        report = job.result(timeout=60)
        assert verdicts(report) == expected
        assert report.design == "toggler"
        assert report.debugging_set() == ["never_q"]

    def test_event_stream_is_complete_and_ordered(self, remote):
        client, _ = remote
        job = client.submit(design_text=toggler_text(), strategy="ja")
        events = list(job.events())
        kinds = [type(e) for e in events]
        # The server-side log subscribes before admission, so even the
        # JobQueued emitted on the submitting thread is streamed.
        assert kinds[0] is JobQueued
        assert isinstance(events[-1], JobFinished)
        solved = {e.name: e.status for e in events if e.kind == "property-solved"}
        assert solved == {
            "never_r": PropStatus.HOLDS,
            "never_q": PropStatus.FAILS,
        }

    def test_status_endpoint_reports_terminal_job(self, remote):
        client, _ = remote
        job = client.submit(design_text=toggler_text(), strategy="ja")
        job.result(timeout=60)
        status = job.status()
        assert status["status"] == "done"
        assert status["finished"] is True
        assert status["events"] > 0
        assert status["strategy"] == "ja"

    def test_result_long_poll_returns_202_then_200(self, remote, gate):
        client, _ = remote
        job = client.submit(design_text=toggler_text(), strategy="gated")
        status, payload = client._request(
            "GET", f"/jobs/{job.job_id}/result?timeout=0.05"
        )
        assert status == 202
        assert payload["status"] in ("queued", "running")
        gate.release.set()
        report = job.result(timeout=60)
        assert report.method == "gated"

    def test_result_during_finalize_gap_waits_out_the_future(self, remote):
        # The service marks a handle terminal a beat before resolving
        # its future (JobFinished is emitted in between).  A /result
        # request landing in that gap must wait the future out — not
        # 500 on the Future.exception(timeout=0) TimeoutError.
        from repro.multiprop.report import MultiPropReport
        from repro.net.server import _EventLog
        from repro.service.jobs import JobHandle, JobStatus

        client, server = remote
        handle = JobHandle("job-gap", "synthetic", "ja", 1.0)
        handle._transition(JobStatus.RUNNING)
        handle._transition(JobStatus.DONE)  # terminal, future unresolved
        server._handles[handle.job_id] = handle
        server._logs[handle.job_id] = _EventLog()
        report = MultiPropReport(method="ja", design="synthetic")
        threading.Timer(
            0.3, handle.done.set_result, args=(report,)
        ).start()
        resolved = client.job(handle.job_id).result(timeout=30)
        assert resolved.design == "synthetic"

    def test_server_side_design_path(self, remote, tmp_path):
        client, _ = remote
        design = tmp_path / "toggler.aag"
        design.write_text(toggler_text(), encoding="utf-8")
        job = client.submit(design=str(design), strategy="ja")
        report = job.result(timeout=60)
        assert set(report.outcomes) == {"never_r", "never_q"}

    def test_stats_over_the_wire(self, remote):
        client, _ = remote
        job = client.submit(design_text=toggler_text(), strategy="ja")
        job.result(timeout=60)
        stats = client.stats()
        assert stats["v"] == 1
        assert stats["draining"] is False
        assert stats["submitted"] >= 1
        assert stats["max_concurrent_jobs"] == 2
        assert stats["jobs"]["finished"] >= 1
        records = {r["job"]: r for r in stats["jobs"]["records"]}
        assert records[job.job_id]["status"] == "done"

    def test_health_endpoint(self, remote):
        client, _ = remote
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"] == 0


class TestErrorMapping:
    def _raw(self, server, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            raw = response.read()
            payload = json.loads(raw.decode("utf-8")) if raw else {}
            return response.status, payload
        finally:
            conn.close()

    def test_unknown_job_is_404_everywhere(self, remote):
        client, _ = remote
        ghost = client.job("job-999")
        for call in (ghost.status, ghost.cancel, lambda: ghost.result(0.01)):
            with pytest.raises(RemoteError) as info:
                call()
            assert info.value.status == 404
        with pytest.raises(RemoteError) as info:
            list(ghost.events())
        assert info.value.status == 404

    def test_unknown_path_is_404(self, remote):
        _, server = remote
        status, payload = self._raw(server, "GET", "/nope")
        assert status == 404
        assert "unknown path" in payload["error"]
        # The known paths are exactly ROUTES, one _handle_ method per row.
        handlers = {
            name[len("_handle_"):]
            for name in dir(VerificationServer)
            if name.startswith("_handle_")
        }
        assert sorted(handlers) == sorted(route.handler for route in ROUTES)

    def test_wrong_method_is_405(self, remote):
        _, server = remote
        status, payload = self._raw(server, "DELETE", "/jobs")
        assert status == 405
        assert "no route" in payload["error"]

    def test_oversized_body_is_413_before_it_is_read(self, remote):
        _, server = remote
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()  # and no body: the answer must not wait for one
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 413
        assert response.getheader("Content-Type") == "application/json"
        assert f"over {MAX_BODY_BYTES} bytes" in payload["error"]

    def test_bad_json_body_is_400(self, remote):
        _, server = remote
        status, payload = self._raw(server, "POST", "/jobs", body=b"{nope")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_unknown_config_field_is_400(self, remote):
        client, _ = remote
        with pytest.raises(RemoteError) as info:
            client.submit(design_text=toggler_text(), zaphod=42)
        assert info.value.status == 400
        assert "zaphod" in str(info.value)

    def test_unknown_strategy_is_400(self, remote):
        client, _ = remote
        with pytest.raises(RemoteError) as info:
            client.submit(design_text=toggler_text(), strategy="nope")
        assert info.value.status == 400

    def test_missing_design_is_400(self, remote):
        client, _ = remote
        with pytest.raises(RemoteError) as info:
            client.submit_spec({"strategy": "ja"})
        assert info.value.status == 400
        assert "design" in str(info.value)

    def test_garbage_design_text_is_400(self, remote):
        client, _ = remote
        with pytest.raises(RemoteError) as info:
            client.submit(design_text="this is not AIGER")
        assert info.value.status == 400

    @pytest.mark.parametrize(
        "content", ["secret-token-12345\n", "aag 1 0 1 0 0 secret-token-12345\n"]
    )
    def test_a_server_file_that_is_no_design_is_not_echoed(
        self, remote, tmp_path, content
    ):
        client, _ = remote
        path = tmp_path / "token.aag"
        path.write_text(content)
        with pytest.raises(RemoteError) as info:
            client.submit(design=str(path), strategy="ja")
        assert info.value.status == 400
        assert "secret" not in str(info.value)

    def test_unreachable_server_raises_service_unavailable(self):
        client = ServiceClient("127.0.0.1:1")  # nothing listens here
        with pytest.raises(ServiceUnavailable):
            client.health()


# Gated strategy scaffolding, same shape as tests/service/test_service.py
class _Gate:
    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def run(self, ts, config, emit):
        self.entered.set()
        assert self.release.wait(timeout=60)
        from repro.multiprop.report import MultiPropReport

        return MultiPropReport(method="gated", design=config.design_name)


@pytest.fixture
def gate():
    from repro.session.registry import _REGISTRY

    gate = _Gate()
    gate.name = "gated"
    _REGISTRY["gated"] = gate
    yield gate
    gate.release.set()
    unregister_strategy("gated")


class TestBackpressureAndCancel:
    @pytest.fixture
    def tight_remote(self):
        """One seat, one pending slot: easy to saturate over HTTP."""
        service = VerificationService(max_concurrent_jobs=1, max_pending=1)
        with VerificationServer(service, drain_grace=2.0) as server:
            yield ServiceClient(server.address), server

    def test_queue_full_maps_to_429_with_retry_after(self, tight_remote, gate):
        client, _ = tight_remote
        running = client.submit(design_text=toggler_text(), strategy="gated")
        assert gate.entered.wait(timeout=30)
        queued = client.submit(design_text=toggler_text(), strategy="gated")
        with pytest.raises(ServiceBusy) as info:
            client.submit(design_text=toggler_text(), strategy="gated")
        assert info.value.status == 429
        assert info.value.retry_after > 0
        assert "admission queue full" in str(info.value)
        # Cancel the queued job over HTTP: it never ran.
        assert queued.cancel() is True
        assert queued.status()["status"] == "cancelled"
        gate.release.set()
        assert running.result(timeout=60).method == "gated"
        # A cancelled job still resolves: its report is served normally.
        queued.result(timeout=60)

    def test_cancel_of_finished_job_returns_false(self, remote):
        client, _ = remote
        job = client.submit(design_text=toggler_text(), strategy="ja")
        job.result(timeout=60)
        assert job.cancel() is False


class TestConcurrentRequests:
    def test_request_counter_loses_no_update(self, remote):
        # Every connection has its own thread, and each bumps the
        # server's request counter.
        client, _ = remote
        before = client.health()["requests"]
        errors: list[BaseException] = []

        def hammer():
            try:
                for _ in range(10):
                    client.health()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # 160 requests in between, and this read counts itself.
        assert client.health()["requests"] == before + 160 + 1


class TestStreamResume:
    def _finished_job(self, client):
        job = client.submit(design_text=toggler_text(), strategy="ja")
        job.result(timeout=60)
        return job

    def test_cursor_resume_never_drops_or_duplicates(self, remote):
        client, _ = remote
        job = self._finished_job(client)
        full = list(job._stream_once(0))
        assert len(full) >= 4
        ids = [seq for seq, _ in full]
        assert ids == list(range(1, len(full) + 1))
        for cut in (0, 1, len(full) // 2, len(full) - 1, len(full)):
            resumed = list(job._stream_once(cut))
            assert full[:cut] + resumed == full

    def test_killed_stream_resumes_from_cursor(self, remote):
        client, _ = remote
        job = self._finished_job(client)
        total = job.status()["events"]
        # Take three events, then kill the connection mid-stream.
        stream = job.events()
        first = [next(stream) for _ in range(3)]
        stream.close()
        assert job.cursor == 3
        # A fresh RemoteJob with the same cursor sees exactly the rest.
        resumed_handle = client.job(job.job_id)
        resumed_handle.cursor = job.cursor
        rest = list(resumed_handle.events())
        assert len(first) + len(rest) == total
        assert isinstance(rest[-1], JobFinished)
        assert not any(isinstance(e, JobQueued) for e in rest)

    def test_cut_stream_is_released_within_a_poll(self, remote, gate, monkeypatch):
        # Drain waits on the open-stream count, so a stream whose
        # client hung up mid-job must not keep counting.
        client, server = remote
        released = threading.Event()
        stream = server._handle_job_events

        def marked_stream(request, http):
            try:
                stream(request, http)
            finally:
                released.set()  # after the stream's own count went down

        monkeypatch.setattr(server, "_handle_job_events", marked_stream)
        job = client.submit(design_text=toggler_text(), strategy="gated")
        assert gate.entered.wait(timeout=30)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("GET", f"/jobs/{job.job_id}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert client.health()["streams"] == 1
        response.close()
        conn.close()
        assert released.wait(timeout=STREAM_POLL_S + 1.0)  # 1 s of scheduling slack
        assert client.health()["streams"] == 0
        gate.release.set()
        assert job.result(timeout=60).method == "gated"

    def test_watch_from_cursor_equals_watch_from_start(self, remote):
        client, _ = remote
        job = self._finished_job(client)
        replay = client.job(job.job_id)
        full = list(replay.events())
        tail_handle = client.job(job.job_id)
        tail_handle.cursor = 2
        assert list(tail_handle.events()) == full[2:]


class TestDrain:
    def test_drain_settles_jobs_and_refuses_new_submits(self, toggler):
        service = VerificationService(max_concurrent_jobs=2)
        server = VerificationServer(service, drain_grace=2.0).start()
        client = ServiceClient(server.address)
        job = client.submit(design_text=toggler_text(), strategy="ja")
        job.result(timeout=60)
        server.stop()
        assert service.closed
        with pytest.raises(ServiceUnavailable):
            client.submit(design_text=toggler_text(), strategy="ja")

    def test_drain_cancels_stuck_jobs_within_grace(self, gate):
        # A queued gated job is cancelled by the drain (the running one
        # is released by the fixture teardown path below).
        service = VerificationService(max_concurrent_jobs=1, max_pending=2)
        server = VerificationServer(service, drain_grace=0.2).start()
        client = ServiceClient(server.address)
        running = client.submit(design_text=toggler_text(), strategy="gated")
        assert gate.entered.wait(timeout=30)
        queued = client.submit(design_text=toggler_text(), strategy="gated")
        threading.Timer(0.5, gate.release.set).start()
        server.stop()
        assert service.closed
        # Both settled: the running job finished, the queued one was
        # either cancelled by the drain or ran after the release.
        statuses = {h.status.value for h in server._handles.values()}
        assert statuses <= {"done", "cancelled"}


class TestPortfolioOverTheWire:
    def test_portfolio_job_streams_race_events(self, remote):
        from repro.progress import (
            AttemptCancelled,
            AttemptStarted,
            PortfolioDecided,
        )

        client, _ = remote
        job = client.submit(
            design_text=toggler_text(),
            strategy="portfolio",
            seed=9,
            design_name="toggler",
        )
        events = list(job.events())
        assert isinstance(events[-1], JobFinished)
        decided = {
            e.name: e for e in events if isinstance(e, PortfolioDecided)
        }
        assert set(decided) == {"never_r", "never_q"}
        # The decoded status survives the wire as a real PropStatus.
        assert decided["never_q"].status is PropStatus.FAILS
        assert decided["never_r"].status is PropStatus.HOLDS
        assert decided["never_r"].winner in ("kind", "ic3")
        # Each race announces the engines that got a slice, and only
        # those: the winner and the losers its decision names.
        for name, decision in decided.items():
            started = [
                e.engine
                for e in events
                if isinstance(e, AttemptStarted) and e.name == name
            ]
            assert sorted(started) == sorted([*decision.losers, decision.winner])
        # Nothing runs against a decided property, so nothing is cancelled.
        assert not [e for e in events if isinstance(e, AttemptCancelled)]
        report = job.result(timeout=60)
        races = report.stats["portfolio"]
        assert races["never_q"]["winner"] == decided["never_q"].winner
        assert report.outcomes["never_q"].engine == decided["never_q"].winner


class TestTransitionSystemHelper:
    def test_inline_design_parses_to_same_system(self, toggler):
        from repro.circuit.aiger import parse_aag

        parsed = TransitionSystem(parse_aag(toggler_text()))
        assert [p.name for p in parsed.properties] == [
            p.name for p in toggler.properties
        ]
