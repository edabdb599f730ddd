"""Cache through Session / VerificationService / CLI: parity end to end."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ProofStore
from repro.circuit.aiger import parse_aag, save_design, write_aag
from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS
from repro.gen.counter import fixed_counter
from repro.multiprop.ja import JAVerifier
from repro.service import VerificationService
from repro.session import Session, VerificationConfig
from repro.ts.system import TransitionSystem


def _run(ts, cache_dir, events=None, **overrides):
    config = VerificationConfig(cache_dir=str(cache_dir), **overrides)
    session = Session(ts, config=config, on_event=(events.append if events is not None else None))
    return session.run()


def _verdicts(report):
    return {name: o.status.value for name, o in report.outcomes.items()}


class TestSessionParity:
    @settings(max_examples=8, deadline=None)
    @given(bits=st.integers(min_value=2, max_value=5), rval=st.none() | st.integers(0, 31))
    def test_cold_warm_verdict_and_frames_parity(self, tmp_path_factory, bits, rval):
        if rval is not None:
            rval %= 1 << bits  # reset value must fit the counter width
        cache_dir = tmp_path_factory.mktemp("proofcache")
        cold = _run(TransitionSystem(fixed_counter(bits, rval)), cache_dir)

        events: list = []
        warm = _run(TransitionSystem(fixed_counter(bits, rval)), cache_dir, events)
        assert _verdicts(warm) == _verdicts(cold)
        hits = [e for e in events if getattr(e, "kind", "") == "cache-hit"]
        assert len(hits) == len(cold.outcomes)  # nothing re-proved
        for name, outcome in warm.outcomes.items():
            assert outcome.engine == "cache"
            assert outcome.frames == cold.outcomes[name].frames
            assert outcome.local == cold.outcomes[name].local

    def test_cache_off_parity(self, tmp_path):
        cached = _run(TransitionSystem(fixed_counter(4)), tmp_path)
        plain = Session(TransitionSystem(fixed_counter(4))).run()
        assert _verdicts(cached) == _verdicts(plain)

    def test_edit_reproves_only_the_changed_cone(self, tmp_path):
        from tests.cache.test_resolve import _two_cones

        _run(_two_cones(b_init=0), tmp_path)
        events: list = []
        edited = _run(_two_cones(b_init=1), tmp_path, events)  # Pb's cone changed
        assert [e.name for e in events if e.kind == "cache-hit"] == ["Pa"]
        assert edited.outcomes["Pa"].engine == "cache"
        assert edited.outcomes["Pb"].engine != "cache"
        assert _verdicts(edited) == _verdicts(Session(_two_cones(b_init=1)).run())

    def test_report_counts_hits(self, tmp_path):
        _run(TransitionSystem(fixed_counter(4)), tmp_path)
        warm = _run(TransitionSystem(fixed_counter(4)), tmp_path)
        assert warm.stats.get("cache_hits") == 2

    @pytest.mark.parametrize("strategy", ["ja", "separate"])
    def test_cached_pass_reports_the_proved_pass_method(self, tmp_path, strategy):
        # A run served from the cache names the same method as the run
        # that proved it: the strategy's registry name.
        passes = [
            _run(TransitionSystem(fixed_counter(4)), tmp_path, strategy=strategy)
            for _ in range(2)
        ]
        cold, warm = passes
        assert warm.stats.get("cache_hits") == 2
        assert cold.method == warm.method == strategy

    def test_read_mode_serves_but_never_writes(self, tmp_path):
        _run(TransitionSystem(fixed_counter(4)), tmp_path)
        entries = sorted(p.name for p in (tmp_path / "entries").iterdir())
        events: list = []
        _run(
            TransitionSystem(fixed_counter(4)),
            tmp_path,
            events,
            cache_mode="read",
        )
        assert [e for e in events if getattr(e, "kind", "") == "cache-hit"]
        assert sorted(p.name for p in (tmp_path / "entries").iterdir()) == entries


class TestServiceCache:
    def test_pooled_jobs_hit_and_count(self, tmp_path):
        config = VerificationConfig(
            strategy="parallel-ja", workers=2, cache_dir=str(tmp_path)
        )
        with VerificationService(workers=2) as service:
            first = service.submit(TransitionSystem(fixed_counter(4)), config)
            cold = first.result()
            second = service.submit(TransitionSystem(fixed_counter(4)), config)
            warm = second.result()
            stats = service.stats()
        assert _verdicts(warm) == _verdicts(cold)
        assert warm.stats.get("cache_hits") == 2
        assert stats.cache["hits"] == 2
        assert stats.cache["writes"] == 2

    def test_partial_hit_warm_starts_on_every_route(self, tmp_path, monkeypatch):
        """A one-shot pooled run is a service job: it seeds its seats'
        clause DBs from the design's warm log exactly as a submit does."""
        stores = []
        load_warm = ProofStore.load_warm

        def spy(store, design, ts):
            stores.append(store)
            return load_warm(store, design, ts)

        monkeypatch.setattr(ProofStore, "load_warm", spy)

        def one_shot(ts, config):
            return Session(ts, config).run()

        def served(ts, config):
            with VerificationService(workers=1) as service:
                return service.submit(ts, config).result()

        def partial_hit(route, cache_dir):
            config = VerificationConfig(
                strategy="parallel-ja", workers=1, cache_dir=str(cache_dir)
            )
            route(TransitionSystem(fixed_counter(4)), config)  # cold: writes
            for entry in (cache_dir / "entries").iterdir():
                if json.loads(entry.read_text())["prop"] == "P1":
                    entry.unlink()  # P1 is left to prove; P0 still hits
            del stores[:]
            report = route(TransitionSystem(fixed_counter(4)), config)
            assert report.stats["cache_hits"] == 1
            assert report.outcomes["P1"].engine != "cache"
            return _verdicts(report), sum(
                store.stats()["warm_clauses"] for store in set(stores)
            )

        session_verdicts, session_warm = partial_hit(one_shot, tmp_path / "a")
        service_verdicts, service_warm = partial_hit(served, tmp_path / "b")
        assert session_verdicts == service_verdicts
        assert session_warm == service_warm > 0

    def test_service_default_cache_dir(self, tmp_path):
        with VerificationService(workers=2, cache_dir=str(tmp_path)) as service:
            service.submit(TransitionSystem(fixed_counter(4))).result()
            warm = service.submit(TransitionSystem(fixed_counter(4))).result()
        assert warm.stats.get("cache_hits") == 2


class TestOneDesignOnEveryRoute:
    """A design is the same design however it arrives (AIGER keeps the
    latch names), and a record serves every design with its cone."""

    def test_proved_from_the_object_hits_from_every_file_and_http(self, tmp_path):
        from repro.net import ServiceClient, VerificationServer

        aig = ALL_TRUE_SPECS["t256"].build()
        cache_dir = str(tmp_path / "proofs")
        _run(TransitionSystem(aig), cache_dir)
        names = {p.name for p in aig.properties}
        for suffix in (".aag", ".aig"):
            path = tmp_path / f"t256{suffix}"
            save_design(aig, path)
            events: list = []
            warm = _run(str(path), cache_dir, events)
            assert {e.name for e in events if e.kind == "cache-hit"} == names, suffix
            assert all(o.engine == "cache" for o in warm.outcomes.values())
        with VerificationServer(VerificationService(workers=1)) as server:
            job = ServiceClient(server.address).submit(
                design_text=write_aag(aig), strategy="ja", cache_dir=cache_dir
            )
            report = job.result(timeout=60)
        assert all(o.engine == "cache" for o in report.outcomes.values())

    def test_a_clause_db_saved_from_the_object_loads_for_the_file(self, tmp_path):
        aig = ALL_TRUE_SPECS["t256"].build()
        db_path = str(tmp_path / "t256.clausedb")
        JAVerifier(TransitionSystem(aig), VerificationConfig(clause_db_path=db_path)).run()
        from_text = TransitionSystem(parse_aag(write_aag(aig)))
        # A latch-signature mismatch would raise ClauseDBFormatError here.
        report = JAVerifier(from_text, VerificationConfig(clause_db_path=db_path)).run()
        assert not report.unsolved()

    @pytest.mark.parametrize("route", ["object", "aag-text"])
    def test_shared_cones_serve_across_designs(self, tmp_path, route):
        """remote-cached's five designs share cones across designs (a cold
        pass serves 29 of their 131 properties from another design's
        records), and a warm pass proves nothing and rejects nothing."""
        specs = {**FAILING_SPECS, **ALL_TRUE_SPECS}
        config = VerificationConfig(
            strategy="parallel-ja", workers=2, cache_dir=str(tmp_path)
        )

        def one_pass(service):
            reports = {}
            for name in ("f104", "f207", "f335", "t135", "t275"):
                aig = specs[name].build()
                if route == "aag-text":
                    aig = parse_aag(write_aag(aig))
                reports[name] = service.submit(TransitionSystem(aig), config).result()
            return reports

        with VerificationService(workers=2) as service:
            cold = one_pass(service)
            warm = one_pass(service)
            stats = service.stats()
        assert sum(len(r.outcomes) for r in warm.values()) == 131
        assert all(
            o.engine == "cache" for r in warm.values() for o in r.outcomes.values()
        )
        assert stats.cache["certify_rejects"] == 0
        assert {n: _verdicts(r) for n, r in warm.items()} == {
            n: _verdicts(r) for n, r in cold.items()
        }


class TestCrossProcess:
    def test_cli_second_process_serves_from_cache(self, tmp_path):
        design = tmp_path / "counter.aag"
        cache_dir = tmp_path / "proofs"

        def check(json_name):
            out = tmp_path / json_name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "check",
                    str(design),
                    "--cache-dir",
                    str(cache_dir),
                    "--progress",
                    "--json",
                    str(out),
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 1, proc.stderr  # P0 fails by design
            return json.loads(out.read_text()), proc.stdout

        gen = subprocess.run(
            [sys.executable, "-m", "repro", "gen", "counter4", "-o", str(design)],
            capture_output=True,
            timeout=120,
        )
        assert gen.returncode == 0, gen.stderr
        cold, cold_out = check("cold.json")
        warm, warm_out = check("warm.json")
        assert "[cache-hit]" not in cold_out
        assert warm_out.count("[cache-hit]") == 2
        cold_verdicts = {n: o["status"] for n, o in cold["outcomes"].items()}
        warm_verdicts = {n: o["status"] for n, o in warm["outcomes"].items()}
        assert warm_verdicts == cold_verdicts
        assert {e["engine"] for e in warm["outcomes"].values()} == {"cache"}
