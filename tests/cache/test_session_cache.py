"""Cache through Session / VerificationService / CLI: parity end to end."""

from __future__ import annotations

import json
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheResolver, ProofStore, design_digest
from repro.circuit.aiger import parse_aag, save_design, write_aag
from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS
from repro.gen.counter import fixed_counter
from repro.multiprop.ja import WARM_LOG, JAVerifier
from repro.progress import ClauseImport, JobFinished
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

    def test_a_pooled_write_back_runs_off_the_dispatcher(self, tmp_path, monkeypatch):
        # The write-back certifies (SAT work); on the dispatcher thread it
        # would hold up every other job.  JobFinished still follows it.
        threads, stored = [], []
        record_outcomes = CacheResolver.record_outcomes

        def spied(resolver, *args):
            threads.append(threading.current_thread().name)
            return record_outcomes(resolver, *args)

        def on_event(event):
            if isinstance(event, JobFinished):
                stored.append(len(list((tmp_path / "entries").iterdir())))

        monkeypatch.setattr(CacheResolver, "record_outcomes", spied)
        config = VerificationConfig(strategy="parallel-ja", workers=1, cache_dir=str(tmp_path))
        with VerificationService(workers=1) as service:
            for _ in range(2):
                report = service.submit(
                    TransitionSystem(fixed_counter(4)), config, on_event=on_event
                ).result()
        assert len(threads) == 2 and "repro-service" not in threads
        assert stored == [2, 2]
        assert report.stats["cache_hits"] == 2

    def test_a_threaded_warm_start_counts_on_the_services_store(self, tmp_path):
        def submit(service):
            return service.submit(
                TransitionSystem(fixed_counter(4)), VerificationConfig(strategy="ja")
            ).result()

        with VerificationService(cache_dir=str(tmp_path)) as service:
            submit(service)
            for entry in (tmp_path / "entries").iterdir():
                if json.loads(entry.read_text())["prop"] == "P1":
                    entry.unlink()  # P1 is left to prove; P0 still hits
            report = submit(service)
            stats = service.stats().cache
        assert report.stats["cache_hits"] == 1
        assert (stats["warm_loads"], stats["warm_clauses"]) == (1, 3)

    def test_partial_hit_warm_starts_on_every_route(self, tmp_path, monkeypatch):
        """The design's warm log is the one cross-run clause store: on a
        partial hit, ``ja`` and ``separate`` seed their clause DB from it
        and a pooled job its seats', one-shot or served, with the store
        named by the job or by the service."""
        stores = []
        load_warm = ProofStore.load_warm

        def spy(store, design, ts):
            stores.append(store)
            return load_warm(store, design, ts)

        monkeypatch.setattr(ProofStore, "load_warm", spy)

        def one_shot(ts, config, cache_dir):
            return Session(ts, config.with_overrides(cache_dir=cache_dir)).run()

        def served(ts, config, cache_dir):
            with VerificationService(workers=1) as service:
                return service.submit(ts, config.with_overrides(cache_dir=cache_dir)).result()

        def served_by_default(ts, config, cache_dir):
            with VerificationService(workers=1, cache_dir=cache_dir) as service:
                return service.submit(ts, config).result()

        def partial_hit(route, strategy, cache_dir, **overrides):
            config = VerificationConfig(strategy=strategy, workers=1, **overrides)
            route(TransitionSystem(fixed_counter(4)), config, str(cache_dir))  # cold: writes
            for entry in (cache_dir / "entries").iterdir():
                if json.loads(entry.read_text())["prop"] == "P1":
                    entry.unlink()  # P1 is left to prove; P0 still hits
            del stores[:]
            report = route(TransitionSystem(fixed_counter(4)), config, str(cache_dir))
            assert report.stats["cache_hits"] == 1
            assert report.outcomes["P1"].engine != "cache"
            warm = sum(store.stats()["warm_clauses"] for store in set(stores))
            return _verdicts(report), len(stores), warm

        for strategy in ("ja", "separate", "parallel-ja"):
            results = {
                route.__name__: partial_hit(route, strategy, tmp_path / f"{strategy}-{route.__name__}")
                for route in (one_shot, served, served_by_default)
            }
            one_shot_result = results["one_shot"]
            assert all(r == one_shot_result for r in results.values()), (strategy, results)
            _, loads, warm = one_shot_result
            assert loads == 1 and warm > 0, (strategy, results)
            # Without clause reuse no route reads the log.
            no_reuse = tmp_path / f"{strategy}-no-reuse"
            assert partial_hit(served_by_default, strategy, no_reuse, clause_reuse=False)[1:] == (0, 0)

    def test_a_foreign_or_truncated_warm_log_is_a_cold_start(self, tmp_path):
        cold = _run(TransitionSystem(fixed_counter(4)), tmp_path)
        (warm_log,) = (tmp_path / "warm").iterdir()
        text = warm_log.read_text()
        header, names = text.splitlines()[:2]
        bad_logs = {
            "foreign": f"{header}\nx0 x1 x2 x3\n-1\n",
            "truncated": text[: len(header) + 1 + len(names) // 2],
            "version 1": text.replace(header, "clausedb 1", 1),
        }
        for entry in (tmp_path / "entries").iterdir():
            if json.loads(entry.read_text())["prop"] == "P1":
                entry.unlink()

        def warm_imports():
            events: list = []
            report = _run(TransitionSystem(fixed_counter(4)), tmp_path, events, cache_mode="read")
            assert _verdicts(report) == _verdicts(cold)
            assert report.outcomes["P1"].engine != "cache"
            return [e for e in events if isinstance(e, ClauseImport) and e.name == WARM_LOG]

        assert warm_imports()  # the intact log warm-starts
        for bad in bad_logs.values():
            warm_log.write_text(bad)
            assert not warm_imports()

    def test_a_read_job_on_a_default_store_never_writes(self, tmp_path):
        from repro.net import ServiceClient, VerificationServer

        design = fixed_counter(4)
        with VerificationService(workers=1, cache_dir=str(tmp_path)) as service:
            report = service.submit(TransitionSystem(design), strategy="ja", cache_mode="read").result()
            assert len(report.outcomes) == 2
            with VerificationServer(service) as server:
                job = ServiceClient(server.address).submit(
                    design_text=write_aag(design), strategy="ja", cache_mode="read"
                )
                assert len(job.result(timeout=60).outcomes) == 2
        assert not (tmp_path / "entries").exists()
        assert not (tmp_path / "warm").exists()

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
        """The warm log the object's run writes seeds the run on its
        ``.aag`` text: same digest, and a latch signature that matches."""
        aig = ALL_TRUE_SPECS["t256"].build()
        _run(TransitionSystem(aig), tmp_path)
        logged = ProofStore(tmp_path).load_warm(design_digest(TransitionSystem(aig)), TransitionSystem(aig))
        assert logged
        events: list = []
        from_text = TransitionSystem(parse_aag(write_aag(aig)))
        report = JAVerifier(from_text, VerificationConfig(cache_dir=str(tmp_path)), events.append).run()
        assert not report.unsolved()
        imports = [e.count for e in events if isinstance(e, ClauseImport) and e.name == WARM_LOG]
        assert imports == [len(logged)]

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
