"""The service's cone memo: a warm hit pays for its certificate only.

Every hit still runs a fresh certificate check; what the memo saves is
re-deriving the property's cone (the support fixpoint, the COI
reduction, the cone digest and the cone's frame templates).  Counters,
never clocks: ``cones_built``/``cone_hits`` in the service's cache
stats, and counted calls of ``reduce_to_cone`` and ``Solver.solve``.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.cache import ConeMemo, resolve as resolve_module
from repro.circuit.aig import AIG, aig_not
from repro.circuit.aiger import parse_aag, write_aag
from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS
from repro.gen.counter import buggy_counter, fixed_counter
from repro.parallel.pool import DESIGN_CACHE_SIZE
from repro.sat.solver import Solver
from repro.service import VerificationService
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

SPECS = {**FAILING_SPECS, **ALL_TRUE_SPECS}
#: remote-cached's slate (benchmarks/perf/workloads.py).
REMOTE_CACHED = ("f104", "f207", "f335", "t135", "t275")


@pytest.fixture
def reductions(monkeypatch) -> list:
    """One entry per ``reduce_to_cone`` call the resolver makes."""
    calls: list = []
    reduce = resolve_module.reduce_to_cone

    def counted(aig, names):
        calls.append(list(names))
        return reduce(aig, names)

    monkeypatch.setattr(resolve_module, "reduce_to_cone", counted)
    return calls


def _text(name: str) -> str:
    return write_aag(SPECS[name].build())


def _submit(service, text: str, cache_dir) -> dict:
    config = VerificationConfig(strategy="ja", cache_dir=str(cache_dir))
    report = service.submit(TransitionSystem(parse_aag(text)), config).result()
    return report.outcomes


class TestWarmResubmit:
    def test_in_process_reduces_no_cone(self, tmp_path, reductions):
        text = _text("t135")
        with VerificationService() as service:
            cold = _submit(service, text, tmp_path)
            built = service.stats().cache["cones_built"]
            del reductions[:]
            warm = _submit(service, text, tmp_path)
            stats = service.stats().cache
        assert built == len(cold) == 21
        assert reductions == []
        assert stats["cones_built"] == built
        # Cold: resolve builds every cone and the write-back reuses them;
        # warm: one more lookup per property.
        assert stats["cone_hits"] == 2 * len(cold)
        assert all(o.engine == "cache" for o in warm.values())
        assert {n: o.status for n, o in warm.items()} == {
            n: o.status for n, o in cold.items()
        }

    def test_over_http_reduces_no_cone(self, tmp_path, reductions):
        from repro.net import ServiceClient, VerificationServer

        text = _text("t135")

        def cache_stats(server) -> dict:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                conn.request("GET", "/cache/stats")
                return json.loads(conn.getresponse().read())["cache"]
            finally:
                conn.close()

        with VerificationServer(VerificationService(workers=1)) as server:
            client = ServiceClient(server.address)
            passes = []
            for _ in range(3):
                del reductions[:]
                job = client.submit(
                    design_text=text, strategy="ja", cache_dir=str(tmp_path)
                )
                passes.append((job.result(timeout=60), list(reductions), cache_stats(server)))
        (_, cold_reductions, cold), *warm = passes
        assert cold["cones_built"] == len(cold_reductions) == 21
        for report, warm_reductions, stats in warm:
            assert warm_reductions == []
            assert stats["cones_built"] == 21
            assert all(o.engine == "cache" for o in report.outcomes.values())


class TestSameChecks:
    def test_a_warm_pass_issues_the_same_certification_queries(
        self, tmp_path, monkeypatch
    ):
        # Pinned from the resolver before the memo: the memo changes what
        # is derived, never what is checked.
        texts = {name: _text(name) for name in REMOTE_CACHED}
        solves = []
        solve = Solver.solve

        def counted(solver, assumptions=()):
            solves.append(1)
            return solve(solver, assumptions)

        with VerificationService() as service:
            for name in REMOTE_CACHED:
                _submit(service, texts[name], tmp_path)
            before = dict(service.stats().cache)
            monkeypatch.setattr(Solver, "solve", counted)
            warm = {name: _submit(service, texts[name], tmp_path) for name in REMOTE_CACHED}
            monkeypatch.undo()
            after = service.stats().cache
        delta = {
            key: after[key] - before[key] for key in ("hits", "misses", "certify_rejects")
        }
        assert delta == {"hits": 131, "misses": 0, "certify_rejects": 0}
        assert len(solves) == 236
        assert all(o.engine == "cache" for r in warm.values() for o in r.values())

    def test_a_record_flipped_after_a_memo_hit_is_rejected_and_reproved(self, tmp_path):
        text = _text("t135")
        with VerificationService() as service:
            cold = _submit(service, text, tmp_path)
            _submit(service, text, tmp_path)  # every cone now a memo hit
            flipped = None
            for entry in sorted((tmp_path / "entries").iterdir()):
                record = json.loads(entry.read_text())
                if record["status"] == "holds" and record["invariant"]:
                    record["invariant"][0][0] *= -1
                    entry.write_text(json.dumps(record))
                    flipped = record["prop"]
                    break
            assert flipped is not None
            built = service.stats().cache["cones_built"]
            third = _submit(service, text, tmp_path)
            stats = service.stats().cache
            fourth = _submit(service, text, tmp_path)
        assert stats["certify_rejects"] == 1
        assert stats["cones_built"] == built
        assert third[flipped].engine != "cache"
        assert third[flipped].status is cold[flipped].status
        assert [n for n, o in third.items() if o.engine != "cache"] == [flipped]
        assert all(o.engine == "cache" for o in fourth.values())


def _designs(count: int) -> list[TransitionSystem]:
    """``count`` small, pairwise different counters."""
    designs = [
        TransitionSystem(make(bits=bits, rval=rval))
        for bits in (2, 3, 4)
        for rval in range(1, 1 << bits)
        for make in (buggy_counter, fixed_counter)
    ]
    assert len(designs) >= count
    return designs[:count]


def _lookup(memo: ConeMemo, ts: TransitionSystem) -> None:
    memo.cone(ts, memo.design(ts), "P0")


class TestBoundAndKey:
    def test_the_bound_is_the_seats_design_cache(self):
        assert ConeMemo().size == DESIGN_CACHE_SIZE == 32

    @pytest.mark.parametrize("count, first_kept", [(32, True), (33, False)])
    def test_the_33rd_design_evicts_the_first(self, count, first_kept):
        memo = ConeMemo()
        designs = _designs(count)
        for ts in designs:
            _lookup(memo, ts)
        assert memo.counters == {"cones_built": count, "cone_hits": 0}
        _lookup(memo, designs[0])
        assert memo.counters["cone_hits"] == (1 if first_kept else 0)
        _lookup(memo, designs[-1])
        assert memo.counters["cone_hits"] == (2 if first_kept else 1)

    def test_same_text_and_numbering_share_an_entry(self):
        memo = ConeMemo()
        text = _text("f175")
        first, second = (TransitionSystem(parse_aag(text)) for _ in range(2))
        name = first.properties[0].name
        assert memo.cone(first, memo.design(first), name) is memo.cone(
            second, memo.design(second), name
        )
        assert memo.counters == {"cones_built": 1, "cone_hits": 1}

    def test_one_text_numbered_two_ways_does_not_share(self):
        # Built latch first, so the input's literal is not AIGER's: the
        # two systems write one text, but a cone's trace maps are keyed
        # by each system's own input literals.
        aig = AIG()
        q = aig.add_latch("q", init=0)
        i = aig.add_input("i")
        aig.set_next(q, i)
        aig.add_property("never_q", aig_not(q))
        reread = parse_aag(write_aag(aig))
        assert write_aag(reread) == write_aag(aig)
        assert reread.inputs != aig.inputs
        memo = ConeMemo()
        cones = [
            memo.cone(ts, memo.design(ts), "never_q")
            for ts in (TransitionSystem(aig), TransitionSystem(reread))
        ]
        assert memo.counters == {"cones_built": 2, "cone_hits": 0}
        assert cones[0].digest == cones[1].digest
        assert list(cones[0].reduction.input_map) == aig.inputs
        assert list(cones[1].reduction.input_map) == reread.inputs

    def test_a_property_subset_does_not_share(self):
        memo = ConeMemo()
        aig = fixed_counter(4)
        whole = TransitionSystem(aig)
        subset = TransitionSystem(aig, properties=aig.properties[:1])
        assert memo.design(whole) is not memo.design(subset)
