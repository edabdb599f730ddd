"""The service's cone memo: a warm hit proves only what is new.

The memo saves re-deriving the property's cone (the support fixpoint,
the COI reduction, the cone digest and the cone's frame templates), and
keeps the invariants proved on it, so a hit re-runs the syntactic checks
and ``F ⊆ P`` but queries consecution only for clauses no proved
invariant covers.  Counters, never clocks: ``cones_built``/``cone_hits``/
``proofs_reused`` in the service's cache stats, and counted calls of
``reduce_to_cone``, ``Solver.solve`` and the certifier's consecution.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.cache import CacheResolver, ProofStore
from repro.circuit.aig import AIG, aig_not
from repro.circuit.aiger import parse_aag, write_aag
from repro.engines.certify import Certifier, certify_invariant
from repro.engines.result import PropStatus
from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS
from repro.gen.counter import buggy_counter, fixed_counter
from repro.multiprop import cones as cones_module
from repro.multiprop.cones import DESIGN_CACHE_SIZE, ConeMemo
from repro.sat.solver import Solver
from repro.service import VerificationService
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

SPECS = {**FAILING_SPECS, **ALL_TRUE_SPECS}
#: remote-cached's slate (benchmarks/perf/workloads.py).
REMOTE_CACHED = ("f104", "f207", "f335", "t135", "t275")


@pytest.fixture
def reductions(monkeypatch) -> list:
    """One entry per ``reduce_to_cone`` call the cone memo makes."""
    calls: list = []
    reduce = cones_module.reduce_to_cone

    def counted(aig, names):
        calls.append(list(names))
        return reduce(aig, names)

    monkeypatch.setattr(cones_module, "reduce_to_cone", counted)
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
    def test_a_warm_pass_issues_one_bad_frame_query_per_holds_hit(
        self, tmp_path, monkeypatch
    ):
        # The cold write-back proved every stored invariant on its cone,
        # so a HOLDS hit re-checks F ⊆ P alone and a FAILS hit replays
        # its trace without a solver.
        texts = {name: _text(name) for name in REMOTE_CACHED}
        solves, steps = [], []
        solve, encode_step = Solver.solve, TransitionSystem.encode_step

        def counted(solver, assumptions=()):
            solves.append(1)
            return solve(solver, assumptions)

        def counted_step(ts, solver):
            steps.append(1)
            return encode_step(ts, solver)

        with VerificationService() as service:
            for name in REMOTE_CACHED:
                _submit(service, texts[name], tmp_path)
            before = dict(service.stats().cache)
            monkeypatch.setattr(Solver, "solve", counted)
            monkeypatch.setattr(TransitionSystem, "encode_step", counted_step)
            warm = {name: _submit(service, texts[name], tmp_path) for name in REMOTE_CACHED}
            monkeypatch.undo()
            after = service.stats().cache
        delta = {
            key: after[key] - before[key] for key in ("hits", "misses", "certify_rejects")
        }
        assert delta == {"hits": 131, "misses": 0, "certify_rejects": 0}
        holds = [o for r in warm.values() for o in r.values() if o.status is PropStatus.HOLDS]
        assert len(solves) == len(holds) == 118
        assert after["proofs_reused"] - before["proofs_reused"] == 118
        assert steps == []
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


def _drops(invariant: list) -> list:
    return [invariant[:i] + invariant[i + 1 :] for i in range(len(invariant))]


def _flips(invariant: list) -> list:
    return [
        [*invariant[:i], (*clause[:j], -clause[j], *clause[j + 1 :]), *invariant[i + 1 :]]
        for i, clause in enumerate(invariant)
        for j in range(len(clause))
    ]


def _holds_records(cache_dir) -> list:
    """(entry path, record) of every HOLDS record in the store."""
    records = [
        (entry, json.loads(entry.read_text()))
        for entry in sorted((cache_dir / "entries").iterdir())
    ]
    return [(entry, record) for entry, record in records if record["status"] == "holds"]


def _non_inductive_edit(text: str, cache_dir, edit) -> tuple:
    """The first HOLDS record that ``edit`` turns into an invariant that
    passes every check but consecution, as (entry path, edited record)."""
    ts = TransitionSystem(parse_aag(text))
    memo = ConeMemo()
    design = memo.design(ts)
    for entry, record in _holds_records(cache_dir):
        cone = memo.cone(ts, design, record["prop"])
        assumed = [n for n in record["assumed"] if n in cone.ts.prop_by_name]
        for invariant in edit([tuple(clause) for clause in record["invariant"]]):
            report = certify_invariant(cone.ts, record["prop"], invariant, assumed)
            if "is not inductive" in report.reason:
                return entry, {**record, "invariant": [list(c) for c in invariant]}
    raise AssertionError(f"no {edit.__name__} edit breaks only consecution")


@pytest.fixture
def consecutions(monkeypatch) -> list:
    """The verdict (``None`` = inductive) of every consecution query."""
    verdicts: list = []
    consecution = Certifier._consecution

    def counted(certifier, *args):
        verdicts.append(consecution(certifier, *args))
        return verdicts[-1]

    monkeypatch.setattr(Certifier, "_consecution", counted)
    return verdicts


class TestProofMemo:
    """A proved invariant serves only requesters it is a proof for."""

    def test_a_proof_under_assumptions_never_serves_a_global_requester(self, tmp_path):
        # buggy_counter(4)'s P1 holds locally (P0 assumed), fails globally.
        def submit(service, strategy):
            config = VerificationConfig(strategy=strategy, cache_dir=str(tmp_path))
            return service.submit(TransitionSystem(buggy_counter(4)), config).result()

        with VerificationService() as service:
            submit(service, "ja")
            local = submit(service, "ja")
            reused = service.stats().cache["proofs_reused"]
            served = submit(service, "separate")
            stats = service.stats().cache
        assert local.outcomes["P1"].engine == "cache" and reused == 1
        assert stats["certify_rejects"] == 1
        assert stats["proofs_reused"] == reused
        assert served.outcomes["P1"].engine != "cache"
        assert served.outcomes["P1"].status is PropStatus.FAILS

    @pytest.mark.parametrize("edit", [_drops, _flips], ids=["clause-dropped", "literal-flipped"])
    def test_a_record_edited_after_a_reuse_hit_is_queried_and_rejected(
        self, tmp_path, consecutions, edit
    ):
        text = _text("t275")
        with VerificationService() as service:
            cold = _submit(service, text, tmp_path)
            _submit(service, text, tmp_path)
            reused = service.stats().cache["proofs_reused"]
            entry, record = _non_inductive_edit(text, tmp_path, edit)
            entry.write_text(json.dumps(record))
            del consecutions[:]
            third = _submit(service, text, tmp_path)
            stats = service.stats().cache
        holds = [n for n, o in cold.items() if o.status is PropStatus.HOLDS]
        assert reused == len(holds)
        assert stats["certify_rejects"] == 1
        assert stats["proofs_reused"] == 2 * len(holds) - 1
        assert any(verdict and "is not inductive" in verdict for verdict in consecutions)
        edited = record["prop"]
        assert [n for n, o in third.items() if o.engine != "cache"] == [edited]
        assert third[edited].status is PropStatus.HOLDS

    def test_a_coi_ja_job_writes_back_the_proofs_it_made(self, tmp_path, monkeypatch):
        # The job's COI proofs certify on the service's cones, so the
        # write-back of each HOLDS finds its proof: no step-frame load,
        # no consecution query.
        writing = threading.local()
        reports, loads, queries = [], [], []
        cone_invariant, certify = CacheResolver._cone_invariant, Certifier.certify
        consecution, encode_step = Certifier._consecution, TransitionSystem.encode_step

        def spied_cone_invariant(resolver, *args):
            writing.on = True
            try:
                return cone_invariant(resolver, *args)
            finally:
                writing.on = False

        def spy(calls, method, returned=False):
            def spied(*args):
                result = method(*args)
                if getattr(writing, "on", False):
                    calls.append(result if returned else 1)
                return result

            return spied

        monkeypatch.setattr(CacheResolver, "_cone_invariant", spied_cone_invariant)
        monkeypatch.setattr(Certifier, "certify", spy(reports, certify, returned=True))
        monkeypatch.setattr(Certifier, "_consecution", spy(queries, consecution))
        monkeypatch.setattr(TransitionSystem, "encode_step", spy(loads, encode_step))
        config = VerificationConfig(strategy="ja", coi_reduction=True, cache_dir=str(tmp_path))
        with VerificationService() as service:
            report = service.submit(TransitionSystem(parse_aag(_text("t135"))), config).result()
            writes = service.stats().cache["writes"]
        holds = [o for o in report.outcomes.values() if o.status is PropStatus.HOLDS]
        assert len(holds) == writes == len(reports) == 21
        assert all(r.valid and r.reused for r in reports)
        assert (loads, queries) == ([], [])

    @pytest.mark.parametrize("edited", [False, True], ids=["unchanged", "non-inductive"])
    def test_two_threads_resolving_one_cone_agree(self, tmp_path, monkeypatch, edited):
        # The first certificate is held inside its consecution query
        # while the second resolves the same cone from start to end.
        text = _text("t135")
        with VerificationService() as service:
            _submit(service, text, tmp_path)
        if edited:
            entry, record = _non_inductive_edit(text, tmp_path, _flips)
            entry.write_text(json.dumps(record))
        else:
            [(_, record), *_] = _holds_records(tmp_path)
        name = record["prop"]
        held, release = threading.Event(), threading.Event()
        calls = []
        consecution = Certifier._consecution

        def held_consecution(certifier, *args):
            calls.append(threading.current_thread().name)
            if len(calls) == 1:
                held.set()
                assert release.wait(60)
            return consecution(certifier, *args)

        monkeypatch.setattr(Certifier, "_consecution", held_consecution)
        memo, store = ConeMemo(), ProofStore(tmp_path)
        verdicts = {}

        def resolve():
            resolver = CacheResolver(store, cones=memo)
            outcomes, _ = resolver.resolve(TransitionSystem(parse_aag(text)), [name])
            verdicts[threading.current_thread().name] = {
                n: o.status for n, o in outcomes.items()
            }

        first = threading.Thread(target=resolve, name="first")
        first.start()
        assert held.wait(60)
        second = threading.Thread(target=resolve, name="second")
        second.start()
        second.join(60)
        release.set()
        first.join(60)
        assert not first.is_alive() and not second.is_alive()
        assert calls == ["first", "second"]
        assert verdicts["first"] == verdicts["second"]
        assert verdicts["first"] == ({} if edited else {name: PropStatus.HOLDS})
        assert store.counters["certify_rejects"] == (2 if edited else 0)


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
        assert memo.counters == {"cones_built": count, "cone_hits": 0, "proofs_reused": 0}
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
        assert memo.counters == {"cones_built": 1, "cone_hits": 1, "proofs_reused": 0}

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
        assert memo.counters == {"cones_built": 2, "cone_hits": 0, "proofs_reused": 0}
        assert cones[0].digest == cones[1].digest
        assert list(cones[0].reduction.input_map) == aig.inputs
        assert list(cones[1].reduction.input_map) == reread.inputs

    def test_a_property_subset_does_not_share(self):
        memo = ConeMemo()
        aig = fixed_counter(4)
        whole = TransitionSystem(aig)
        subset = TransitionSystem(aig, properties=aig.properties[:1])
        assert memo.design(whole) is not memo.design(subset)
