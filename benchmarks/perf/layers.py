"""The traced run: one pass under the tracer, then probes of each layer.

Every per-layer metric is measured from outside the program, in one of
three ways (``metrics.PER_LAYER`` says which for each):

* from the **traced pass** — the workload's own pass, replayed with the
  same submission order as an untraced one; its time-stamped events
  give queue waits, property latencies, clause traffic, cache hits;
* from the **replica** — the same designs run in-process through
  ``Session`` on the ``bench-traced`` SAT backend, under the tracer.  For
  the three sequential workloads the traced pass *is* the replica; for
  the three process-based ones, whose solver time lives in worker
  processes the benchmark cannot see into, the replica runs ``ja`` on
  the workload's designs;
* from **probes** — direct calls into a layer's public functions on the
  workload's designs (encoder into a counting sink, AIGER reader and
  writer, cone reduction, simulator, the engines on a sample of
  properties, certification, codec, proof store, pool start, CLI).
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import threading
import time
from collections import defaultdict

from repro import Session, VerificationService
from repro.cache import CacheResolver, ProofStore, cone_digest
from repro.circuit import Simulator
from repro.circuit.aiger import parse_aag, write_aag
from repro.circuit.coi import reduce_to_cone
from repro.encode.unroll import Unroller
from repro.engines import (
    IC3Options,
    bmc_check,
    certify_cex,
    certify_invariant,
    ic3_check,
    kinduction_check,
    randomwalk_check,
)
from repro.multiprop import ClauseDB
from repro.net.codec import decode_event, decode_report, encode_event, encode_report
from repro.parallel import WorkerPool, pack_clauses, unpack_clauses
from repro.progress import (
    AttemptCancelled,
    AttemptStarted,
    CacheHit,
    ClauseExport,
    ClauseImport,
    FrameAdvanced,
    JobFinished,
    JobQueued,
    JobStarted,
    PortfolioDecided,
    PropertyRequeued,
    PropertySolved,
    PropertyStarted,
)
from repro.ts import TransitionSystem
from repro.ts.projection import assumption_names

from . import calibrate, host
from .expected import HOLDS, status_name
from .expected import load as load_expected
from .metrics import WORKLOAD_LAYER, percentile
from .trace import CountingSink, Tracer, register_traced_backend
from .workloads import JOB_TIMEOUT_S, JobLog, JobSpec, PassLog, Workload, session_pass

clock = time.perf_counter

#: Properties per design the engine probes run on (first, middle, last).
ENGINE_SAMPLE = 3
#: Verdicts per design the certification and proof-store probes handle.
WITNESS_SAMPLE = 12
#: Bounds of the BMC / k-induction / random-walk probes: small enough
#: that an unfalsifiable property costs milliseconds, not its full depth.
BMC_DEPTH = 16
KIND_K = 12
WALK_RESTARTS = 16
WALK_DEPTH = 64
SIM_STEPS = 200
CLI_REPETITIONS = 3
SERVICE_CALLS = 5

_IC3_COUNTS = (
    "sat_queries", "obligations", "cubes_blocked", "cubes_pushed",
    "lift_drops", "generalize_drops", "clause_insertions", "solver_allocs",
)
_SAT_COUNTS = ("solves", "clauses_added", "conflicts", "propagations", "decisions", "restarts", "learned")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _timed(call, *args, **kwargs):
    start = clock()
    result = call(*args, **kwargs)
    return clock() - start, result


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(workload: Workload, trace_out: str | None):
    """``(passes, metric values, extra record fields, misses)`` of one traced run."""
    tracer = Tracer()
    register_traced_backend(tracer)
    base = workload.run_pass(0)
    traced = workload.run_pass(0, tracer)
    if workload.in_process:
        replica = traced
    else:
        record_event_spans(tracer, traced, workload.name)
        replica = session_pass(workload.replica_slate(), workload.designs, 0, tracer, workload.name + "/replica")
    workdir = os.path.join(host.WORK_DIR, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # The host's speed drifts between the two passes: compare them at the same speed.
        values = {"trace.overhead_frac": (traced.verdict_s * calibrate.scale(traced.kernel_s))
                  / (base.verdict_s * calibrate.scale(base.kernel_s)) - 1.0}
        values.update(replica_metrics(tracer, replica))
        values.update(event_metrics(workload, traced))
        values.update(encode_probe(workload))
        values.update(circuit_probe(workload))
        values.update(engine_probe(workload))
        values.update(witness_probes(workload, replica, workdir))
        values.update(codec_probe(traced))
        values.update(parallel_probe(workload, replica))
        values.update(service_probe(workload))
        values.update(cli_probe(workload, workdir))
        extras, misses = EXTRAS.get(workload.name, lambda *a: ({}, []))(workload, base, traced, replica, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = trace_out or os.path.join(host.WORK_DIR, f"trace-{workload.name}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tracer.dump(path)
    units = {m.name: m.unit for m in WORKLOAD_LAYER.get(workload.name, ())}
    extra = {
        "workload_layer": {name: {"value": value, "unit": units[name]} for name, value in extras.items()},
        "layer_self_s": tracer.layer_self_times(),
        "traced_verdict_s": traced.verdict_s,
        "untraced_verdict_s": base.verdict_s,
        "trace_file": os.path.relpath(path),
    }
    # Both passes are checked, and the replica's verdicts too.
    passes = [base, traced] if replica is traced else [base, traced, replica]
    return passes, values, extra, misses


def _lifecycle(job: JobLog) -> dict:
    """When the client first saw ``JobQueued``, ``JobStarted`` and ``JobFinished``."""
    marks: dict = {}
    for at, event in job.events:
        if type(event) in (JobQueued, JobStarted, JobFinished):
            marks.setdefault(type(event), at)
    return marks


def record_event_spans(tracer: Tracer, log: PassLog, prefix: str) -> None:
    """Spans of a process-based pass, rebuilt from the client's event
    timestamps: the job, its wait in the admission queue, its run, and
    each portfolio attempt.  (Worker events reach the client in bursts,
    so single properties are not spans here; their engine time is in
    ``PropertySolved.time_seconds``.)"""
    for job in log.jobs:
        trace_id = f"{prefix}/{log.index}/{job.spec.design}"
        root = tracer.record("job", "service", job.submit, job.end, None, trace_id)
        marks = _lifecycle(job)
        attempts: dict = {}
        for at, event in job.events:
            kind = type(event)
            if kind is AttemptStarted:
                attempts[(event.name, event.engine)] = at
            elif kind is AttemptCancelled or kind is PortfolioDecided:
                engine = event.engine if kind is AttemptCancelled else event.winner
                began = attempts.pop((event.name, engine), None)
                if began is not None:
                    tracer.record(f"attempt:{engine}", "parallel", began, at, root, f"{trace_id}/{event.name}")
            elif kind is CacheHit:
                tracer.record("cache-hit", "cache", at, at, root, f"{trace_id}/{event.name}")
        if JobQueued in marks and JobStarted in marks:
            tracer.record("queued", "service", marks[JobQueued], marks[JobStarted], root, trace_id)
        if JobStarted in marks and JobFinished in marks:
            tracer.record("run", "parallel", marks[JobStarted], marks[JobFinished], root, trace_id)


# ----------------------------------------------------------------------
# From the replica's spans
# ----------------------------------------------------------------------
def replica_metrics(tracer: Tracer, replica: PassLog) -> dict:
    acc = tracer.accumulated()
    self_s = tracer.layer_self_times()
    add_s, solve_s = acc["sat.add_clause_s"], acc["sat.solve_s"]
    values = {"sat.add_clause_s": add_s, "sat.solve_s": solve_s}
    for key in _SAT_COUNTS:
        values[f"sat.{key}"] = acc[f"sat.{key}"]
    values["sat.propagations_per_s"] = _rate(acc["sat.propagations"], solve_s)
    values["sat.conflicts_per_solve"] = _rate(acc["sat.conflicts"], acc["sat.solves"])
    values["encode.self_s"] = self_s.get("encode", 0.0)
    values["engines.ic3_s"] = tracer.layer_duration("engines")
    values["engines.ic3_self_s"] = self_s.get("engines", 0.0)
    values["multiprop.driver_s"] = tracer.layer_duration("multiprop")
    values["multiprop.self_s"] = self_s.get("multiprop", 0.0)
    run_s = tracer.layer_duration("session")
    values["session.run_s"] = run_s
    values["session.overhead_s"] = run_s - values["multiprop.driver_s"]
    values["session.overhead_frac"] = _rate(values["session.overhead_s"], run_s)
    stats = [job.report.stats for job in replica.jobs if job.report is not None]
    values["multiprop.clause_db_size"] = sum(s.get("clause_db_size", 0) for s in stats)
    values["multiprop.spurious_reruns"] = sum(s.get("spurious_reruns", 0) for s in stats)
    return values


# ----------------------------------------------------------------------
# From the traced pass's events
# ----------------------------------------------------------------------
def event_metrics(workload: Workload, traced: PassLog) -> dict:
    counts: dict = defaultdict(int)
    waits, runs, latencies = [], [], []
    engine_s = 0.0
    for job in traced.jobs:
        marks = _lifecycle(job)
        started: dict = {}
        for at, event in job.events:
            kind = type(event)
            counts["events"] += 1
            if kind is PropertyStarted:
                started[event.name] = at
            elif kind is PropertySolved:
                engine_s += event.time_seconds
                began = started.pop(event.name, None)
                if workload.in_process and began is not None:
                    latencies.append(at - began)
                elif not workload.in_process:
                    latencies.append(event.time_seconds)
            elif kind is FrameAdvanced:
                counts["frames"] += 1
            elif kind is ClauseImport:
                counts["imported"] += event.count
            elif kind is ClauseExport:
                counts["exported"] += event.count
            elif kind is CacheHit:
                counts["hits"] += 1
            elif kind is AttemptStarted:
                counts["attempts"] += 1
            elif kind is AttemptCancelled:
                counts["cancelled"] += 1
        if JobQueued in marks and JobStarted in marks:
            waits.append(marks[JobStarted] - marks[JobQueued])
        if JobStarted in marks and JobFinished in marks:
            runs.append(marks[JobFinished] - marks[JobStarted])
    return {
        "engines.frames": counts["frames"],
        "multiprop.prop_latency_p50_s": percentile(latencies, 0.5) if latencies else 0.0,
        "multiprop.prop_latency_p95_s": percentile(latencies, 0.95) if latencies else 0.0,
        "multiprop.clauses_imported": counts["imported"],
        "multiprop.clauses_exported": counts["exported"],
        "session.events": counts["events"],
        "parallel.seat_busy_frac": _rate(engine_s, traced.verdict_s * workload.seats),
        "parallel.attempts": counts["attempts"],
        "parallel.attempts_cancelled": counts["cancelled"],
        "service.queue_wait_p50_s": _median(waits),
        "service.run_p50_s": _median(runs),
        "cache.hits": counts["hits"],
    }


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def encode_probe(workload: Workload) -> dict:
    """The encoder's own cost: Tseitin into a sink that only counts."""
    step_s = unroll_s = 0.0
    clauses = variables = 0
    for ts in workload.designs.values():
        sink = CountingSink()
        start = clock()
        ts.encode_step(sink)
        ts.encode_bad_frame(sink)
        step_s += clock() - start
        clauses += sink.clauses
        variables += sink.num_vars
        sink = CountingSink()
        start = clock()
        unroller = Unroller(ts.aig, sink)
        for frame in range(20):
            for prop in ts.properties:
                unroller.lit(prop.lit, frame)
        unroll_s += clock() - start
    return {
        "encode.step_s": step_s,
        "encode.unroll20_s": unroll_s,
        "encode.clauses": clauses,
        "encode.vars": variables,
        "encode.clauses_per_s": _rate(clauses, step_s),
    }


def circuit_probe(workload: Workload) -> dict:
    write_s = parse_s = build_s = coi_s = sim_s = 0.0
    steps = 0
    rng = random.Random(workload.seed)
    for aig in workload.aigs.values():
        elapsed, text = _timed(write_aag, aig)
        write_s += elapsed
        parse_s += _timed(parse_aag, text)[0]
        build_s += _timed(TransitionSystem, aig)[0]
        for prop in aig.properties:
            coi_s += _timed(reduce_to_cone, aig, [prop.name])[0]
        sim = Simulator(aig)
        frames = [{inp: rng.random() < 0.5 for inp in aig.inputs} for _ in range(SIM_STEPS)]
        start = clock()
        for frame in frames:
            sim.step(frame)
        sim_s += clock() - start
        steps += SIM_STEPS
    return {
        "circuit.parse_s": parse_s,
        "circuit.write_s": write_s,
        "circuit.coi_s": coi_s,
        "circuit.sim_steps_per_s": _rate(steps, sim_s),
        "ts.build_s": build_s,
    }


def _sample(names: list, size: int) -> list:
    """First, middle, last, ... of ``names``: spread over the design's slices."""
    if len(names) <= size:
        return list(names)
    return [names[round(i * (len(names) - 1) / (size - 1))] for i in range(size)]


def engine_probe(workload: Workload) -> dict:
    """Each engine called directly, with JA's assumption sets, on a
    sample of every design's properties."""
    counts = dict.fromkeys(_IC3_COUNTS, 0)
    bmc_s = kind_s = walk_s = 0.0
    for design, ts in workload.designs.items():
        for name in _sample([p.name for p in ts.properties], ENGINE_SAMPLE):
            assumed = assumption_names(ts, name)
            result = ic3_check(ts, name, IC3Options(assumed=assumed))
            for key in _IC3_COUNTS:
                counts[key] += result.stats.get(key, 0)
            bmc_s += _timed(bmc_check, ts, name, max_depth=BMC_DEPTH, assumed=assumed)[0]
            kind_s += _timed(kinduction_check, ts, name, max_k=KIND_K, assumed=assumed)[0]
            walk_s += _timed(randomwalk_check, ts, name, restarts=WALK_RESTARTS, max_depth=WALK_DEPTH,
                             seed=workload.seed, assumed=assumed)[0]
    values = {f"engines.{key}": counts[key] for key in _IC3_COUNTS}
    values.update({"engines.bmc_s": bmc_s, "engines.kind_s": kind_s, "engines.rw_s": walk_s})
    return values


def _witnesses(replica: PassLog):
    """``(job, sampled outcomes that carry a witness)`` per replica job."""
    for job in replica.jobs:
        if job.report is None:
            continue
        carrying = [o for o in job.report.outcomes.values() if o.invariant is not None or o.cex is not None]
        yield job, _sample(carrying, WITNESS_SAMPLE)


def witness_probes(workload: Workload, replica: PassLog, workdir: str) -> dict:
    """Certification, cone digests and the proof store, over a sample of
    the verdicts the replica just produced."""
    certify_s = digest_s = record_s = resolve_s = 0.0
    gets, puts = [], []
    hits = lookups = reproved = 0
    store = ProofStore(os.path.join(workdir, "store"))
    resolver = CacheResolver(store)
    for job, outcomes in _witnesses(replica):
        ts = workload.designs[job.spec.design]
        for outcome in outcomes:
            start = clock()
            if status_name(outcome.status) == HOLDS:
                certify_invariant(ts, outcome.name, outcome.invariant, assumed=outcome.assumed)
            else:
                certify_cex(ts, outcome.name, outcome.cex, assumed=outcome.assumed)
            certify_s += clock() - start
            digest_s += _timed(cone_digest, ts, outcome.name)[0]
        by_name = {o.name: o for o in outcomes}
        record_s += _timed(resolver.record_outcomes, ts, by_name, job.spec.design)[0]
        elapsed, (served, remaining) = _timed(resolver.resolve, ts, list(by_name))
        resolve_s += elapsed
        hits += len(served)
        reproved += len(remaining)
        lookups += len(by_name)
    for path in sorted(store.entries_dir.glob("*.json")) if store.entries_dir.is_dir() else ():
        elapsed, found = _timed(store.get, path.stem)
        gets.append(elapsed)
        if found is not None:
            puts.append(_timed(store.put, found)[0])
    sizes = store.stats()
    return {
        "engines.certify_s": certify_s,
        "cache.cone_digest_s": digest_s,
        "cache.record_s": record_s,
        "cache.resolve_s": resolve_s,
        "cache.store_get_p50_s": _median(gets),
        "cache.store_put_p50_s": _median(puts),
        "cache.hit_frac": _rate(hits, lookups),
        "cache.reproved": reproved,
        "cache.bytes": sizes["entry_bytes"] + sizes["warm_bytes"],
    }


def codec_probe(traced: PassLog) -> dict:
    events = [event for job in traced.jobs for _, event in job.events]
    reports = [job.report for job in traced.jobs if job.report is not None]
    encode_s, payloads = _timed(lambda: [encode_event(event) for event in events])
    decode_s = _timed(lambda: [decode_event(payload) for payload in payloads])[0]
    report_s = _timed(lambda: [decode_report(encode_report(report)) for report in reports])[0]
    return {
        "net.encode_events_per_s": _rate(len(events), encode_s),
        "net.decode_events_per_s": _rate(len(events), decode_s),
        "net.report_codec_s": report_s,
    }


def _invariant_clauses(replica: PassLog) -> list:
    return [
        tuple(clause)
        for job in replica.jobs if job.report is not None
        for outcome in job.report.outcomes.values() if outcome.invariant
        for clause in outcome.invariant
    ]


def parallel_probe(workload: Workload, replica: PassLog) -> dict:
    seats = host.seat_cap()
    start = clock()
    pool = WorkerPool(workers=seats)
    try:
        Session(workload.designs["f175"], strategy="parallel-ja", pool=pool, workers=seats).run()
        pool_start_s = clock() - start
    finally:
        pool.shutdown()
    clauses = _invariant_clauses(replica)
    pack_s = _timed(lambda: unpack_clauses(pack_clauses(clauses)))[0]
    adds_s = 0.0
    for job in replica.jobs:
        if job.report is None:
            continue
        db = ClauseDB(workload.designs[job.spec.design])
        for outcome in job.report.outcomes.values():
            if outcome.invariant:
                adds_s += _timed(db.add_all, outcome.invariant)[0]
    return {
        "parallel.pool_start_s": pool_start_s,
        "parallel.pack_clauses_per_s": _rate(len(clauses), pack_s),
        "multiprop.clausedb_adds_per_s": _rate(len(clauses), adds_s),
    }


def service_probe(workload: Workload) -> dict:
    """``submit`` and ``stats`` on a service of the probe's own, so the
    two calls are measured the same way on every workload."""
    submits, stats_calls = [], []
    service = VerificationService()
    try:
        for _ in range(SERVICE_CALLS):
            elapsed, handle = _timed(service.submit, workload.designs["f175"], strategy="ja", design_name="f175")
            submits.append(elapsed)
            handle.result(timeout=JOB_TIMEOUT_S)
            stats_calls.append(_timed(service.stats)[0])
    finally:
        service.close()
    return {"service.submit_s": _median(submits), "service.stats_call_s": _median(stats_calls)}


def cli_probe(workload: Workload, workdir: str) -> dict:
    smallest = min(workload.aigs, key=lambda name: len(workload.aigs[name].properties))
    path = os.path.join(workdir, f"{smallest}.aag")
    with open(path, "w") as f:
        f.write(write_aag(workload.aigs[smallest]))
    env = host.child_env()

    def spawn(*args) -> float:
        start = clock()
        done = subprocess.run(host.python_cmd(*args), env=env, capture_output=True, timeout=120)
        if done.returncode not in (0, 1):  # check exits 1 when a property fails
            raise RuntimeError(f"{args} exited {done.returncode}: {done.stderr[-300:]!r}")
        return clock() - start

    return {
        "cli.import_s": _median(spawn("-c", "import repro") for _ in range(CLI_REPETITIONS)),
        "cli.check_cold_s": _median(
            spawn("-m", "repro", "check", path, "--strategy", "ja") for _ in range(CLI_REPETITIONS)
        ),
    }


# ----------------------------------------------------------------------
# Metrics one workload alone has
# ----------------------------------------------------------------------
def _jobs(*passes: PassLog) -> list[JobLog]:
    return [job for log in passes for job in log.jobs]


def noreuse_extras(workload, base, traced, replica, tracer):
    """Table VII's claim as a check: on the designs whose properties
    share a hidden invariant (the all-true ones), re-using clauses
    inserts fewer of them."""
    expected = load_expected()
    sharing = [job.spec.design for job in traced.jobs if not expected[job.spec.design]["debugging_set"]]
    without = sum(tracer.accumulated(design)["sat.clauses_added"] for design in sharing)
    other = Tracer()
    register_traced_backend(other)
    slate = tuple(JobSpec.of(design, strategy="ja", clause_reuse=True) for design in sharing)
    session_pass(slate, workload.designs, 0, other, workload.name + "/reuse")
    register_traced_backend(tracer)
    with_reuse = other.accumulated()["sat.clauses_added"]
    misses = []
    # The quick slate has no shared invariant for reuse to save on.
    if not workload.quick and not with_reuse < without:
        misses.append(f"{workload.name}: {with_reuse:.0f} clause insertions with reuse, {without:.0f} without")
    return {"engines.clause_insertions_reuse": with_reuse, "engines.clause_insertions_noreuse": without}, misses


def _pool_run(workload: Workload, seats: int) -> float:
    """``parallel-ja`` over the workload's designs on one persistent pool."""
    pool = WorkerPool(workers=seats)
    try:
        Session(workload.designs["f175"], strategy="parallel-ja", pool=pool, workers=seats).run()
        start = clock()
        for design in dict.fromkeys(spec.design for spec in workload.jobs_spec):
            Session(workload.designs[design], strategy="parallel-ja", pool=pool, workers=seats).run()
        return clock() - start
    finally:
        pool.shutdown()


def pooled_extras(workload, base, traced, replica, tracer):
    busy = pending = 0
    done = threading.Event()

    def sample() -> None:
        nonlocal busy, pending
        while not done.wait(0.02):
            stats = workload.service.stats()
            pending = max(pending, stats.pending)
            if stats.pool is not None:
                busy = max(busy, stats.pool.busy)

    sampler = threading.Thread(target=sample, name="bench-stats-sampler")
    sampler.start()
    try:
        sampled = workload.run_pass(1)
    finally:
        done.set()
        sampler.join()
    jobs = _jobs(base, traced, sampled)
    gaps = []
    requeues = 0
    for job in jobs:
        solved_at = None
        for at, event in job.events:
            kind = type(event)
            if kind is PropertySolved:
                solved_at = at
            elif kind is PropertyStarted and solved_at is not None:
                gaps.append(at - solved_at)
                solved_at = None
            elif kind is PropertyRequeued:
                requeues += 1
    stats = workload.service.stats()
    exchange = stats.exchange or {}
    run_1w = _pool_run(workload, 1)
    run_2w = _pool_run(workload, host.seat_cap())
    ja_wall = replica.verdict_s
    values = {
        "service.job_latency_p90_s": percentile([job.latency for job in jobs], 0.9),
        "service.peak_busy": busy,
        "service.peak_pending": pending,
        "parallel.run_1w_s": run_1w,
        "parallel.run_2w_s": run_2w,
        "parallel.overhead_1w_frac": run_1w / ja_wall - 1.0,
        "parallel.speedup_2w": run_1w / run_2w,
        "parallel.dispatch_gap_p50_s": _median(gaps),
        "parallel.exchange_clauses": sum(
            job.report.stats.get("exchange_clauses", 0) for job in jobs if job.report is not None
        ),
        "parallel.exchange_publishes": exchange.get("publishes", 0),
        "parallel.exchange_fetches": exchange.get("fetches", 0),
        "parallel.design_pickles": stats.pool.counters.get("design_pickles", 0) if stats.pool else 0,
        "parallel.requeues": requeues,
        "parallel.seat_crashes": sum(seat.crashes for seat in stats.pool.seats) if stats.pool else 0,
    }
    return values, []


def portfolio_extras(workload, base, traced, replica, tracer):
    jobs = _jobs(base, traced)
    events = [event for job in jobs for _, event in job.events]
    attempts = sum(1 for e in events if type(e) is AttemptStarted)
    decided = [e for e in events if type(e) is PortfolioDecided]
    cancels = [e.latency_s for e in events if type(e) is AttemptCancelled and e.latency_s is not None]
    values = {
        "parallel.useful_attempt_frac": _rate(len(decided), attempts),
        "parallel.cancel_latency_p50_s": _median(cancels),
        "parallel.race_wall_p50_s": _median(e.wall_s for e in decided),
        "parallel.portfolio_tax": traced.verdict_s / replica.verdict_s,
    }
    return values, []


def remote_extras(workload, base, traced, replica, tracer):
    jobs = _jobs(base, traced)
    warm_jobs = [job for job in jobs if job.batch == "warm"]
    warm_props = warm_hits = warm_proved = 0
    for job in warm_jobs:
        for _, event in job.events:
            if type(event) is CacheHit:
                warm_hits += 1
            elif type(event) is PropertySolved:
                warm_proved += 1
        warm_props += len(job.report.outcomes) if job.report is not None else 0
    misses = []
    if warm_proved or warm_hits != warm_props:
        misses.append(f"{workload.name}: warm batches proved {warm_proved} properties again "
                      f"({warm_hits} cache hits for {warm_props} properties)")
    streamed = sum(len(job.events) for job in jobs)
    streaming_s = sum(job.end - job.submitted for job in jobs)
    requests = [_timed(workload.client.stats)[0] for _ in range(10)]
    cache = workload.client._expect("GET", "/cache/stats").get("cache") or {}
    # The same cold batch on an in-process service with as many seats.
    service = VerificationService(workers=workload.seats)
    try:
        start = clock()
        for job in traced.jobs:
            if job.batch == "cold":
                service.submit(workload.designs[job.spec.design], **job.spec.options(),
                               design_name=job.spec.design).result(timeout=JOB_TIMEOUT_S)
        local_s = clock() - start
    finally:
        service.close()
    cold = [wall for log in (base, traced) for kind, wall in log.batches if kind == "cold"]
    warm = [wall for log in (base, traced) for kind, wall in log.batches if kind == "warm"]
    values = {
        "cache.warm_verdict_s": _median(warm),
        "cache.cold_verdict_s": _median(cold),
        "cache.misses": cache.get("misses", 0),
        "cache.warm_reproved": warm_proved,
        "cache.warm_hit_frac": _rate(warm_hits, warm_props),
        "net.request_p50_s": _median(requests),
        "net.submit_rtt_p50_s": _median(job.submitted - job.submit for job in jobs),
        "net.sse_events_per_s": _rate(streamed, streaming_s),
        "net.events_streamed": sum(len(job.events) for job in traced.jobs),
        "net.remote_overhead_s": [wall for kind, wall in traced.batches if kind == "cold"][0] - local_s,
    }
    return values, misses


EXTRAS = {
    "ja-noreuse": noreuse_extras,
    "pooled-service": pooled_extras,
    "portfolio-race": portfolio_extras,
    "remote-cached": remote_extras,
}
