"""The benchmark's registry: workloads, metrics, bounds and the layer map.

``BENCHMARK.json`` at the repository root declares the same workloads
and metrics (``tests/test_smoke.py`` keeps the two in step).  The
driver-facing schema has room for a name, a unit and a direction only,
so what each per-layer metric is expected to move lives here and is
rendered into ``README.md``'s layer map.

Three kinds of metric:

* ``END_TO_END`` — what a user of ``repro check`` or of the service
  sees; measured with tracing off on every workload, each with the
  bound by which it may worsen before a change counts as a regression.
  Times are in seconds at the reference host's undisturbed speed
  (:mod:`benchmarks.perf.calibrate`).
* ``PER_LAYER`` — one layer's work or time (layer = module name under
  ``src/repro/``); reported by the traced run of *every* workload, so
  each is measured the same way everywhere: from the traced pass's
  events, from an in-process replica of the workload's designs on the
  ``bench-traced`` SAT backend, or from direct calls into the layer's
  public functions on the workload's designs.
* ``WORKLOAD_LAYER`` — per-layer metrics that exist on one workload
  only (seat scheduler, portfolio races, HTTP, warm cache); written to
  the ``--out`` record and printed, never sent to the driver, which
  wants every declared metric from every workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

RUN_SECONDS = 12


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: end-to-end only: share of the parent's median it may worsen by.
    bound: float | None = None
    #: what it measures, one line.
    what: str = ""
    #: (end-to-end metric, workload) it should move; per-layer only.
    moves: str = ""
    #: workload on which a change to this layer should show nothing.
    still: str = ""
    #: exact count: must repeat bit-for-bit on the sequential workloads.
    exact: bool = False


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    why: str


WORKLOADS = (
    WorkloadInfo(
        "ja-local",
        "ja with clause reuse on 13 of the 16 families: hundreds of tiny local proofs, "
        "so encode and sat.add_clause set-up dominate and search barely registers",
    ),
    WorkloadInfo(
        "global-deep",
        "joint and separate on f260: few long global IC3 runs to a 90-frame "
        "counterexample, so sat search and lifting dominate and encode does little",
    ),
    WorkloadInfo(
        "ja-noreuse",
        "ja with clause_reuse=False on t275 and f335: every property re-derives the "
        "shared invariant, so IC3 blocking, generalisation and lifting dominate",
    ),
    WorkloadInfo(
        "pooled-service",
        "2 client threads drain a seeded permutation of 10 designs as parallel-ja "
        "jobs on one 2-seat service: scheduler, IPC, exchange and admission dominate",
    ),
    WorkloadInfo(
        "portfolio-race",
        "portfolio (rw,bmc,kind,ic3) on f175 through one 2-seat service: one pooled "
        "job per (property, engine) plus cancellations, the orchestration tax",
    ),
    WorkloadInfo(
        "remote-cached",
        "serve --listen subprocess, 5 inline designs over HTTP/SSE: one cold batch "
        "then 3 warm resubmits per pass, so net and cache do the warm work",
    ),
)

SEQUENTIAL = ("ja-local", "global-deep", "ja-noreuse")

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "import repro in a fresh interpreter, build the designs, start the "
           "pool/server, run the warm-up; median of three set-ups"),
    Metric("verdict_s", "s", "lower", 0.25,
           "wall from the first submit of a pass to its last verdict"),
    Metric("debug_set_s", "s", "lower", 0.25,
           "per pass, sum over jobs of wall from submit to the job's last FAILS "
           "verdict: when the client knows what to fix first"),
    Metric("job_latency_p50_s", "s", "lower", 0.25,
           "submit to result of one job (one design), median over a pass's jobs"),
    Metric("cpu_s", "s", "lower", 0.25,
           "CPU seconds (user+sys) of the process tree per pass, from /proc"),
    Metric("peak_rss_mb", "MB", "lower", 0.20,
           "sum over the live process tree of each process's peak resident size, "
           "after the run's first three passes"),
)


def _m(name, unit, better, what, moves="", still="", exact=False):
    return Metric(name, unit, better, None, what, moves, still, exact)


_JA = "verdict_s on ja-local"
_GD = "verdict_s on global-deep"
_NR = "verdict_s on ja-noreuse"
_PS = "verdict_s, cpu_s, job_latency_p50_s on pooled-service"
_PR = "verdict_s, cpu_s on portfolio-race"
_RC = "verdict_s, job_latency_p50_s on remote-cached"
_SETUP = "setup_s everywhere"

PER_LAYER = (
    # -- sat: bench-traced backend on the in-process replica ------------
    _m("sat.add_clause_s", "s", "lower", "time inside Solver.add_clause", _JA, "remote-cached warm batches"),
    _m("sat.solve_s", "s", "lower", "time inside Solver.solve", _GD, "remote-cached warm batches"),
    _m("sat.solves", "count", "lower", "solve calls", _GD, "pooled-service", True),
    _m("sat.clauses_added", "count", "lower", "add_clause calls", _JA, "global-deep", True),
    _m("sat.conflicts", "count", "lower", "conflicts", _GD, "ja-local", True),
    _m("sat.propagations", "count", "lower", "propagated literals", _GD, "ja-local", True),
    _m("sat.decisions", "count", "lower", "decisions", _GD, "ja-local", True),
    _m("sat.restarts", "count", "lower", "restarts", _GD, "ja-local", True),
    _m("sat.learned", "count", "lower", "learned clauses", _GD, "ja-local", True),
    _m("sat.propagations_per_s", "1/s", "higher", "propagations / solve_s", _GD, "ja-local"),
    _m("sat.conflicts_per_solve", "ratio", "lower", "conflicts / solves", _GD, "ja-local"),
    # -- encode: counting ClauseSink probe + in-pass encode spans --------
    _m("encode.step_s", "s", "lower", "encode_step + encode_bad_frame of every design into a counting sink", _JA, "global-deep"),
    _m("encode.unroll20_s", "s", "lower", "Unroller to 20 frames of every design into a counting sink", _PR, "global-deep"),
    _m("encode.clauses", "count", "lower", "clauses the step encodings emit", _JA, "global-deep", True),
    _m("encode.vars", "count", "lower", "variables the step encodings allocate", _JA, "global-deep", True),
    _m("encode.clauses_per_s", "1/s", "higher", "encode.clauses / encode.step_s", _JA, "global-deep"),
    _m("encode.self_s", "s", "lower", "encode_* spans inside the replica, minus add_clause time", _JA, "global-deep"),
    # -- circuit, ts ------------------------------------------------------
    _m("circuit.parse_s", "s", "lower", "parse_aag of every design", _SETUP, "global-deep"),
    _m("circuit.write_s", "s", "lower", "write_aag of every design", _RC, "global-deep"),
    _m("circuit.coi_s", "s", "lower", "reduce_to_cone once per property", _RC, "global-deep"),
    _m("circuit.sim_steps_per_s", "1/s", "higher", "Simulator.step rate under random inputs", _PR, "global-deep"),
    _m("ts.build_s", "s", "lower", "TransitionSystem(aig) of every design", _SETUP, "global-deep"),
    # -- engines ----------------------------------------------------------
    _m("engines.ic3_s", "s", "lower", "property spans (PropertyStarted to verdict) of the replica", _NR, "remote-cached warm batches"),
    _m("engines.ic3_self_s", "s", "lower", "ic3_s minus encode spans and sat time inside", _NR, "remote-cached warm batches"),
    _m("engines.frames", "count", "lower", "FrameAdvanced events of the traced pass", _NR, "pooled-service", True),
    _m("engines.sat_queries", "count", "lower", "IC3 stats over direct ic3_check calls, with JA's assumptions, on 3 properties per design", _NR, "pooled-service", True),
    _m("engines.obligations", "count", "lower", "same sample", _NR, "pooled-service", True),
    _m("engines.cubes_blocked", "count", "lower", "same sample", _NR, "pooled-service", True),
    _m("engines.cubes_pushed", "count", "lower", "same sample", _NR, "pooled-service", True),
    _m("engines.lift_drops", "count", "higher", "same sample", _GD, "pooled-service", True),
    _m("engines.generalize_drops", "count", "higher", "same sample", _NR, "pooled-service", True),
    _m("engines.clause_insertions", "count", "lower", "same sample", _NR, "pooled-service", True),
    _m("engines.solver_allocs", "count", "lower", "same sample", _NR, "pooled-service", True),
    _m("engines.bmc_s", "s", "lower", "bmc_check to depth 16 on the sampled properties", _PR, "ja-local"),
    _m("engines.kind_s", "s", "lower", "kinduction_check to k=12 on the sampled properties", _PR, "ja-local"),
    _m("engines.rw_s", "s", "lower", "randomwalk_check (16 restarts, depth 64) on the sampled properties", _PR, "ja-local"),
    _m("engines.certify_s", "s", "lower", "certify_invariant / certify_cex of up to 12 of the replica's verdicts per design", _RC, "global-deep"),
    # -- multiprop --------------------------------------------------------
    _m("multiprop.driver_s", "s", "lower", "JobStarted to JobFinished spans of the replica", _JA, "portfolio-race"),
    _m("multiprop.self_s", "s", "lower", "driver_s minus its property spans", "verdict_s, debug_set_s on ja-local", "portfolio-race"),
    _m("multiprop.prop_latency_p50_s", "s", "lower", "PropertyStarted to PropertySolved in the traced pass (process-based passes, whose events arrive in bursts: the verdict's time_seconds)", "debug_set_s on ja-local", "remote-cached warm batches"),
    _m("multiprop.prop_latency_p95_s", "s", "lower", "same, 95th percentile", "debug_set_s on ja-local", "remote-cached warm batches"),
    _m("multiprop.clause_db_size", "count", "lower", "report.stats clause_db_size summed over the replica", _JA, "ja-noreuse", True),
    _m("multiprop.clauses_imported", "count", "higher", "ClauseImport counts of the traced pass", _JA, "ja-noreuse", True),
    _m("multiprop.clauses_exported", "count", "higher", "ClauseExport counts of the traced pass", _JA, "ja-noreuse", True),
    _m("multiprop.spurious_reruns", "count", "lower", "report.stats spurious_reruns over the replica", _JA, "ja-noreuse", True),
    _m("multiprop.clausedb_adds_per_s", "1/s", "higher", "ClauseDB.add_all of the replica's invariants into a fresh clauseDB", _JA, "ja-noreuse"),
    # -- session ----------------------------------------------------------
    _m("session.run_s", "s", "lower", "Session.run spans of the replica", _JA, "remote-cached"),
    _m("session.overhead_s", "s", "lower", "run_s minus multiprop.driver_s", "job_latency_p50_s on ja-local", "remote-cached"),
    _m("session.overhead_frac", "ratio", "lower", "overhead_s / run_s", "job_latency_p50_s on ja-local", "remote-cached"),
    _m("session.events", "count", "lower", "events delivered to on_event in the traced pass", _JA, "global-deep", True),
    # -- parallel ---------------------------------------------------------
    _m("parallel.pool_start_s", "s", "lower", "start a 2-seat WorkerPool and run one tiny job on it", _SETUP, "ja-local"),
    _m("parallel.pack_clauses_per_s", "1/s", "higher", "pack_clauses + unpack_clauses of the replica's invariants", _PS, "ja-local"),
    _m("parallel.seat_busy_frac", "ratio", "higher", "sum of PropertySolved.time_seconds / (pass wall x seats) in the traced pass", _PS, "global-deep"),
    _m("parallel.attempts", "count", "lower", "AttemptStarted events of the traced pass", _PR, "pooled-service"),
    _m("parallel.attempts_cancelled", "count", "lower", "AttemptCancelled events of the traced pass", _PR, "pooled-service"),
    # -- service ----------------------------------------------------------
    _m("service.submit_s", "s", "lower", "VerificationService.submit call on a service of the probe's own, median of 5", "job_latency_p50_s on pooled-service", "global-deep"),
    _m("service.stats_call_s", "s", "lower", "VerificationService.stats call on the same, median of 5", "job_latency_p50_s on pooled-service", "global-deep"),
    _m("service.queue_wait_p50_s", "s", "lower", "JobQueued to JobStarted in the traced pass", "job_latency_p50_s on pooled-service", "global-deep"),
    _m("service.run_p50_s", "s", "lower", "JobStarted to JobFinished in the traced pass", "job_latency_p50_s on pooled-service", "global-deep"),
    # -- net --------------------------------------------------------------
    _m("net.encode_events_per_s", "1/s", "higher", "encode_event over the traced pass's events", _RC, "ja-local"),
    _m("net.decode_events_per_s", "1/s", "higher", "decode_event over the same", _RC, "ja-local"),
    _m("net.report_codec_s", "s", "lower", "encode_report + decode_report of the pass's reports", _RC, "ja-local"),
    # -- cache ------------------------------------------------------------
    _m("cache.cone_digest_s", "s", "lower", "cone_digest of the same sampled properties", _RC, "ja-local"),
    _m("cache.record_s", "s", "lower", "CacheResolver.record_outcomes of the same sampled verdicts into a fresh store", "verdict_s on remote-cached", "ja-local"),
    _m("cache.resolve_s", "s", "lower", "CacheResolver.resolve of the same against the filled store", _RC, "ja-local"),
    _m("cache.store_get_p50_s", "s", "lower", "ProofStore.get, median", _RC, "ja-local"),
    _m("cache.store_put_p50_s", "s", "lower", "ProofStore.put, median", "verdict_s on remote-cached", "ja-local"),
    _m("cache.hit_frac", "ratio", "higher", "hits / lookups of that resolve (1 when every record re-certifies)", _RC, "ja-local"),
    _m("cache.reproved", "count", "lower", "properties that resolve sent back for a proof (0 expected)", _RC, "ja-local"),
    _m("cache.bytes", "count", "lower", "entry + warm-log bytes of the filled store", _RC, "ja-local"),
    _m("cache.hits", "count", "higher", "CacheHit events of the traced pass", _RC, "ja-local"),
    # -- cli --------------------------------------------------------------
    _m("cli.import_s", "s", "lower", "python -c 'import repro', median of 3", _SETUP, "global-deep"),
    _m("cli.check_cold_s", "s", "lower", "python -m repro check <smallest design> --strategy ja, median of 3", _SETUP, "global-deep"),
    # -- the tracer itself ------------------------------------------------
    _m("trace.overhead_frac", "ratio", "lower", "traced pass wall over untraced pass wall, minus 1"),
)

#: Per-layer metrics that exist on one workload only (record + printout).
WORKLOAD_LAYER = {
    "ja-noreuse": (
        _m("engines.clause_insertions_reuse", "count", "lower",
           "sat.clauses_added on the workload's all-true designs with clause reuse on (must be below without)", _JA),
        _m("engines.clause_insertions_noreuse", "count", "lower",
           "sat.clauses_added on the same designs in the traced pass, clause reuse off", _NR),
    ),
    "pooled-service": (
        _m("service.job_latency_p90_s", "s", "lower", "submit to result, 90th percentile of the timed jobs", _PS),
        _m("service.peak_busy", "count", "higher", "most seats busy at once in stats() samples", _PS),
        _m("service.peak_pending", "count", "lower", "deepest admission queue in stats() samples", _PS),
        _m("parallel.run_1w_s", "s", "lower", "parallel-ja over the mix on a persistent 1-seat pool", _PS),
        _m("parallel.run_2w_s", "s", "lower", "same on 2 seats", _PS),
        _m("parallel.overhead_1w_frac", "ratio", "lower", "run_1w_s / in-process ja wall, minus 1 (ROADMAP gate: 0.1)", _PS),
        _m("parallel.speedup_2w", "ratio", "higher", "run_1w_s / run_2w_s", _PS),
        _m("parallel.dispatch_gap_p50_s", "s", "lower", "verdict of one property to start of the next in the same job", _PS),
        _m("parallel.exchange_clauses", "count", "higher", "clauses published to the exchange (report.stats)", _PS),
        _m("parallel.exchange_publishes", "count", "lower", "publish calls (ServiceStats.exchange)", _PS),
        _m("parallel.exchange_fetches", "count", "lower", "fetch calls (ServiceStats.exchange)", _PS),
        _m("parallel.design_pickles", "count", "lower", "designs pickled by the pool", _PS),
        _m("parallel.requeues", "count", "lower", "PropertyRequeued events", _PS),
        _m("parallel.seat_crashes", "count", "lower", "seat crashes (must be 0)", _PS),
    ),
    "portfolio-race": (
        _m("parallel.useful_attempt_frac", "ratio", "higher", "races decided / attempts started", _PR),
        _m("parallel.cancel_latency_p50_s", "s", "lower", "decision to loser's acknowledgement", _PR),
        _m("parallel.race_wall_p50_s", "s", "lower", "PortfolioDecided.wall_s, median", _PR),
        _m("parallel.portfolio_tax", "ratio", "lower", "portfolio pass wall / in-process ja wall", _PR),
    ),
    "remote-cached": (
        _m("cache.warm_verdict_s", "s", "lower", "wall of one warm resubmit batch, median", _RC),
        _m("cache.cold_verdict_s", "s", "lower", "wall of the cold batch, median", _RC),
        _m("cache.misses", "count", "lower", "store misses (/cache/stats)", _RC),
        _m("cache.warm_reproved", "count", "lower", "properties proved again in warm batches (must be 0)", _RC),
        _m("cache.warm_hit_frac", "ratio", "higher", "CacheHit events / properties in warm batches (must be 1)", _RC),
        _m("net.request_p50_s", "s", "lower", "GET /stats round trip, median", _RC),
        _m("net.submit_rtt_p50_s", "s", "lower", "POST /jobs round trip, median", _RC),
        _m("net.sse_events_per_s", "1/s", "higher", "events streamed per second of streaming", _RC),
        _m("net.events_streamed", "count", "lower", "SSE events received in the traced pass", _RC),
        _m("net.remote_overhead_s", "s", "lower", "cold batch minus the same batch on an in-process service", _RC),
    ),
}

# ----------------------------------------------------------------------
# Summary statistics
# ----------------------------------------------------------------------
def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (the repo's ServiceStats convention)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))]


def summary(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
