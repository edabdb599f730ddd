"""The six workloads: what each submits, through which front door.

Every workload is a closed loop: a client submits its next job only
after the previous one returned.  Seats and client threads are capped
at ``min(2, nproc)``.  The program under test only ever receives
generated designs and ``VerificationConfig`` fields; the seed picks the
order in which designs are submitted (per pass and per batch) and the
portfolio's ``seed``.

Sizes are measurements on the 2-CPU reference host and are chosen so
that one pass is a few seconds: the driver measures for 12 seconds and
needs several passes for a median.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import Session, VerificationService
from repro.circuit.aiger import write_aag
from repro.net import ServiceClient
from repro.progress import (
    BudgetCheckpoint,
    CacheHit,
    JobFinished,
    JobStarted,
    PropertySolved,
    PropertyStarted,
)
from repro.ts import TransitionSystem

from . import calibrate, host
from .expected import FAILS, SPECS, status_name
from .trace import TRACED_BACKEND, TracedTS, Tracer

JOB_TIMEOUT_S = 150.0
#: A long in-process job samples the host's speed this often (seconds).
INSIDE_SAMPLE_EVERY_S = 0.15
SETTLE_TIMEOUT_S = 5.0
clock = time.perf_counter


@dataclass(frozen=True)
class JobSpec:
    design: str
    config: tuple  # sorted (field, value) pairs of VerificationConfig
    scope: str  # "local" | "global": which column of expected.json applies

    @classmethod
    def of(cls, design: str, scope: str = "local", **config) -> "JobSpec":
        return cls(design, tuple(sorted(config.items())), scope)

    def options(self) -> dict:
        return dict(self.config)

    @property
    def key(self) -> tuple:
        """What makes it the same job in every pass: all but the seed."""
        return self.design, tuple(item for item in self.config if item[0] != "seed"), self.scope


@dataclass
class JobLog:
    """One job as the client saw it: times, every event, the report."""

    spec: JobSpec
    batch: str = ""
    submit: float = 0.0
    submitted: float = 0.0  # remote jobs: when POST /jobs returned
    end: float = 0.0
    cpu_s: float = 0.0  # process tree CPU between submit and end
    kernel_s: float = 0.0  # mean calibrate.sample() around and inside the job (or its pass)
    events: list = field(default_factory=list)  # (arrival time, event)
    report: object = None
    error: str | None = None
    #: In-process jobs only: how often ``on_event`` stops to sample the
    #: host's speed.  The job's thread is the one that would be working,
    #: so the samples cost the job nothing but their own time, which is
    #: taken out of ``end``, ``cpu_s`` and every later event's time.
    sample_every: float | None = None
    inside_samples: list = field(default_factory=list)
    calibration_s: float = 0.0
    _sampled_at: float = 0.0

    def on_event(self, event) -> None:
        now = clock()
        self.events.append((now - self.calibration_s, event))
        if self.sample_every is not None and now - max(self._sampled_at, self.submit) >= self.sample_every:
            self.inside_samples.append(calibrate.sample())
            self._sampled_at = clock()
            self.calibration_s += self._sampled_at - now

    @property
    def latency(self) -> float:
        return self.end - self.submit

    def debug_set_latency(self) -> float:
        """Submit to the last FAILS verdict: from then on the client knows
        every property it has to fix first (0 when nothing fails)."""
        last = self.submit
        for at, event in self.events:
            kind = type(event)
            if (kind is PropertySolved or kind is CacheHit) and status_name(event.status) == FAILS:
                last = at
        return last - self.submit


@dataclass
class PassLog:
    index: int
    start: float
    end: float
    jobs: list
    cpu_s: float = 0.0
    #: mean calibrate.sample() over the pass.
    kernel_s: float = 0.0
    #: seconds of ``start..end`` spent in calibrate.sample(), not in jobs.
    calibration_s: float = 0.0
    #: jobs ran one after another (False: two clients overlapped).
    one_client: bool = False
    #: remote-cached only: (kind, wall) per batch, kind "cold" or "warm".
    batches: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start - self.calibration_s

    @property
    def verdict_s(self) -> float:
        """First submit to last verdict as the clock read it: with one
        client the jobs' latencies one after another, else the wall."""
        return sum(job.latency for job in self.jobs) if self.one_client else self.wall

    def keyed_jobs(self):
        """``(key, job)`` with the same key for the same job of every
        pass: its spec and how often the pass had submitted it before
        (remote-cached submits each design cold, then warm)."""
        seen: dict = {}
        for job in self.jobs:
            nth = seen.get(job.spec.key, 0)
            seen[job.spec.key] = nth + 1
            yield (job.spec.key, nth), job


class SpanHook:
    """``on_event`` for an in-process traced job: events become spans.

    ``JobStarted``..``JobFinished`` brackets the strategy (layer
    ``multiprop``); ``PropertyStarted`` to the property's verdict — or,
    for joint's aggregate, to the driver's next total checkpoint —
    brackets one engine call (layer ``engines``).
    """

    def __init__(self, tracer: Tracer, log: JobLog, trace_id: str) -> None:
        self.tracer = tracer
        self.log = log
        self.trace_id = trace_id
        self.job: int | None = None
        self.prop: int | None = None

    def _close_prop(self) -> None:
        if self.prop is not None:
            self.tracer.pop(self.prop)
            self.prop = None

    def __call__(self, event) -> None:
        self.log.events.append((clock(), event))
        kind = type(event)
        if kind is PropertyStarted:
            self._close_prop()
            self.prop = self.tracer.push(event.name, "engines", f"{self.trace_id}/{event.name}")
        elif kind is PropertySolved or (kind is BudgetCheckpoint and event.scope == "total"):
            self._close_prop()
        elif kind is JobStarted:
            self.job = self.tracer.push("job", "multiprop", self.trace_id)
        elif kind is JobFinished:
            self._close_prop()
            if self.job is not None:
                self.tracer.pop(self.job)
                self.job = None


def session_job(spec: JobSpec, design, log: JobLog, tracer: Tracer | None, trace_id: str) -> None:
    """Run one job through ``Session``; with a tracer, fully instrumented."""
    options = spec.options()
    options["design_name"] = spec.design
    if tracer is None:
        hook, bracket = log.on_event, nullcontext()
        log.sample_every = INSIDE_SAMPLE_EVERY_S
    else:
        options["solver_backend"] = TRACED_BACKEND
        design = TracedTS(design.aig, tracer)
        hook = SpanHook(tracer, log, trace_id)
        bracket = tracer.span("Session.run", "session", trace_id)
    cpu = host.tree_cpu_seconds()
    log.submit = clock()
    try:
        with bracket:
            log.report = Session(design, on_event=hook, **options).run()
    except Exception as exc:  # a failed job is a result, not a crash
        log.error = f"{type(exc).__name__}: {exc}"
    log.end = clock() - log.calibration_s
    log.cpu_s = host.tree_cpu_seconds() - cpu - log.calibration_s


def in_turn(logs: list, run_one, index: int) -> PassLog:
    """One client: each job after the other, with the host's speed
    sampled before and after every job."""
    start = clock()
    before = calibrate.sample()
    samples = [before]
    for log in logs:
        run_one(log)
        after = calibrate.sample()
        samples.append(after)
        around = [before, *log.inside_samples, after]
        log.kernel_s = sum(around) / len(around)
        before = after
    return PassLog(index, start, clock(), logs, cpu_s=sum(log.cpu_s for log in logs),
                   kernel_s=sum(samples) / len(samples), one_client=True,
                   calibration_s=sum(samples) + sum(log.calibration_s for log in logs))


def session_pass(slate, designs, index: int, tracer: Tracer | None = None, prefix: str = "") -> PassLog:
    """Submit ``slate`` one job after another through ``Session``."""
    def run_one(log: JobLog) -> None:
        design = log.spec.design
        session_job(log.spec, designs[design], log, tracer, f"{prefix}/{index}/{design}")

    return in_turn([JobLog(spec) for spec in slate], run_one, index)


# ----------------------------------------------------------------------
class Workload:
    """Set-up, passes and tear-down of one workload."""

    name = ""
    slate: tuple = ()
    quick_slate: tuple = ()
    #: worker seats the traced pass divides engine time by.
    seats = 1
    #: client threads; with one, a pass is its jobs one after another.
    clients = 1
    #: True when passes run in-process and can carry the traced backend.
    in_process = False
    #: Worker seats the program lost and respawned, read at tear-down.
    #: Reported, not a miss: with two clients on shared seats the program
    #: has a race (README, "Findings") that the workload must not avoid.
    seat_crashes = 0

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.jobs_spec = self.quick_slate if quick else self.slate
        self.aigs: dict = {}
        self.designs: dict = {}

    # -- set-up ------------------------------------------------------------
    def build(self) -> None:
        names = {spec.design for spec in self.jobs_spec} | {"f175"}
        self.aigs = {name: SPECS[name].build() for name in sorted(names)}
        self.designs = {name: TransitionSystem(aig) for name, aig in self.aigs.items()}

    def start(self) -> None:
        """Start the pool or server the passes go through."""

    def warm_up(self) -> None:
        """A tiny job through the same front door: lazy imports, seats up."""

    def stop(self) -> list[str]:
        """Release everything :meth:`start` took; returns hygiene misses."""
        return []

    # -- passes ------------------------------------------------------------
    def ordered(self, index: int, salt: int = 0) -> list:
        order = list(self.jobs_spec)
        random.Random(f"{self.seed}/{index}/{salt}").shuffle(order)
        return order

    def run_pass(self, index: int, tracer: Tracer | None = None) -> PassLog:
        raise NotImplementedError

    def replica_slate(self) -> tuple:
        """What the in-process traced replica runs: this workload's jobs
        when they are in-process already, else ``ja`` on the same designs."""
        if self.in_process:
            return tuple(self.jobs_spec)
        seen = dict.fromkeys(spec.design for spec in self.jobs_spec)
        return tuple(JobSpec.of(design, strategy="ja") for design in seen)


def _ja(*names, **config):
    return tuple(JobSpec.of(name, strategy="ja", **config) for name in names)


class SessionWorkload(Workload):
    in_process = True

    def warm_up(self) -> None:
        for options in {spec.config for spec in self.jobs_spec}:
            session_job(JobSpec("f175", options, "local"), self.designs["f175"], JobLog(None), None, "")

    def run_pass(self, index, tracer=None):
        return session_pass(self.ordered(index), self.designs, index, tracer, self.name)


class JaLocal(SessionWorkload):
    name = "ja-local"
    # 13 of the 16 families, so that a run has time for five passes:
    # t124 and t275 repeat t407's shape (a hidden shared invariant), and
    # f335 is verified by remote-cached.
    slate = _ja(*(name for name in SPECS if name not in ("t124", "t275", "f335")))
    quick_slate = _ja("f175", "t256", "t273")


class GlobalDeep(SessionWorkload):
    name = "global-deep"
    slate = (
        JobSpec.of("f260", "global", strategy="joint", total_conflicts=20000),
        JobSpec.of("f260", "global", strategy="separate", per_property_conflicts=3000),
    )
    quick_slate = (
        JobSpec.of("f175", "global", strategy="joint", total_conflicts=20000),
        JobSpec.of("t256", "global", strategy="separate", per_property_conflicts=3000),
        JobSpec.of("t273", "global", strategy="joint", total_conflicts=20000),
    )


class JaNoReuse(SessionWorkload):
    name = "ja-noreuse"
    slate = _ja("t275", "f335", clause_reuse=False)
    quick_slate = _ja("t256", "t273", "f175", clause_reuse=False)


# ----------------------------------------------------------------------
class ServiceWorkload(Workload):
    """Jobs go through one persistent ``VerificationService``."""

    clients = 1

    def __init__(self, seed, quick=False):
        super().__init__(seed, quick)
        self.seats = host.seat_cap()
        self.clients = min(self.clients, host.seat_cap())
        self.service: VerificationService | None = None

    def start(self):
        self.service = VerificationService(workers=self.seats)

    def warm_up(self):
        handles = [
            self.service.submit(self.designs["f175"], strategy="parallel-ja", design_name="f175")
            for _ in range(self.seats)
        ]
        for handle in handles:
            handle.result(timeout=JOB_TIMEOUT_S)

    def stop(self):
        misses = []
        if self.service is not None:
            pool = self.service.stats().pool
            self.seat_crashes = sum(seat.crashes for seat in pool.seats) if pool else 0
            self.service.close()
            self.service = None
        return misses

    def settle(self) -> None:
        """Wait until no seat is busy.  A portfolio's cancelled attempts
        run on for up to half a second after their job has returned;
        the job's CPU time has to include them and the next sample of
        the host's speed must not."""
        deadline = clock() + SETTLE_TIMEOUT_S
        while clock() < deadline:
            pool = self.service.stats().pool
            if pool is None or pool.busy == 0:
                return
            time.sleep(0.005)

    def service_job(self, spec: JobSpec, log: JobLog) -> None:
        options = spec.options()
        options["design_name"] = spec.design
        cpu = host.tree_cpu_seconds()
        log.submit = clock()
        try:
            handle = self.service.submit(self.designs[spec.design], on_event=log.on_event, **options)
            log.report = handle.result(timeout=JOB_TIMEOUT_S)
        except Exception as exc:
            log.error = f"{type(exc).__name__}: {exc}"
        log.end = clock()
        if self.clients == 1:
            self.settle()
        log.cpu_s = host.tree_cpu_seconds() - cpu  # meaningful with one client only

    def run_pass(self, index, tracer=None):
        if self.clients == 1:
            logs = [JobLog(spec) for spec in self.ordered(index)]
            return in_turn(logs, lambda log: self.service_job(log.spec, log), index)
        queue = self.ordered(index)
        lock = threading.Lock()
        jobs: list[JobLog] = []

        def client() -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    log = JobLog(queue.pop(0))
                    jobs.append(log)
                self.service_job(log.spec, log)

        threads = [threading.Thread(target=client, name=f"bench-client-{i}") for i in range(self.clients)]
        # The clients overlap, so the host's speed is sampled around the
        # whole pass and every job of the pass shares the figure.
        before = calibrate.sample()
        cpu = host.tree_cpu_seconds()
        start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = clock()
        self.settle()
        cpu = host.tree_cpu_seconds() - cpu
        kernel_s = (before + calibrate.sample()) / 2
        for log in jobs:
            log.kernel_s = kernel_s
        return PassLog(index, start, end, jobs, cpu_s=cpu, kernel_s=kernel_s)


def _pja(*names, **config):
    return tuple(JobSpec.of(name, strategy="parallel-ja", **config) for name in names)


class PooledService(ServiceWorkload):
    name = "pooled-service"
    clients = 2
    slate = _pja("f104", "f260", "f258", "f207", "f254",
                 "t135", "t139", "tbob", "t273", "t275")
    quick_slate = _pja("f175", "t256", "t273")


class PortfolioRace(ServiceWorkload):
    name = "portfolio-race"
    # f175 alone (two failing, three true properties): a race costs
    # 0.2-0.7 s per property today, so the issue's f260 would leave room
    # for one pass per run, and even t256 for three.
    slate = ("f175",)
    quick_slate = ("f175",)

    def __init__(self, seed, quick=False):
        super().__init__(seed, quick)
        self.jobs_spec = tuple(self.race(name, seed) for name in self.jobs_spec)

    def race(self, design: str, seed: int) -> JobSpec:
        return JobSpec.of(design, strategy="portfolio", portfolio_engines="rw,bmc,kind,ic3",
                          seed=seed, workers=self.seats)

    def ordered(self, index, salt=0):
        # A different portfolio seed every pass: how soon the random walk
        # stumbles on a counterexample is luck, and a run should see a
        # spread of it rather than one draw.
        seed = random.Random(f"{self.seed}/{index}/portfolio").randrange(2**31)
        return [self.race(spec.design, seed) for spec in super().ordered(index, salt)]


# ----------------------------------------------------------------------
class RemoteCached(Workload):
    """``repro serve --listen`` as a subprocess, one HTTP client."""

    name = "remote-cached"
    slate = _pja("f104", "f207", "f335", "t135", "t275")
    quick_slate = _pja("f175", "t256", "t273")
    warm_batches = 3

    def __init__(self, seed, quick=False):
        super().__init__(seed, quick)
        self.seats = host.seat_cap()
        if quick:
            self.warm_batches = 1
        self.server: subprocess.Popen | None = None
        self.client: ServiceClient | None = None
        self.texts: dict = {}
        self.workdir = os.path.join(host.WORK_DIR, f"remote-{os.getpid()}")
        self._cache_dirs = 0

    def build(self):
        super().build()
        self.texts = {name: write_aag(aig) for name, aig in self.aigs.items()}

    def start(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.server = subprocess.Popen(
            host.python_cmd("-m", "repro", "serve", "--listen", "127.0.0.1:0",
                            "--workers", str(self.seats)),
            stdout=subprocess.PIPE, text=True, env=host.child_env(),
        )
        line = self.server.stdout.readline()
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = ServiceClient(line.split()[-1])

    def warm_up(self):
        self.remote_job(JobSpec.of("f175", strategy="parallel-ja"), JobLog(None), None)

    def stop(self):
        misses = []
        if self.server is not None:
            try:
                pool = self.client.stats().get("pool") or {}
                self.seat_crashes = sum(seat["crashes"] for seat in pool.get("seats", []))
            except Exception as exc:
                misses.append(f"{self.name}: /stats unreachable at tear-down: {exc}")
            self.server.send_signal(signal.SIGINT)
            try:
                code = self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                code = self.server.wait()
            if code != 0:
                misses.append(f"{self.name}: server exited {code}")
            self.server.stdout.close()
            self.server = None
        shutil.rmtree(self.workdir, ignore_errors=True)
        return misses

    def remote_job(self, spec: JobSpec, log: JobLog, cache_dir: str | None) -> None:
        options = spec.options()
        options["design_name"] = spec.design
        if cache_dir is not None:
            options["cache_dir"] = cache_dir
        cpu = host.tree_cpu_seconds()
        log.submit = clock()
        try:
            job = self.client.submit(design_text=self.texts[spec.design], **options)
            log.submitted = clock()
            for event in job.events():
                log.on_event(event)
            log.report = job.result(timeout=JOB_TIMEOUT_S)
        except Exception as exc:
            log.error = f"{type(exc).__name__}: {exc}"
        log.end = clock()
        log.cpu_s = host.tree_cpu_seconds() - cpu

    def run_pass(self, index, tracer=None):
        self._cache_dirs += 1
        cache_dir = os.path.join(self.workdir, f"cache-{self._cache_dirs}")
        logs = [
            JobLog(spec, batch="cold" if batch == 0 else "warm")
            for batch in range(1 + self.warm_batches)
            for spec in self.ordered(index, batch)
        ]
        log = in_turn(logs, lambda job: self.remote_job(job.spec, job, cache_dir), index)
        shutil.rmtree(cache_dir, ignore_errors=True)
        size = len(self.jobs_spec)
        for batch in range(1 + self.warm_batches):
            jobs = logs[batch * size:(batch + 1) * size]
            log.batches.append((jobs[0].batch, sum(job.latency for job in jobs)))
        return log


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (JaLocal, GlobalDeep, JaNoReuse, PooledService, PortfolioRace, RemoteCached)
}
