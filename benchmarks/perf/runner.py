"""One run of one workload: set-up, timed passes, checks, metrics, output.

``--trace 0`` measures the end-to-end metrics with no tracer anywhere;
``--trace 1`` replays one pass under the benchmark's tracer and reports
the per-layer metrics (:mod:`benchmarks.perf.layers`).  Either way every
verdict is checked against ``expected.json`` and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from . import calibrate, host
from . import expected as truth
from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, summary
from .workloads import WORKLOAD_CLASSES, PassLog, Workload

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

#: Set-ups timed per run (each in a fresh interpreter); the run reports their median.
SETUP_REPETITIONS = 3
#: A run times at least this many passes, however long ``--seconds`` is.
MIN_PASSES = 3
#: How long tear-down may take to leave no descendant process behind.
LEAK_GRACE_S = 5.0

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="End-to-end and per-layer benchmark of the JA-verification stack.",
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="one workload (default: all six, one after another)")
    parser.add_argument("--seed", type=int, default=0,
                        help="submission orders and the portfolio seed derive from it")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed passes go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one pass under the tracer, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="one pass over f175/t256/t273 only (smoke test)")
    parser.add_argument("--out", metavar="FILE",
                        help="append one JSON record per run to FILE (JSON lines)")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="where --trace 1 writes its spans (default: .work/trace-<workload>.json here)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv, t0: float) -> int:
    args = parse_args(argv)
    if args.compare:
        from .compare import compare_files

        return compare_files(*args.compare)
    override = host.backend_override()
    if override is not None:
        print(f"refusing to run: REPRO_SAT_BACKEND={override} would replace the default "
              f"SAT backend in every measurement; unset it", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args, t0)
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    records = [run_workload(name, args) for name in names]
    if args.out:
        with open(args.out, "a") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")
    print(json.dumps(driver_line(records)))
    return 0 if all(record["correct"] for record in records) else 1


def driver_line(records: list[dict]) -> dict:
    """The one JSON object the driver reads.  With several workloads in
    one invocation the metric names are prefixed with the workload's."""
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + ":"
        for name, entry in record["metrics"].items():
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    return {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def set_up(workload: Workload) -> None:
    workload.build()
    workload.start()
    workload.warm_up()


def setup_probe(args, t0: float) -> int:
    """Child side: set this workload up once and print how long it took,
    counted from the interpreter's first line of ``run.py`` and scaled to
    the reference host's speed."""
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.quick)
    try:
        set_up(workload)
        elapsed = clock() - t0
        kernel_s = statistics.median(calibrate.sample() for _ in range(3))
    finally:
        misses = workload.stop()
    print(repr(elapsed * calibrate.scale(kernel_s)))
    return 1 if misses else 0


def measure_setup(name: str, seed: int, quick: bool) -> list[float]:
    """Set the workload up in fresh interpreters, one after another."""
    command = host.python_cmd(RUN_PY, "--setup-probe", "--workload", name, "--seed", str(seed))
    if quick:
        command.append("--quick")
    samples = []
    for _ in range(1 if quick else SETUP_REPETITIONS):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()[-400:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
def timed_passes(workload: Workload, seconds: float) -> tuple[list[PassLog], float]:
    """The passes, and the process tree's peak resident size after the
    first ``MIN_PASSES`` of them — a fixed amount of work, so that a run
    that fits more passes into its seconds does not look bigger."""
    least = 1 if workload.quick else MIN_PASSES
    passes: list[PassLog] = []
    peak_rss_mb = 0.0
    begin = clock()
    while True:
        passes.append(workload.run_pass(len(passes)))
        if len(passes) == least:
            peak_rss_mb = host.tree_peak_rss_mb()
        if len(passes) >= least and (workload.quick or clock() - begin >= seconds):
            return passes, peak_rss_mb


def typical_jobs(passes: list[PassLog], measure) -> list[float]:
    """Per job of a pass, the median over all passes of ``measure(job)``
    scaled to the reference host's undisturbed speed."""
    scaled: dict = {}
    for log in passes:
        for key, job in log.keyed_jobs():
            scaled.setdefault(key, []).append(measure(job) * calibrate.scale(job.kernel_s))
    return [statistics.median(values) for values in scaled.values()]


def end_to_end(passes: list[PassLog], setup_samples: list[float], peak_rss_mb: float) -> dict:
    """The run's value of every end-to-end metric.

    Times are scaled job by job to the reference host's undisturbed
    speed (:mod:`benchmarks.perf.calibrate`) and each job then counts
    with its median over the passes.  With one client a pass is its
    jobs one after another, so its wall and CPU time are sums over its
    jobs; where two clients overlap they are the median whole pass.
    """
    latencies = typical_jobs(passes, lambda job: job.latency)
    if passes[0].one_client:
        verdict_s = sum(latencies)
        cpu_s = sum(typical_jobs(passes, lambda job: job.cpu_s))
    else:
        verdict_s = statistics.median(log.verdict_s * calibrate.scale(log.kernel_s) for log in passes)
        cpu_s = statistics.median(log.cpu_s * calibrate.scale(log.kernel_s) for log in passes)
    return {
        "setup_s": statistics.median(setup_samples),
        "verdict_s": verdict_s,
        "debug_set_s": sum(typical_jobs(passes, lambda job: job.debug_set_latency())),
        "job_latency_p50_s": statistics.median(latencies),
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
    }


def pass_samples(passes: list[PassLog], setup_samples: list[float]) -> dict:
    """Whole-pass samples as the clock read them (not scaled), for the record."""
    return {
        "setup_s": setup_samples,
        "verdict_s": [log.verdict_s for log in passes],
        "debug_set_s": [sum(job.debug_set_latency() for job in log.jobs) for log in passes],
        "job_latency_p50_s": [statistics.median(job.latency for job in log.jobs) for log in passes],
        "cpu_s": [log.cpu_s for log in passes],
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_passes(workload: Workload, passes: list[PassLog], expected: dict) -> tuple[int, list[str]]:
    """``(checks made, misses)`` over every job of every pass."""
    attempted = 0
    misses: list[str] = []
    for log in passes:
        for job in log.jobs:
            design = job.spec.design
            attempted += len(expected[design]["properties"]) + 1
            if job.error is not None or job.report is None:
                # Every property of a job that errored counts as failed.
                misses.extend(
                    f"{workload.name}/{design}/{name}: job failed: {job.error}"
                    for name in expected[design]["properties"]
                )
                continue
            misses.extend(truth.check_report(expected, design, workload.aigs[design], job.report, job.spec.scope))
            if job.spec.scope == "local":
                misses.extend(truth.check_debugging_set(expected, design, job.report))
            else:
                misses.extend(truth.check_debug_subset_of_false(expected, design, job.report))
    return attempted, misses


def tear_down(workload: Workload) -> list[str]:
    """Stop the workload; anything it leaves running is a miss (and is killed)."""
    misses = workload.stop()
    deadline = clock() + LEAK_GRACE_S
    left = host.descendants()
    while left and clock() < deadline:
        time.sleep(0.05)
        left = host.descendants()
    for pid in left:
        misses.append(f"{workload.name}: process {pid} survived tear-down")
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return misses


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(name: str, args) -> dict:
    traced = bool(args.trace)
    fingerprint = host.fingerprint(args.seed)
    expected = truth.load()
    workload = WORKLOAD_CLASSES[name](args.seed, args.quick)
    setup_samples = [] if traced else measure_setup(name, args.seed, args.quick)
    extra: dict = {}
    try:
        set_up(workload)
        if traced:
            from .layers import traced_run

            passes, values, extra, misses = traced_run(workload, args.trace_out)
            samples = {}
            declared = PER_LAYER
        else:
            passes, peak_rss_mb = timed_passes(workload, args.seconds)
            values = end_to_end(passes, setup_samples, peak_rss_mb)
            samples = pass_samples(passes, setup_samples)
            declared = END_TO_END
            misses = []
    finally:
        hygiene = tear_down(workload)
    attempted, wrong = check_passes(workload, passes, expected)
    misses = wrong + misses + hygiene
    attempted += 1  # the tear-down check

    metrics = {}
    for metric in declared:
        entry = {"value": values[metric.name], "unit": metric.unit}
        if metric.name in samples:
            entry.update(summary(samples[metric.name]))
        metrics[metric.name] = entry
    record = {
        "workload": name,
        "traced": traced,
        "quick": args.quick,
        "seconds": args.seconds,
        "host": fingerprint,
        "correct": not misses,
        "attempted": attempted,
        "failed": min(len(misses), attempted),
        "misses": misses[:50],
        "seat_crashes": workload.seat_crashes,
        "passes": [{"verdict_s": p.verdict_s, "cpu_s": p.cpu_s, "kernel_s": p.kernel_s, "jobs": len(p.jobs)}
                   for p in passes],
        "metrics": metrics,
        **extra,
    }
    print_record(record)
    return record


def print_record(record: dict) -> None:
    mode = "traced" if record["traced"] else "untraced"
    info = record["host"]
    print(f"== {record['workload']} ({mode}, seed {info['seed']}, {len(record['passes'])} passes, "
          f"nproc {info['nproc']}, python {info['python']}, backend {info['sat_backend']}, "
          f"load {info['loadavg_1m']:.2f}, rev {info['git_revision'][:12]})")
    for name, entry in record["metrics"].items():
        spread = (f"  [samples: median {entry['median']:.6g}, q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                  f"n {entry['n']}]") if "n" in entry else ""
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}{spread}")
    for name, entry in record.get("workload_layer", {}).items():
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}  (this workload only)")
    for layer, seconds in record.get("layer_self_s", {}).items():
        print(f"self time {layer:24s} {seconds:.6g} s")
    if record["seat_crashes"]:
        print(f"WARNING the program lost and respawned {record['seat_crashes']} worker seat(s)")
    for miss in record["misses"]:
        print(f"MISS {miss}")
    verdict = "correct" if record["correct"] else "INCORRECT"
    print(f"{verdict}: {record['attempted']} checks, {record['failed']} failed")
