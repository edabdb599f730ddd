#!/usr/bin/env python3
"""Concurrent multi-job verification through the VerificationService.

This supersedes the old ``server_pool.py`` single-run flow: instead of
driving one ``Session.run()`` at a time against a persistent pool, a
verification *server* submits many jobs at once and lets the service
interleave their properties onto the shared worker seats.

The demo:

1. submits four jobs — two designs, mixed sizes, mixed priorities —
   concurrently to one 2-worker service and streams the job lifecycle
   events as they happen;
2. shows the handles' ``status``/``result()``/``done`` API and that
   verdicts match what a serial ``Session.run()`` produces;
3. cancels a queued job and shows its siblings are untouched;
4. reads the structured ``ServiceStats`` surface — job latency
   percentiles, per-seat occupancy/crash/backoff state — that
   ``repro serve --stats-interval`` polls in production;
5. demonstrates back-pressure: a bounded admission queue refusing a
   non-blocking submit with ``QueueFull``;
6. prints the shared pool's amortization counters (designs pickled
   once, seats spawned once, exchange managers pooled).

Run:  python examples/service_concurrent.py
"""

from repro import QueueFull, Session, TransitionSystem, VerificationService
from repro.gen import ALL_TRUE_SPECS, buggy_counter
from repro.multiprop.report import render_table

WORKERS = 2


def main() -> None:
    big = TransitionSystem(ALL_TRUE_SPECS["t135"].build())
    small = TransitionSystem(buggy_counter(bits=4))
    serial = {
        "t135": Session(big, strategy="parallel-ja", workers=WORKERS).run(),
        "counter4": Session(small, strategy="parallel-ja",
                            workers=WORKERS).run(),
    }

    with VerificationService(workers=WORKERS, max_concurrent_jobs=4) as service:
        # -- 1. four concurrent jobs, lifecycle streamed ----------------
        service.subscribe(
            lambda e: print(f"  {e.kind}: {getattr(e, 'job', '')}")
            if e.kind.startswith("job-")
            else None
        )
        print("submitting 4 jobs to one shared pool:")
        handles = {
            "t135 (hi-pri)": service.submit(big, strategy="parallel-ja",
                                            priority=4),
            "counter4 a": service.submit(small, strategy="parallel-ja"),
            "t135 again": service.submit(big, strategy="parallel-ja"),
            "counter4 b": service.submit(small, strategy="parallel-ja"),
        }

        # -- 2. handles: status / result / done future ------------------
        rows = []
        for label, handle in handles.items():
            report = handle.result(timeout=120)
            reference = serial["t135" if "t135" in label else "counter4"]
            rows.append(
                [
                    label,
                    handle.job_id,
                    handle.status.value,
                    f"{len(report.true_props())}T/"
                    f"{len(report.false_props())}F",
                    "yes"
                    if {n: o.status for n, o in report.outcomes.items()}
                    == {n: o.status for n, o in reference.outcomes.items()}
                    else "NO",
                ]
            )
        print(
            render_table(
                "concurrent jobs vs serial Session.run()",
                ["job", "id", "status", "verdicts", "serial parity"],
                rows,
            )
        )

        # -- 3. cancellation never perturbs siblings --------------------
        victim = service.submit(big, strategy="parallel-ja")
        survivor = service.submit(small, strategy="parallel-ja")
        victim.cancel()
        report = survivor.result(timeout=120)
        victim.result(timeout=120)
        print(
            f"cancelled {victim.job_id} -> {victim.status.value}; "
            f"sibling {survivor.job_id} still "
            f"{len(report.true_props())}T/{len(report.false_props())}F"
        )

        # -- 4. the structured stats surface ----------------------------
        stats = service.stats()  # ServiceStats dataclass
        print(
            f"service stats: {stats.submitted} submitted, "
            f"{stats.finished} finished, {stats.running} running, "
            f"{stats.pending} pending"
        )
        print(
            f"  job latency: wait p50 {stats.latency['wait_p50_s']:.3f}s, "
            f"run p50 {stats.latency['run_p50_s']:.3f}s, "
            f"run max {stats.latency['run_max_s']:.3f}s"
        )
        for seat in stats.pool.seats:  # per-seat crash/backoff state
            print(
                f"  seat {seat.worker}: alive={seat.alive} "
                f"served={seat.properties_served} crashes={seat.crashes} "
                f"backoff={seat.backoff_s:.1f}s"
            )
        pool_stats = stats.pool.counters

    # -- 5. back-pressure on a tiny service -----------------------------
    with VerificationService(workers=1, max_concurrent_jobs=1,
                             max_pending=1) as tiny:
        # A long job plus a full queue: the next submit must bounce.
        tiny.submit(big, strategy="parallel-ja")
        tiny.submit(small, strategy="parallel-ja")
        try:
            tiny.submit(small, strategy="parallel-ja", block=False)
        except QueueFull as exc:
            print(f"back-pressure: {exc}")

    # -- 6. amortization across all jobs --------------------------------
    print(
        render_table(
            "shared pool after 6 jobs",
            ["runs", "design pickles", "designs cached", "seats spawned"],
            [
                [
                    pool_stats["runs"],
                    pool_stats["design_pickles"],
                    pool_stats["designs_cached"],
                    pool_stats["workers_spawned"],
                ]
            ],
        )
    )


if __name__ == "__main__":
    main()
