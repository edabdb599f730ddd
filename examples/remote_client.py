#!/usr/bin/env python3
"""The remote service end to end: HTTP submit, SSE streams, stats.

Where ``service_concurrent.py`` drives a ``VerificationService``
in-process, this demo puts the network in the middle: a
``VerificationServer`` (the stdlib threaded HTTP server, serving on a
daemon thread — the same server ``repro serve --listen`` runs as a
process) and a ``ServiceClient`` talking to it over real sockets on
127.0.0.1.

The demo:

1. starts a server on an OS-assigned port and submits two jobs over
   HTTP — one design inline as AIGER text (works against any server),
   one by server-side path;
2. streams one job's decoded ``ProgressEvent``s over SSE and shows
   the verdicts match an in-process ``Session.run()``;
3. kills a live event stream mid-flight and resumes it from the
   cursor — no dropped events, no duplicates;
4. cancels a queued job over HTTP and reads its terminal status;
5. reads ``GET /stats`` — the same ``ServiceStats`` payload the
   in-process API returns, now one HTTP call away;
6. drains the server and shows submits are refused once it is gone.

Run:  python examples/remote_client.py
"""

import tempfile

from repro import Session, TransitionSystem, VerificationService
from repro.circuit.aiger import parse_aag, write_aag
from repro.gen import ALL_TRUE_SPECS, buggy_counter
from repro.net import ServiceClient, ServiceUnavailable, VerificationServer
from repro.progress import format_event

WORKERS = 2


def main() -> None:
    big_text = write_aag(ALL_TRUE_SPECS["t124"].build())
    small_text = write_aag(buggy_counter(bits=4))

    service = VerificationService(workers=WORKERS, max_concurrent_jobs=4)
    server = VerificationServer(service).start()
    client = ServiceClient(server.address)
    print(f"server up on {server.address}, healthz: {client.health()}")

    # -- 1. submit over HTTP: inline text and server-side path ----------
    big = client.submit(design_text=big_text, strategy="parallel-ja",
                        design_name="t124", priority=2)
    with tempfile.NamedTemporaryFile("w", suffix=".aag",
                                     delete=False) as handle:
        handle.write(small_text)
    small = client.submit(design=handle.name, strategy="parallel-ja")
    print(f"submitted {big.job_id} (inline) and {small.job_id} (by path)")

    # -- 2. the SSE stream, decoded back to real ProgressEvents ---------
    streamed = {}
    for event in big.events():          # ends after JobFinished
        if event.kind in ("job-queued", "job-started", "property-solved",
                          "job-finished"):
            print(f"  {format_event(event)}")
        if event.kind == "property-solved":
            streamed[event.name] = event.status
    report = big.result(timeout=300)
    reference = Session(TransitionSystem(parse_aag(big_text)),
                        strategy="parallel-ja", workers=WORKERS).run()
    in_process = {n: o.status for n, o in reference.outcomes.items()}
    print(f"verdict parity with in-process Session.run(): "
          f"{streamed == in_process}")
    print(f"report is a real MultiPropReport: {len(report.true_props())}T/"
          f"{len(report.false_props())}F, method={report.method}")

    # -- 3. kill a stream, resume from the cursor -----------------------
    replay = client.job(big.job_id)     # fresh handle, cursor 0
    stream = replay.events()
    head = [next(stream) for _ in range(3)]
    stream.close()                      # the "killed" connection
    tail = list(replay.events())        # resumes after event 3
    total = replay.status()["events"]
    print(f"killed after {len(head)} events, resumed {len(tail)}: "
          f"{len(head) + len(tail)} == {total} logged, no drops/dupes")

    # -- 4. cancel over HTTP --------------------------------------------
    victim = client.submit(design_text=big_text, strategy="parallel-ja")
    accepted = victim.cancel()
    victim.result(timeout=300)          # cancelled jobs still resolve
    print(f"cancel({victim.job_id}) -> {accepted}, "
          f"settled as {victim.status()['status']!r}")
    small.result(timeout=300)           # the sibling is untouched

    # -- 5. the stats surface, one GET away -----------------------------
    stats = client.stats()
    print(f"GET /stats: {stats['submitted']} submitted, "
          f"{stats['jobs']['finished']} finished, "
          f"pool busy {stats['pool']['busy']}/{stats['pool']['workers']}")

    # -- 6. graceful drain ----------------------------------------------
    server.stop()
    try:
        client.submit(design_text=small_text, strategy="ja")
    except ServiceUnavailable as exc:
        print(f"after drain: {exc}")


if __name__ == "__main__":
    main()
