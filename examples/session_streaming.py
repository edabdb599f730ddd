#!/usr/bin/env python3
"""Session API tour: streaming progress events and plugging in a strategy.

Two things the unified API enables, demonstrated on the buggy counter:

1. **Event streaming** — ``Session.stream()`` runs the strategy as one
   service job and yields typed progress events as they happen, so a
   dashboard (or a sharding scheduler) can watch frames advance and
   clauses flow between properties without polling.

2. **A custom strategy** — registering a class under a new name makes it
   a first-class verification method: ``Session(..., strategy=...)``
   and ``python -m repro check --strategy bmc-falsify`` both resolve it
   through the registry, with no changes to ``repro.session`` or the
   CLI.  Here a BMC-only falsifier (complete for failures, never proves)
   is built from the ``bmc_check`` engine in ~30 lines.

Run:  python examples/session_streaming.py
"""

import collections

from repro import Session, register_strategy
from repro.engines.bmc import bmc_check
from repro.engines.result import PropStatus
from repro.gen import buggy_counter
from repro.multiprop.report import MultiPropReport, PropOutcome
from repro.progress import format_event


@register_strategy("bmc-falsify")
class BMCFalsify:
    """Bounded falsification only: BMC each property, never prove."""

    def run(self, ts, config, emit):
        report = MultiPropReport(method="bmc-falsify", design=config.design_name)
        for prop in ts.properties:
            result = bmc_check(ts, prop.name, max_depth=16, emit=emit)
            status = (
                PropStatus.FAILS if result.fails else PropStatus.UNKNOWN
            )
            report.outcomes[prop.name] = PropOutcome(
                name=prop.name,
                status=status,
                local=False,
                frames=result.frames,
                time_seconds=result.time_seconds,
                cex_depth=len(result.cex) if result.cex is not None else None,
            )
            report.total_time += result.time_seconds
        return report


def main() -> None:
    design = buggy_counter(bits=4)

    # --- 1. consume the progress-event stream as an iterator ----------
    print("== ja strategy, events via Session.stream() ==")
    session = Session(design, strategy="ja", design_name="counter4")
    counts = collections.Counter()
    for event in session.stream():
        counts[event.kind] += 1
        print(f"  {format_event(event)}")
    print(f"report: {session.report.summary()}")
    print(f"event counts: {dict(counts)}")
    print()

    # --- 2. run the plugged-in strategy through the same facade -------
    print("== custom bmc-falsify strategy via the registry ==")
    report = Session(design, strategy="bmc-falsify", design_name="counter4").run()
    print(f"report: {report.summary()}")
    for name, outcome in report.outcomes.items():
        print(f"  {name}: {outcome.status.value} (frames={outcome.frames})")


if __name__ == "__main__":
    main()
