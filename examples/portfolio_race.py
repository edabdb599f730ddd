#!/usr/bin/env python3
"""Portfolio verification: race every engine, keep the first verdict.

Builds one of the failing benchmark families, races the full engine
slate (random-walk falsifier, BMC, k-induction, IC3) on every property,
and prints the winning-engine breakdown the race records in
``report.stats["portfolio"]`` — which engine decided each property and
how long its race took on its seat.  Each race runs whole on one seat,
the engines taking turns in doubling slices, so no engine is ever left
running against a decided property.

The run is seeded: the random-walk falsifier derives a per-property
sub-seed from the run-level seed, so re-running this script reproduces
the same walks bit for bit.

Run:  PYTHONPATH=src python examples/portfolio_race.py
"""

from collections import Counter

from repro import TransitionSystem
from repro.gen import FAILING_SPECS
from repro.parallel import portfolio_verify
from repro.session import VerificationConfig
from repro.progress import PortfolioDecided, format_event


def main() -> None:
    ts = TransitionSystem(FAILING_SPECS["f175"].build())
    print(f"design f175: {len(ts.properties)} properties\n")

    # --- race the slate, streaming the decisions ----------------------
    race_log = []

    def on_event(event):
        if isinstance(event, PortfolioDecided):
            race_log.append(format_event(event))

    report = portfolio_verify(
        ts,
        VerificationConfig(workers=4, seed=7, design_name="f175"),
        emit=on_event,
    )
    for line in race_log:
        print(f"  {line}")
    print()

    # --- winning-engine breakdown -------------------------------------
    races = report.stats["portfolio"]
    tally = Counter(race["winner"] for race in races.values())
    print("winners:", dict(tally))
    for name, race in races.items():
        print(
            f"  {name}: {race['status']} by {race['winner']} "
            f"in {race['wall_s']:.3f}s"
        )

    # --- the verdicts are ordinary report outcomes --------------------
    print()
    print(f"debugging set: {report.debugging_set()}")
    for name, outcome in report.outcomes.items():
        assert outcome.engine == races[name]["winner"]


if __name__ == "__main__":
    main()
