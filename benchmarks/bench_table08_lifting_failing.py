"""Table VIII — lifting respecting vs ignoring property constraints, on
the failing designs.

Expected shape: comparable performance on failing designs (the paper's
Table VIII): the occasional spurious-CEX re-run of the ignoring mode
costs about as much as the smaller lifted cubes of the respecting mode.
"""

from __future__ import annotations

import pytest

from repro.gen.families import failing_designs
from repro.multiprop.ja import ja_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed

PER_PROP_S = 5.0


def build_table():
    rows = []
    for name, aig in failing_designs().items():
        ts = TransitionSystem(aig)
        respecting, t_resp = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(
                    respect_constraints_in_lifting=True,
                    per_property_time=PER_PROP_S,
                    design_name=name,
                ),
            )
        )
        ignoring, t_ign = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(
                    respect_constraints_in_lifting=False,
                    per_property_time=PER_PROP_S,
                    design_name=name,
                ),
            )
        )
        assert respecting.debugging_set() == ignoring.debugging_set()
        rows.append(
            [
                name,
                len(ts.properties),
                len(respecting.unsolved()),
                cell_time(t_resp),
                len(ignoring.unsolved()),
                cell_time(t_ign),
                int(ignoring.stats["spurious_reruns"]),
            ]
        )
    publish_table(
        "table08",
        "Table VIII: lifting respecting vs ignoring property constraints (failing designs)",
        [
            "name",
            "#props",
            "respect #unsolved",
            "respect time",
            "ignore #unsolved",
            "ignore time",
            "#spurious reruns",
        ],
        rows,
        note="expected: comparable performance; identical debugging sets",
    )
    return rows


@pytest.mark.benchmark(group="table08")
def test_table08_lifting_failing(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    def seconds(cell):
        return float(cell.split()[0].replace(",", ""))

    assert all(row[2] == 0 and row[4] == 0 for row in rows)
    for row in rows:
        slow = max(seconds(row[3]), seconds(row[5]))
        fast = min(seconds(row[3]), seconds(row[5]))
        assert slow <= max(6 * fast, 0.5), row
