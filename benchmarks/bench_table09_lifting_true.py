"""Table IX — lifting respecting vs ignoring property constraints, on
the all-true designs.

Expected shape: on correct designs the ignoring mode wins on most rows
(larger lifted cubes, no spurious-CEX penalty since there are no CEXs),
occasionally dramatically — the paper's Table IX.
"""

from __future__ import annotations

import pytest

from repro.gen.families import all_true_designs
from repro.multiprop.ja import ja_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed

PER_PROP_S = 10.0


def build_table():
    rows = []
    for name, aig in all_true_designs().items():
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
        rows.append(
            [
                name,
                len(ts.properties),
                len(respecting.unsolved()),
                cell_time(t_resp),
                len(ignoring.unsolved()),
                cell_time(t_ign),
                "ignore" if t_ign <= t_resp else "respect",
            ]
        )
    publish_table(
        "table09",
        "Table IX: lifting respecting vs ignoring property constraints (all-true designs)",
        [
            "name",
            "#props",
            "respect #unsolved",
            "respect time",
            "ignore #unsolved",
            "ignore time",
            "best",
        ],
        rows,
        note="expected: ignoring constraints ahead on most rows",
    )
    return rows


@pytest.mark.benchmark(group="table09")
def test_table09_lifting_true(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    assert all(row[2] == 0 and row[4] == 0 for row in rows)
    ignore_wins = sum(1 for row in rows if row[6] == "ignore")
    assert ignore_wins >= len(rows) // 2
