"""Table V — separate verification with global vs local proofs on the
failing designs (both with clause re-use).

Expected shape: the global variant must compute one deep counterexample
per dominated property and exhausts its per-property budgets; the local
variant (= JA) replaces those with instant local proofs.  "Separate
verification with local proofs dramatically outperforms the one with
global proofs."
"""

from __future__ import annotations

import pytest

from repro.gen.families import failing_designs
from repro.multiprop.ja import ja_verify, separate_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed

PER_PROP_S = 2.0
TOTAL_S = 30.0


def build_table():
    rows = []
    for name, aig in failing_designs().items():
        ts = TransitionSystem(aig)
        glob, t_glob = timed(
            lambda: separate_verify(
                ts,
                VerificationConfig(
                    per_property_time=PER_PROP_S,
                    total_time=TOTAL_S,
                    design_name=name,
                ),
            )
        )
        local, t_local = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(
                    per_property_time=PER_PROP_S,
                    total_time=TOTAL_S,
                    design_name=name,
                ),
            )
        )
        rows.append(
            [
                name,
                len(ts.properties),
                len(glob.unsolved()),
                cell_time(t_glob),
                len(local.unsolved()),
                cell_time(t_local),
            ]
        )
    publish_table(
        "table05",
        "Table V: separate verification, global vs local proofs (failing designs)",
        [
            "name",
            "#props",
            "global #unsolved",
            "global time",
            "local #unsolved",
            "local time",
        ],
        rows,
        note=f"{PER_PROP_S:.0f}s/property, {TOTAL_S:.0f}s/design (paper: same limits as Table III, 10h total)",
    )
    return rows


@pytest.mark.benchmark(group="table05")
def test_table05_global_vs_local_failing(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    def seconds(cell):
        return float(cell.split()[0].replace(",", ""))

    # Local proofs solve everything within budget.
    assert all(row[4] == 0 for row in rows)
    # Aggregate: global proving takes far longer overall.
    total_global = sum(seconds(row[3]) for row in rows)
    total_local = sum(seconds(row[5]) for row in rows)
    assert total_global > 3 * total_local
    # The dramatic rows: deep-dependent designs leave the global variant
    # with unsolved properties while local solves all of them.
    by_name = {row[0]: row for row in rows}
    assert by_name["f380"][2] > 0
    assert by_name["f104"][2] > 0
