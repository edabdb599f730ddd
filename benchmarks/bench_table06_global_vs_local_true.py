"""Table VI — separate verification with global vs local proofs on the
all-true designs (both with clause re-use).

Expected shape: comparable performance — local proofs can't save deep
counterexample work here because there is none; the benefit shows only
in slightly smaller per-property effort.
"""

from __future__ import annotations

import pytest

from repro.gen.families import all_true_designs
from repro.multiprop.ja import ja_verify, separate_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed

PER_PROP_S = 10.0


def build_table():
    rows = []
    for name, aig in all_true_designs().items():
        ts = TransitionSystem(aig)
        glob, t_glob = timed(
            lambda: separate_verify(
                ts,
                VerificationConfig(per_property_time=PER_PROP_S, design_name=name),
            )
        )
        local, t_local = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(per_property_time=PER_PROP_S, design_name=name),
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
        "table06",
        "Table VI: separate verification, global vs local proofs (all-true designs)",
        [
            "name",
            "#props",
            "global #unsolved",
            "global time",
            "local #unsolved",
            "local time",
        ],
        rows,
        note="expected: comparable times (local helps mostly on failing designs)",
    )
    return rows


@pytest.mark.benchmark(group="table06")
def test_table06_global_vs_local_true(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    def seconds(cell):
        return float(cell.split()[0].replace(",", ""))

    assert all(row[2] == 0 and row[4] == 0 for row in rows)
    # Comparable: within a factor 5 (plus a floor for timer noise).
    for row in rows:
        slow = max(seconds(row[3]), seconds(row[5]))
        fast = min(seconds(row[3]), seconds(row[5]))
        assert slow <= max(5 * fast, 0.5), row
