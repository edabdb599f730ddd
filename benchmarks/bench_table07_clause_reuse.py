"""Table VII — the benefit of re-using strengthening clauses.

JA-verification with and without clause re-use on the all-true designs.

Expected shape: re-use wins clearly on designs whose properties share an
inductive invariant (the rings: every mutual-exclusion property needs
the same one-hotness clauses), and is a wash on designs with few or
unrelated properties (the paper's 6s256 exception).
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
        without, t_without = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(
                    clause_reuse=False,
                    per_property_time=PER_PROP_S,
                    design_name=name,
                ),
            )
        )
        with_reuse, t_with = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(
                    clause_reuse=True,
                    per_property_time=PER_PROP_S,
                    design_name=name,
                ),
            )
        )
        rows.append(
            [
                name,
                len(ts.properties),
                len(without.unsolved()),
                cell_time(t_without),
                len(with_reuse.unsolved()),
                cell_time(t_with),
                f"{t_without / max(t_with, 1e-9):.2f}x",
            ]
        )
    publish_table(
        "table07",
        "Table VII: JA-verification with vs without clause re-use",
        [
            "name",
            "#props",
            "no-reuse #unsolved",
            "no-reuse time",
            "reuse #unsolved",
            "reuse time",
            "speedup",
        ],
        rows,
        note="expected: re-use clearly faster on shared-invariant designs",
    )
    return rows


@pytest.mark.benchmark(group="table07")
def test_table07_clause_reuse(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # Everything solved either way on these scaled-down designs.
    assert all(row[2] == 0 and row[4] == 0 for row in rows)
    speedups = {row[0]: float(row[6][:-1]) for row in rows}
    # Ring-heavy designs benefit clearly from re-use.
    assert speedups["t124"] > 1.2
    # Averaged over all designs, re-use wins.
    assert sum(speedups.values()) / len(speedups) > 1.0
