"""Ablation — cone-of-influence front end for JA-verification.

The one Table II benchmark where joint verification wins (r403/6s403)
wins because one aggregate run amortizes the whole-design encoding that
separate verification pays per property.  A COI front end removes that
cost: each local proof sees only the target's support-connected cone.
This ablation quantifies it and checks the paper's related-work remark
that structural reductions compose with the semantic JA machinery.
"""

from __future__ import annotations

import pytest

from repro.gen.families import LARGE_DESIGN_NAMES, large_design
from repro.multiprop.ja import ja_verify
from repro.multiprop.joint import joint_verify
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed

JOINT_BUDGET_S = 20.0
JA_PER_PROP_S = 5.0


def build_table():
    rows = []
    for name in LARGE_DESIGN_NAMES:
        ts = TransitionSystem(large_design(name))
        joint, t_joint = timed(
            lambda: joint_verify(
                ts,
                VerificationConfig(total_time=JOINT_BUDGET_S, design_name=name),
            )
        )
        plain, t_plain = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(per_property_time=JA_PER_PROP_S, design_name=name),
            )
        )
        coi, t_coi = timed(
            lambda: ja_verify(
                ts,
                VerificationConfig(
                    per_property_time=JA_PER_PROP_S,
                    coi_reduction=True,
                    design_name=name,
                ),
            )
        )
        assert plain.debugging_set() == coi.debugging_set()
        rows.append(
            [
                name,
                len(ts.properties),
                f"{len(joint.unsolved())}u " + cell_time(t_joint),
                f"{len(plain.unsolved())}u " + cell_time(t_plain),
                f"{len(coi.unsolved())}u " + cell_time(t_coi),
                f"{t_plain / max(t_coi, 1e-9):.1f}x",
            ]
        )
    publish_table(
        "ablation_coi",
        "Ablation: cone-of-influence front end for JA-verification (Table II designs)",
        ["name", "#props", "joint", "JA", "JA+COI", "COI speedup"],
        rows,
        note="identical debugging sets; COI removes the whole-design encoding cost",
    )
    return rows


@pytest.mark.benchmark(group="ablation-coi")
def test_ablation_coi(benchmark):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    def seconds(cell):
        return float(cell.split()[1].replace(",", ""))

    by_name = {row[0]: row for row in rows}
    # On the ballast-heavy r403 the COI front end must beat plain JA by a
    # wide margin and close the gap to joint verification.
    assert float(by_name["r403"][5][:-1]) > 3.0
    assert seconds(by_name["r403"][4]) <= seconds(by_name["r403"][2])
    # COI never slows JA down by more than noise on the other designs.
    for row in rows:
        assert seconds(row[4]) <= 2 * seconds(row[3]) + 0.25, row
