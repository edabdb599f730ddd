"""Ablation — property ordering, clustering, sweeping, CTG.

Four knobs around the core JA loop, measured on representative designs:

* ordering (footnote 1 / Sec. 9-C): "verify easier properties first to
  accumulate strengthening clauses" — design order vs cone-size order;
* structural clustering (related work [8], [10]) vs flat methods;
* simulation sweeping as a pre-pass;
* CTG-aware generalization inside IC3.
"""

from __future__ import annotations

import pytest

from repro.gen.families import ALL_TRUE_SPECS, FAILING_SPECS
from repro.multiprop.clustering import clustered_verify
from repro.multiprop.ja import ja_verify
from repro.multiprop.ordering import by_cone_size, design_order, shuffled
from repro.multiprop.sweep import sweep
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

from benchmarks._harness import cell_time, publish_table, timed


def build_ordering_table():
    rows = []
    for name in ("t124", "t407", "f335"):
        spec = ALL_TRUE_SPECS.get(name) or FAILING_SPECS[name]
        ts = TransitionSystem(spec.build())
        for label, order in (
            ("design", design_order(ts)),
            ("cone-size", by_cone_size(ts)),
            ("shuffled:1", shuffled(ts, 1)),
        ):
            report, elapsed = timed(
                lambda order=order: ja_verify(
                    ts, VerificationConfig(order=list(order), design_name=name)
                )
            )
            rows.append(
                [name, label, len(report.unsolved()), cell_time(elapsed)]
            )
    publish_table(
        "ablation_ordering",
        "Ablation: property ordering in JA-verification (Sec. 9-C)",
        ["design", "order", "#unsolved", "time"],
        rows,
    )
    return rows


def build_methods_table():
    rows = []
    for name in ("f207", "t124"):
        spec = FAILING_SPECS.get(name) or ALL_TRUE_SPECS[name]
        ts = TransitionSystem(spec.build())
        ja, t_ja = timed(lambda: ja_verify(ts, VerificationConfig(design_name=name)))
        ja_ctg, t_ctg = timed(
            lambda: ja_verify(ts, VerificationConfig(ctg=True, design_name=name))
        )
        clustered, t_cl = timed(
            lambda: clustered_verify(
                ts, VerificationConfig(cluster_inner="joint", design_name=name)
            )
        )
        swept, t_sw = timed(lambda: sweep(ts, runs=32, depth=32, seed=0))
        rows.append(
            [
                name,
                cell_time(t_ja),
                cell_time(t_ctg),
                cell_time(t_cl),
                f"{cell_time(t_sw)} ({len(swept.failed)} hit)",
            ]
        )
    publish_table(
        "ablation_methods",
        "Ablation: JA vs JA+CTG vs clustered-joint vs simulation sweep",
        ["design", "JA", "JA+CTG", "clustered", "sweep (witnesses)"],
        rows,
        note="sweep is a pre-pass: it classifies shallow failures without SAT",
    )
    return rows


@pytest.mark.benchmark(group="ablation-ordering")
def test_ablation_ordering(benchmark):
    rows = benchmark.pedantic(build_ordering_table, rounds=1, iterations=1)
    # All orders solve everything on these designs (order affects time only).
    assert all(row[2] == 0 for row in rows)


@pytest.mark.benchmark(group="ablation-methods")
def test_ablation_methods(benchmark):
    rows = benchmark.pedantic(build_methods_table, rounds=1, iterations=1)
    assert len(rows) == 2
