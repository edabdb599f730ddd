"""``--compare A B``: two ``--out`` files, side by side.

Each file is JSON lines, one record per run.  Runs are grouped by
workload; a side's value of a metric is the median over its runs of
the value each run reported, with the quartiles of those run values.
With one run on a side the quartiles of that run's own passes stand in.

Per workload and end-to-end metric the verdict is

* ``unresolved`` when either side's spread (quartile distance over
  median) is wider than the metric's bound — the runs cannot tell;
* ``worse`` when B's median is worse than A's by more than the bound;
* ``same`` otherwise (B may also be better; a gain is claimed by the
  rule in the choosing-metrics guide, not by this table).

The exact counts of the traced runs must agree between runs of the same
seed on the sequential workloads.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from .metrics import END_TO_END, PER_LAYER, SEQUENTIAL, WORKLOADS


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def side(records: list[dict], metric: str) -> dict | None:
    """Median, quartiles and run count of one metric over a side's runs."""
    entries = [r["metrics"][metric] for r in records if metric in r["metrics"]]
    if not entries:
        return None
    if len(entries) == 1:
        only = entries[0]
        return {"median": only["value"], "q1": only.get("q1", only["value"]),
                "q3": only.get("q3", only["value"]), "n": 1}
    values = [entry["value"] for entry in entries]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, how much worse B is than A as a share of A)``."""
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "same"), worse_by


def compare_files(path_a: str, path_b: str) -> int:
    runs = {"A": defaultdict(list), "B": defaultdict(list)}
    for label, path in (("A", path_a), ("B", path_b)):
        for record in load(path):
            runs[label][(record["workload"], record["traced"])].append(record)
    print(f"A = {path_a}\nB = {path_b}")
    failed = False
    for workload in (w.name for w in WORKLOADS):
        a_runs, b_runs = runs["A"][(workload, False)], runs["B"][(workload, False)]
        if not a_runs or not b_runs:
            continue
        print(f"\n{workload}")
        for metric in END_TO_END:
            a, b = side(a_runs, metric.name), side(b_runs, metric.name)
            if a is None or b is None:
                continue
            word, worse_by = verdict(a, b, metric.better, metric.bound)
            failed |= word == "worse"
            print(
                f"  {metric.name:18s} A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] n={a['n']}"
                f"  B {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']} {metric.unit}"
                f"  B/A {b['median'] / a['median']:.4f} (base A {a['median']:.6g} {metric.unit})"
                f"  spread A {spread(a):.3f} B {spread(b):.3f}"
                f"  worse by {worse_by:+.3f} of bound {metric.bound:.2f}: {word}"
            )
    failed |= compare_counts(runs)
    return 1 if failed else 0


def compare_counts(runs: dict) -> bool:
    """Exact counts of traced runs, per sequential workload and seed."""
    mismatch = False
    exact = [m.name for m in PER_LAYER if m.exact]
    for workload in SEQUENTIAL:
        by_seed: dict = defaultdict(list)
        for label in ("A", "B"):
            for record in runs[label][(workload, True)]:
                by_seed[record["host"]["seed"]].append((label, record))
        for seed, tagged in sorted(by_seed.items()):
            if len(tagged) < 2:
                continue
            differing = [
                name for name in exact
                if len({record["metrics"][name]["value"] for _, record in tagged}) > 1
            ]
            labels = "".join(label for label, _ in tagged)
            if differing:
                mismatch = True
                print(f"\n{workload} seed {seed}: counts differ between traced runs {labels}: {', '.join(differing)}")
            else:
                print(f"\n{workload} seed {seed}: {len(exact)} exact counts equal over traced runs {labels}")
    return mismatch
