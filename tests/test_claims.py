"""The paper's tables as claims, checked with deterministic work counters.

Each :class:`Row` names a table of the paper, the designs it runs on,
the two runs it compares, the counter it reads off both, and the claim:
in words, and as a predicate over the per-design (run a, run b) pairs.
The test asserts every claim's verdict; the same rows render
``EXPERIMENTS.md``, which CI regenerates and diffs:

    PYTHONPATH=src python tests/test_claims.py > EXPERIMENTS.md

No row reads a clock.  SAT ``solve`` calls ("queries") and conflicts
are tallied by a counting backend, the ``cdcl`` search unchanged, which
is registered only while this module runs; every other counter is read
off the reports.  A claim the scaled-down designs do not bear out is a
row with ``reproduced=False``: rendered "not reproduced" next to its
numbers, and asserted to stay that way until the numbers change.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import pytest

from repro.config import VerificationConfig
from repro.engines.bmc import bmc_check
from repro.engines.ic3 import IC3Options, ic3_check
from repro.engines.result import ResourceBudget
from repro.gen import (
    ALL_TRUE_SPECS,
    FAILING_SPECS,
    LARGE_DESIGN_NAMES,
    buggy_counter,
    huge_design,
    large_design,
)
from repro.multiprop import (
    JAVerifier,
    MultiPropReport,
    clustered_verify,
    joint_verify,
    sweep,
)
from repro.multiprop.local import outcome_of
from repro.sat import Solver, register_backend, unregister_backend
from repro.ts.system import TransitionSystem

COUNTING = "claims-counting"
#: A global run may spend this many times the conflicts JA spends on
#: the same design, unless its config sets ``total_conflicts`` itself;
#: an unsolved global property needs more than that.
BUDGET_FACTOR = 10

_tally: Counter = Counter()


class _Counting(Solver):
    """cdcl, tallying every instance's solve calls and conflicts."""

    def solve(self, assumptions=()):
        before = self.counters["conflicts"]
        status = super().solve(assumptions)
        _tally["queries"] += 1
        _tally["conflicts"] += self.counters["conflicts"] - before
        return status


FAILING = tuple(FAILING_SPECS)
ALL_TRUE = tuple(ALL_TRUE_SPECS)
COUNTERS = ("counter4", "counter6", "counter8", "counter10")
#: Table X samples single properties of the 6s289 stand-in: "huge/P"
#: runs property P alone, so no proof borrows another's clauses.
X_SAMPLE = tuple(f"huge/c0_C{i}" for i in (1, 5, 10, 16, 24, 32, 40, 47))

#: run name -> (driver, VerificationConfig fields)
RUNS = {
    "ja": ("ja", {}),
    "no-reuse": ("ja", {"clause_reuse": False}),
    "respect": ("ja", {"respect_constraints_in_lifting": True}),
    "coi": ("ja", {"coi_reduction": True}),
    "ctg": ("ja", {"ctg": True}),
    "cone-order": ("ja", {"order": "cone"}),
    "shuffled": ("ja", {"order": "shuffled:1"}),
    "local": ("ja", {"clause_reuse": False}),
    "separate": ("separate", {}),
    "unbudgeted": ("separate", {"total_conflicts": None}),
    "global": ("separate", {"clause_reuse": False}),
    "joint": ("joint", {}),
    "clustered": ("clustered", {}),
    "bmc": ("bmc", {}),
    "pdr": ("pdr", {}),
    "sweep": ("sweep", {}),
}
GLOBAL_DRIVERS = {"separate", "joint", "clustered", "bmc", "pdr"}


@dataclass(frozen=True)
class Counts:
    """The deterministic counters of one run on one design."""

    queries: int = 0
    conflicts: int = 0
    unsolved: int = 0
    false: int = 0
    debugging: tuple[str, ...] = ()
    frames: int = 0
    cex_depth: int = 0
    spurious: int = 0
    insertions: int = 0


LABELS = {
    "queries": "SAT queries",
    "conflicts": "conflicts",
    "unsolved": "#unsolved",
    "false": "#false",
    "debugging": "debugging set",
    "frames": "#frames",
    "cex_depth": "CEX depth",
    "spurious": "spurious re-runs",
    "insertions": "clause insertions",
}


def _design(name: str) -> TransitionSystem:
    """A fresh system per run: ``joint`` grows the AIG it is given."""
    if name in FAILING_SPECS:
        aig = FAILING_SPECS[name].build()
    elif name in ALL_TRUE_SPECS:
        aig = ALL_TRUE_SPECS[name].build()
    elif name.startswith("counter"):
        aig = buggy_counter(int(name[len("counter"):]))
    elif name == "huge":
        aig = huge_design(chain_depth=48)
    else:
        aig = large_design(name)
    return TransitionSystem(aig)


@functools.cache
def measure(design: str, run: str) -> Counts:
    base, _, prop = design.partition("/")
    driver, fields = RUNS[run]
    if driver in GLOBAL_DRIVERS:
        budget = BUDGET_FACTOR * measure(base, "ja").conflicts
        fields = {"total_conflicts": budget, **fields}
    if prop:
        fields = {**fields, "order": [prop]}
    ts = _design(base)
    config = VerificationConfig(solver_backend=COUNTING, design_name=base, **fields)
    results = {}
    _tally.clear()
    if driver in ("ja", "separate"):
        verifier = JAVerifier(ts, config, local=driver == "ja")
        report = verifier.run()
        results = verifier.results
    elif driver == "joint":
        report = joint_verify(ts, config)
    elif driver == "clustered":
        report = clustered_verify(ts, config)
    elif driver == "sweep":
        return Counts(false=len(sweep(ts, runs=32, depth=32, seed=0).failed))
    else:  # Table I: one global engine run on the deep property P1
        engine_budget = ResourceBudget(conflict_limit=config.total_conflicts)
        if driver == "bmc":
            result = bmc_check(
                ts, "P1", max_depth=2000, budget=engine_budget, solver_backend=COUNTING
            )
        else:
            options = IC3Options(
                max_frames=2000, budget=engine_budget, solver_backend=COUNTING
            )
            result = ic3_check(ts, "P1", options)
        report = MultiPropReport(method=driver, design=base)
        report.outcomes["P1"] = outcome_of(ts, result, local=False)
    outcomes = report.outcomes.values()
    return Counts(
        queries=_tally["queries"],
        conflicts=_tally["conflicts"],
        unsolved=len(report.unsolved()),
        false=len(report.false_props()),
        debugging=tuple(report.debugging_set()),
        frames=sum(o.frames for o in outcomes),
        cex_depth=max((o.cex_depth or 0 for o in outcomes), default=0),
        spurious=int(report.stats.get("spurious_reruns", 0)),
        insertions=sum(r.stats.get("clause_insertions", 0) for r in results.values()),
    )


@dataclass(frozen=True)
class Row:
    """One claim of one paper table, over two runs on some designs."""

    table: str
    claim: str
    designs: tuple[str, ...]
    runs: tuple[str, str]
    #: A :class:`Counts` field read off both runs, or "x/y": x off the
    #: first run, y off the second.
    counter: str
    holds: Callable[[list[tuple]], bool]
    reproduced: bool = True

    def columns(self) -> list[tuple[str, str]]:
        first, _, second = self.counter.partition("/")
        return [(self.runs[0], first), (self.runs[1], second or first)]

    def pairs(self) -> list[tuple]:
        (a, x), (b, y) = self.columns()
        return [
            (getattr(measure(d, a), x), getattr(measure(d, b), y))
            for d in self.designs
        ]

    def verdict(self) -> bool:
        return bool(self.holds(self.pairs()))


def each(test: Callable) -> Callable[[list[tuple]], bool]:
    return lambda pairs: all(test(a, b) for a, b in pairs)


def within(factor: int) -> Callable[[list[tuple]], bool]:
    return each(lambda a, b: max(a, b) <= factor * max(min(a, b), 1))


def doubling(pairs: list[tuple]) -> bool:
    """The second run's depths, where it finished, more than double,
    at least once."""
    depths = [b for _, b in pairs if b]
    steps = list(zip(depths, depths[1:]))
    return bool(steps) and all(later > 2 * (earlier - 2) for earlier, later in steps)


def unsolved_by_neither(pairs: list[tuple]) -> bool:
    return all(a == 0 and b == 0 for a, b in pairs)


TITLES = {
    "I": "Table I: Example 1's counter, global vs local proving",
    "II": "Table II: designs with many properties, joint vs JA",
    "III": "Table III: designs with failing properties, joint vs JA",
    "IV": "Table IV: all properties true, joint vs JA",
    "V": "Table V: separate verification on failing designs, global vs local proofs",
    "VI": "Table VI: separate verification on all-true designs, global vs local proofs",
    "VII": "Table VII: JA with vs without clause re-use",
    "VIII": "Table VIII: lifting that respects vs ignores the constraints, failing designs",
    "IX": "Table IX: lifting that respects vs ignores the constraints, all-true designs",
    "X": "Table X: single properties of the 6s289 stand-in, local vs global",
    "COI": "Ablation: a cone-of-influence front end for JA",
    "order": "Ablation: property order (Sec. 9-C, footnote 1)",
    "methods": "Ablation: CTG, clustering and simulation sweeping around JA",
}

ROWS = (
    Row("I", "Local proving decides both properties at every width",
        COUNTERS, ("ja", "pdr"), "unsolved", each(lambda a, b: a == 0)),
    Row("I", "JA's counterexamples stay at depth 1; P1's global one, found by PDR "
        "at 4 and 6 bits, more than doubles in depth from one width to the next",
        COUNTERS, ("ja", "pdr"), "cex_depth",
        lambda pairs: all(a == 1 for a, _ in pairs) and doubling(pairs)),
    Row("I", "On 4 bits BMC finds a counterexample as deep as PDR's",
        COUNTERS[:1], ("bmc", "pdr"), "cex_depth", each(lambda a, b: a == b > 0)),
    Row("I", "BMC exceeds the global budget from 6 bits on, PDR from 8 bits on",
        COUNTERS, ("bmc", "pdr"), "unsolved",
        lambda pairs: pairs == [(0, 0), (1, 0), (1, 1), (1, 1)]),
    Row("II", "JA solves every property",
        LARGE_DESIGN_NAMES, ("ja", "joint"), "unsolved", each(lambda a, b: a == 0)),
    Row("II", "Joint leaves properties unsolved on the failing heterogeneous designs",
        ("r400", "r355"), ("ja", "joint"), "unsolved", each(lambda a, b: b > 0)),
    Row("II", "JA makes fewer SAT queries than joint on the failing heterogeneous designs",
        ("r400", "r355"), ("ja", "joint"), "queries", each(lambda a, b: a < b)),
    Row("II", "r403 is the exception where joint wins: fewer SAT queries than JA",
        ("r403",), ("ja", "joint"), "queries", each(lambda a, b: b < a)),
    Row("III", "JA solves every property",
        FAILING, ("ja", "joint"), "unsolved", each(lambda a, b: a == 0)),
    Row("III", "JA makes fewer SAT queries than joint on every failing design",
        FAILING, ("ja", "joint"), "queries", each(lambda a, b: a < b)),
    Row("III", "The debugging set is no larger than joint's set of false properties",
        FAILING, ("ja", "joint"), "debugging/false", each(lambda a, b: len(a) <= max(b, 1))),
    Row("III", "... and strictly smaller on the dependent-heavy designs",
        ("f254", "f380", "f207"), ("ja", "joint"), "debugging/false",
        each(lambda a, b: len(a) < b)),
    Row("IV", "Both methods prove every property",
        ALL_TRUE, ("ja", "joint"), "unsolved", unsolved_by_neither),
    Row("IV", "The methods stay within 10x of each other in SAT queries",
        ALL_TRUE, ("ja", "joint"), "queries", within(10)),
    Row("IV", "Joint is slightly ahead on most designs",
        ALL_TRUE, ("ja", "joint"), "queries",
        lambda pairs: 2 * sum(b < a for a, b in pairs) > len(pairs), reproduced=False),
    Row("V", "Local proofs solve every property",
        FAILING, ("ja", "separate"), "unsolved", each(lambda a, b: a == 0)),
    Row("V", "Global proofs cost more SAT queries than local ones on every failing design",
        FAILING, ("ja", "separate"), "queries", each(lambda a, b: a < b)),
    Row("V", "In total, global proving costs more than 3x local proving",
        FAILING, ("ja", "separate"), "queries",
        lambda pairs: sum(b for _, b in pairs) > 3 * sum(a for a, _ in pairs)),
    Row("V", "Global proofs leave f380 unsolved within the global budget",
        ("f380",), ("ja", "separate"), "unsolved", each(lambda a, b: b > 0)),
    Row("V", "Global proofs leave f104 unsolved even without a conflict budget",
        ("f104",), ("separate", "unbudgeted"), "unsolved", each(lambda a, b: b > 0),
        reproduced=False),
    Row("VI", "Both prove every property",
        ALL_TRUE, ("ja", "separate"), "unsolved", unsolved_by_neither),
    Row("VI", "Comparable: within 5x of each other in SAT queries",
        ALL_TRUE, ("ja", "separate"), "queries", within(5)),
    Row("VII", "Both prove every property",
        ALL_TRUE, ("ja", "no-reuse"), "unsolved", unsolved_by_neither),
    Row("VII", "Re-use never costs SAT queries",
        ALL_TRUE, ("ja", "no-reuse"), "queries", each(lambda a, b: a <= b)),
    Row("VII", "Re-use saves more than 1.2x on the shared-invariant designs",
        ("t124", "t407", "t275"), ("ja", "no-reuse"), "queries",
        each(lambda a, b: b > 1.2 * a)),
    Row("VII", "Re-use also cuts the frames the proofs open",
        ("t124", "t407", "t275"), ("ja", "no-reuse"), "frames", each(lambda a, b: a < b)),
    Row("VIII", "Both lifting modes give the same debugging set",
        FAILING, ("respect", "ja"), "debugging", each(lambda a, b: a == b)),
    Row("VIII", "Both solve every property",
        FAILING, ("respect", "ja"), "unsolved", unsolved_by_neither),
    Row("VIII", "Comparable: within 6x of each other in SAT queries",
        FAILING, ("respect", "ja"), "queries", within(6)),
    Row("VIII", "Ignoring the constraints costs at most one spurious re-run per design",
        FAILING, ("respect", "ja"), "spurious", each(lambda a, b: b <= 1)),
    Row("IX", "Both solve every property",
        ALL_TRUE, ("respect", "ja"), "unsolved", unsolved_by_neither),
    Row("IX", "Ignoring the constraints needs no more SAT queries on at least half the designs",
        ALL_TRUE, ("respect", "ja"), "queries",
        lambda pairs: 2 * sum(b <= a for a, b in pairs) >= len(pairs)),
    Row("X", "Both prove every sampled property",
        X_SAMPLE, ("local", "global"), "unsolved", unsolved_by_neither),
    Row("X", "Local proofs are flat: one frame count, at most 3, at every position",
        X_SAMPLE, ("local", "global"), "frames",
        lambda pairs: len({a for a, _ in pairs}) == 1 and pairs[0][0] <= 3),
    Row("X", "Local work stays in a band: the costliest proof is within 10x of the cheapest",
        X_SAMPLE, ("local", "global"), "queries",
        lambda pairs: max(a for a, _ in pairs) <= 10 * min(a for a, _ in pairs)),
    Row("X", "Global work grows along the chain: the deepest costs > 2x the shallowest",
        X_SAMPLE, ("local", "global"), "queries",
        lambda pairs: pairs[-1][1] > 2 * pairs[0][1]),
    Row("X", "At the deepest position the global proof costs > 4x the local one",
        X_SAMPLE[-1:], ("local", "global"), "queries", each(lambda a, b: b > 4 * a)),
    Row("COI", "COI keeps the debugging set",
        LARGE_DESIGN_NAMES, ("ja", "coi"), "debugging", each(lambda a, b: a == b)),
    Row("COI", "COI cuts r403's clause insertions more than 3x",
        ("r403",), ("ja", "coi"), "insertions", each(lambda a, b: a > 3 * b)),
    Row("COI", "COI never costs more than 2x plain JA's SAT queries",
        LARGE_DESIGN_NAMES, ("ja", "coi"), "queries", each(lambda a, b: b <= 2 * a)),
    Row("COI", "With COI, JA catches up with joint on r403",
        ("r403",), ("joint", "coi"), "queries", each(lambda a, b: b <= a), reproduced=False),
    Row("order", "Every order solves every property",
        ("t407", "f335"), ("cone-order", "shuffled"), "unsolved", unsolved_by_neither),
    Row("order", "Easier properties first (cone-size order) needs no more SAT queries",
        ("t407", "f335"), ("ja", "cone-order"), "queries", each(lambda a, b: b <= a)),
    Row("methods", "CTG-aware generalisation keeps the debugging set",
        ("f207",), ("ja", "ctg"), "debugging", each(lambda a, b: a == b)),
    Row("methods", "JA makes fewer SAT queries than clustered joint verification",
        ("f207",), ("ja", "clustered"), "queries", each(lambda a, b: a < b)),
    Row("methods", "The simulation sweep hits failures, without SAT, where JA finds some",
        ("f207", "t124"), ("sweep", "ja"), "false", each(lambda a, b: (a > 0) == (b > 0))),
)


def row_ids() -> list[str]:
    seen: Counter = Counter()
    ids = []
    for row in ROWS:
        seen[row.table] += 1
        ids.append(f"{row.table}-{seen[row.table]}")
    return ids


def _paper_name(design: str) -> str:
    if design.startswith("counter"):
        return f"Example 1, {design[len('counter'):]} bits"
    if design == "huge":
        return "6s289 (Table X)"
    return "bob12m09" if design == "tbob" else f"6s{design[1:]}"


def _cell(value: object) -> str:
    if isinstance(value, tuple):
        return " ".join(value) or "-"
    return f"{value:,}"


def _markdown(header: list[str], body: list[list[str]]) -> list[str]:
    return [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
        *("| " + " | ".join(line) + " |" for line in body),
    ]


def render() -> str:
    lines = [
        "# EXPERIMENTS",
        "",
        "The paper's tables as claims on scaled-down stand-in designs,",
        "checked with deterministic work counters, never a clock.",
        "`tests/test_claims.py` defines the rows; regenerate this file with",
        "",
        "    PYTHONPATH=src python tests/test_claims.py > EXPERIMENTS.md",
        "",
        "SAT queries and conflicts are counted on the `cdcl` search. A global",
        "run (joint, separate, clustered joint, and Table I's BMC and PDR)",
        f"gets a conflict budget of {BUDGET_FACTOR}x the conflicts JA spends on",
        "the same design: a property it leaves unsolved needs more than that.",
        "Clustered joint draws every cluster from that one budget. JA, every",
        "ablation of it, Table X's local proofs and the `unbudgeted` run",
        "have no budget.",
        "`bmc` and `pdr` check P1 alone to depth 2,000; `sweep` simulates 32",
        "random runs of 32 steps (seed 0).",
        "",
        "## Runs",
        "",
        *_markdown(
            ["run", "driver", "config"],
            [[run, driver, ", ".join(f"{k}={v}" for k, v in fields.items()) or "defaults"]
             for run, (driver, fields) in RUNS.items()],
        ),
        "",
        "## Designs",
        "",
    ]
    designs = dict.fromkeys(d.partition("/")[0] for row in ROWS for d in row.designs)
    body = []
    for name in designs:
        ts = _design(name)
        body.append([name, _paper_name(name), str(len(ts.latches)), str(len(ts.properties))])
    lines += _markdown(["stand-in", "paper benchmark", "#latches", "#properties"], body)
    ids = row_ids()
    for table, title in TITLES.items():
        rows = [(i, row) for i, row in zip(ids, ROWS) if row.table == table]
        columns = list(dict.fromkeys(c for _, row in rows for c in row.columns()))
        header = ["design"] + [f"{run} {LABELS[counter]}" for run, counter in columns]
        body = []
        for design in dict.fromkeys(d for _, row in rows for d in row.designs):
            used = {c for _, row in rows if design in row.designs for c in row.columns()}
            body.append(
                [design.rpartition("/")[2]]
                + [_cell(getattr(measure(design, r), c)) if (r, c) in used else ""
                   for r, c in columns]
            )
        lines += ["", f"## {title}", "", *_markdown(header, body), ""]
        for i, row in rows:
            verdict = "reproduced" if row.verdict() else "not reproduced"
            lines.append(f"- {i} **{verdict}**: {row.claim}.")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module", autouse=True)
def _counting_backend():
    register_backend(COUNTING)(_Counting)
    yield
    unregister_backend(COUNTING)


@pytest.mark.parametrize("row", ROWS, ids=row_ids())
def test_claim(row):
    assert row.verdict() is row.reproduced, (row.claim, row.designs, row.pairs())


if __name__ == "__main__":
    register_backend(COUNTING)(_Counting)
    sys.stdout.write(render())
