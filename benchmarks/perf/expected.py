"""Ground truth for every design the benchmark uses, and the checker.

``expected.json`` holds the local and global verdict of every property.
They are derived by hand from the generator's structure
(:class:`repro.gen.DesignSpec`): in a guarded slice the guard fails
locally and globally, every dependent holds locally (assuming the guard
pins the counter) and fails globally, and the saturating shadow counter
holds; ring, chain, filler and shared-invariant properties hold.  Slices
have disjoint cones and every slice can stay in states where all its
properties hold, so a property's verdict in the design is its verdict
in its slice.  ``regenerate`` confirms each slice against explicit-state
:class:`~repro.ts.ProjectedReachability` wherever the state space is
small enough and records which slices it confirmed.

At run time :func:`check_report` compares every verdict the program
returns with this file and replays every counterexample it is given
through :class:`repro.circuit.Simulator`.  A verdict is never checked
against the program's own output.
"""

from __future__ import annotations

import json
import os

from repro.circuit import Simulator
from repro.circuit.aig import AIG
from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS, DesignSpec
from repro.gen.blocks import (
    good_chain_slice,
    guarded_counter_slice,
    hold_slice,
    shared_invariant_slice,
    token_ring_slice,
)
from repro.ts import ProjectedReachability, TransitionSystem

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

SPECS: dict[str, DesignSpec] = {**FAILING_SPECS, **ALL_TRUE_SPECS}

#: The paper's Table III shape: debugging sets far smaller than the
#: sets of globally false properties.
DEBUG_SET_SIZES = {
    "f104": 1, "f260": 1, "f258": 1, "f175": 2,
    "f207": 2, "f254": 1, "f335": 10, "f380": 3,
}

#: Largest ``latches + inputs`` a slice may have to be enumerated.
_CONFIRM_BITS = 16

HOLDS, FAILS = "holds", "fails"


def _slices(spec: DesignSpec):
    """``(label, builder, verdicts)`` per slice, in ``DesignSpec.build`` order.

    ``verdicts`` maps property name to ``(local, global)``.
    """
    for i, (bits, depth, values) in enumerate(spec.guarded):
        prefix = f"s{i}"
        verdicts = {f"{prefix}_G": (FAILS, FAILS)}
        for j in range(len(values)):
            verdicts[f"{prefix}_D{j}"] = (HOLDS, FAILS)
        verdicts[f"{prefix}_T"] = (HOLDS, HOLDS)
        yield (
            prefix,
            lambda aig, p=prefix, b=bits, d=depth, v=values: guarded_counter_slice(aig, p, b, d, v),
            verdicts,
        )
    for i, size in enumerate(spec.rings):
        prefix = f"r{i}"
        yield (
            prefix,
            lambda aig, p=prefix, s=size: token_ring_slice(aig, p, s),
            {f"{prefix}_X{k}": (HOLDS, HOLDS) for k in range(size)},
        )
    for i, (depth, expose) in enumerate(spec.chains):
        prefix = f"c{i}"
        yield (
            prefix,
            lambda aig, p=prefix, d=depth, e=expose: good_chain_slice(aig, p, d, e),
            {f"{prefix}_C{k}": (HOLDS, HOLDS) for k in range(0, depth, expose)},
        )
    if spec.filler:
        yield (
            "z",
            lambda aig, n=spec.filler: hold_slice(aig, "z", n),
            {f"z_Z{k}": (HOLDS, HOLDS) for k in range(spec.filler)},
        )
    for i, (mode_size, n_props) in enumerate(spec.shared):
        prefix = f"v{i}"
        yield (
            prefix,
            lambda aig, p=prefix, m=mode_size, n=n_props: shared_invariant_slice(aig, p, m, n),
            {f"{prefix}_S{k}": (HOLDS, HOLDS) for k in range(n_props)},
        )


def derive(spec: DesignSpec) -> dict[str, tuple[str, str]]:
    """Hand-derived ``property -> (local, global)`` for one design."""
    verdicts: dict[str, tuple[str, str]] = {}
    for _, _, slice_verdicts in _slices(spec):
        verdicts.update(slice_verdicts)
    return verdicts


def confirm(spec: DesignSpec) -> list[str]:
    """Slices whose derivation explicit-state reachability agrees with."""
    confirmed = []
    for label, build, verdicts in _slices(spec):
        aig = AIG()
        build(aig)
        if len(aig.latches) + len(aig.inputs) > _CONFIRM_BITS:
            continue
        truth = ProjectedReachability(TransitionSystem(aig))
        for name, (local, global_) in verdicts.items():
            got = (
                FAILS if truth.fails_locally(name) else HOLDS,
                FAILS if truth.fails_globally(name) else HOLDS,
            )
            if got != (local, global_):
                raise AssertionError(
                    f"{spec.name}/{name}: derived {(local, global_)}, enumerated {got}"
                )
        confirmed.append(label)
    return confirmed


def regenerate(path: str = EXPECTED_PATH) -> dict:
    """Rebuild ``expected.json`` (slow: enumerates every small slice)."""
    designs = {}
    for name, spec in SPECS.items():
        verdicts = derive(spec)
        built = [p.name for p in spec.build().properties]
        if sorted(built) != sorted(verdicts):
            raise AssertionError(f"{name}: derived names differ from the built design")
        designs[name] = {
            "properties": {p: list(verdicts[p]) for p in built},
            "debugging_set": sorted(p for p, v in verdicts.items() if v[0] == FAILS),
            "globally_false": sorted(p for p, v in verdicts.items() if v[1] == FAILS),
            "confirmed_slices": confirm(spec),
        }
    payload = {
        "note": "property -> [local verdict, global verdict]; see expected.py",
        "designs": designs,
    }
    # One design per line keeps the file diffable without being huge.
    rows = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
        for name, entry in designs.items()
    )
    with open(path, "w") as f:
        f.write(
            f'{{\n "note": {json.dumps(payload["note"])},\n "designs": {{\n{rows}\n }}\n}}\n'
        )
    return payload


def load(path: str = EXPECTED_PATH) -> dict:
    with open(path) as f:
        return json.load(f)["designs"]


# ----------------------------------------------------------------------
# Checker
# ----------------------------------------------------------------------
def status_name(status) -> str:
    return getattr(status, "value", status)


def check_report(expected: dict, design: str, aig, report, scope: str) -> list[str]:
    """Misses of one report against ``expected`` (empty when all agree).

    ``scope`` is ``"local"`` for ja / parallel-ja / portfolio verdicts
    and ``"global"`` for joint / separate.  One message per property
    that is missing, UNKNOWN, differs, or whose counterexample does not
    replay.
    """
    column = 0 if scope == "local" else 1
    truth = expected[design]["properties"]
    misses = []
    for name, verdict in truth.items():
        outcome = report.outcomes.get(name)
        if outcome is None:
            misses.append(f"{design}/{name}: no verdict")
            continue
        got = status_name(outcome.status)
        if got != verdict[column]:
            misses.append(f"{design}/{name}: {scope} verdict {got}, expected {verdict[column]}")
        elif got == FAILS and outcome.cex is not None and not _replays(aig, name, outcome.cex):
            misses.append(f"{design}/{name}: counterexample does not replay")
    extra = set(report.outcomes) - set(truth)
    misses.extend(f"{design}/{name}: unexpected property" for name in sorted(extra))
    return misses


def _replays(aig, name: str, cex) -> bool:
    prop = next(p for p in aig.properties if p.name == name)
    failed_at = Simulator(aig).check_property_failure(cex.inputs, prop.lit, cex.uninit)
    return failed_at == len(cex.inputs) - 1


def check_debugging_set(expected: dict, design: str, report) -> list[str]:
    """The paper's qualitative result for one locally verified design."""
    got = report.debugging_set()
    misses = []
    if got != expected[design]["debugging_set"]:
        misses.append(f"{design}: debugging set {got}, expected {expected[design]['debugging_set']}")
    if design in DEBUG_SET_SIZES and len(got) != DEBUG_SET_SIZES[design]:
        misses.append(f"{design}: debugging set size {len(got)}, paper shape {DEBUG_SET_SIZES[design]}")
    return misses


def check_debug_subset_of_false(expected: dict, design: str, report) -> list[str]:
    """Each debugging set is a subset of what a global method finds false."""
    false_set = set(report.false_props())
    missing = set(expected[design]["debugging_set"]) - false_set
    return [f"{design}: debugging-set member {m} not in the global false set" for m in sorted(missing)]


if __name__ == "__main__":
    payload = regenerate()
    for design, entry in payload["designs"].items():
        print(design, len(entry["properties"]), "properties; confirmed", entry["confirmed_slices"])
