"""Cone-of-influence (COI) reduction.

For a single property, only the latches and inputs in the transitive
fanin of the property literal (through next-state functions) can affect
its truth.  Extracting that sub-design before running an engine is the
classic front-end optimization for separate verification: the paper's
related work ([8], [10]) groups properties by exactly this structure,
and a COI front end removes the per-property whole-design encoding cost
that makes joint verification win on ballast-heavy designs (Table II's
6s403 row — see EXPERIMENTS.md for the ablation).

The reduction is *exact*: the reduced system has the same traces as the
original when projected onto the kept latches and inputs, so verdicts
and counterexamples transfer 1:1 (counterexamples are translated back by
name-preserving input literals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from .aig import AIG, Property, aig_not, aig_var, is_negated


@dataclass
class CoiReduction:
    """A reduced design plus the literal maps to translate results back."""

    aig: AIG
    input_map: dict[int, int]  # original input lit -> reduced input lit
    latch_map: dict[int, int]  # original latch lit -> reduced latch lit
    kept_properties: list[str] = field(default_factory=list)
    # original latch position -> reduced latch position (kept latches only)
    latch_positions: dict[int, int] = field(default_factory=dict)

    def translate_inputs_back(self, frames: Sequence[dict[int, bool]]) -> list[dict[int, bool]]:
        """Map a reduced-design input trace to original-design literals.

        Inputs outside the cone are unconstrained; they default to False
        (any value yields the same property behaviour).
        """
        reverse = {v: k for k, v in self.input_map.items()}
        return [
            {reverse[lit]: value for lit, value in frame.items() if lit in reverse}
            for frame in frames
        ]


def remap_clause(clause: Iterable[int], positions: dict[int, int]) -> tuple | None:
    """A clause over 1-based signed latch indices carried through ``positions``.

    ``None`` when a literal names a latch the map does not cover (or is
    no latch index at all): the clause has no meaning on the other side.
    """
    out = []
    for lit in clause:
        new_pos = positions.get(abs(lit) - 1) if isinstance(lit, int) else None
        if new_pos is None:
            return None
        out.append(new_pos + 1 if lit > 0 else -(new_pos + 1))
    return tuple(sorted(out, key=abs))


def reduce_to_cone(aig: AIG, prop_names: Iterable[str]) -> CoiReduction:
    """Extract the sub-design feeding the named properties.

    Keeps exactly the latches in the transitive fanin (through next-state
    functions) of the properties' literals, the inputs those cones read,
    and the AIG constraints (which apply to every state).  Latch names,
    input names and reset values are preserved so clauseDBs built on the
    reduced design remain meaningful.
    """
    wanted = set(prop_names)
    props = [p for p in aig.properties if p.name in wanted]
    missing = wanted - {p.name for p in props}
    if missing:
        raise KeyError(f"unknown properties: {sorted(missing)}")

    roots = [p.lit for p in props] + list(aig.constraints)
    node_set, latch_lits = aig.cone_of_influence(roots)

    reduced = AIG()
    # Deterministic construction order: follow the original ordering.
    input_map: dict[int, int] = {}
    for i, inp in enumerate(aig.inputs):
        if aig_var(inp) in node_set:
            input_map[inp] = reduced.add_input(aig.input_names[i])
    latch_map: dict[int, int] = {}
    latch_positions: dict[int, int] = {}
    kept_latches = []
    for position, latch in enumerate(aig.latches):
        if latch.lit in latch_lits:
            latch_map[latch.lit] = reduced.add_latch(latch.name, init=latch.init)
            latch_positions[position] = len(kept_latches)
            kept_latches.append(latch)

    # Rebuild the combinational logic bottom-up with memoization.
    memo: dict[int, int] = {0: 0}

    def rebuild(lit: int) -> int:
        idx = aig_var(lit)
        if idx not in memo:
            kind = aig.kind(idx)
            if kind == "input":
                memo[idx] = input_map[idx * 2]
            elif kind == "latch":
                memo[idx] = latch_map[idx * 2]
            else:
                _rebuild_cone(idx)
        out = memo[idx]
        return aig_not(out) if is_negated(lit) else out

    def _rebuild_cone(root: int) -> None:
        stack = [root]
        while stack:
            idx = stack[-1]
            if idx in memo:
                stack.pop()
                continue
            kind = aig.kind(idx)
            if kind == "input":
                memo[idx] = input_map[idx * 2]
                stack.pop()
            elif kind == "latch":
                memo[idx] = latch_map[idx * 2]
                stack.pop()
            else:
                left, right = aig.and_fanins(idx)
                pending = [v for v in (aig_var(left), aig_var(right)) if v not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                new_left = memo[aig_var(left)] ^ (1 if is_negated(left) else 0)
                new_right = memo[aig_var(right)] ^ (1 if is_negated(right) else 0)
                memo[idx] = reduced.and_(new_left, new_right)
                stack.pop()

    for latch in kept_latches:
        reduced.set_next(latch_map[latch.lit], rebuild(latch.next))
    for prop in props:
        reduced.add_property(prop.name, rebuild(prop.lit), prop.expected_to_fail)
    for constraint in aig.constraints:
        reduced.add_constraint(rebuild(constraint))

    return CoiReduction(
        aig=reduced,
        input_map=input_map,
        latch_map=latch_map,
        kept_properties=[p.name for p in props],
        latch_positions=latch_positions,
    )


def coi_signature(aig: AIG, prop: Property) -> frozenset:
    """The latch-literal cone of a property (a similarity key for grouping)."""
    _, latches = aig.cone_of_influence([prop.lit])
    return frozenset(latches)


def support_signature(aig: AIG, lit: int) -> frozenset:
    """Latch *and* input literals in the cone of ``lit``.

    Unlike :func:`coi_signature`, primary inputs count: two properties
    can interact purely through a shared input (the paper's Example 1:
    ``P0: req == 1`` constrains the input that drives ``P1``'s counter),
    so input overlap must keep an assumption alive in COI-reduced
    JA-verification.
    """
    nodes, latches = aig.cone_of_influence([lit])
    inputs = {inp for inp in aig.inputs if (inp >> 1) in nodes}
    return frozenset(latches | inputs)
