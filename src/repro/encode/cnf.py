"""A lightweight CNF container, and the frozen block it turns into.

:class:`CnfBuilder` is a recording clause sink: it hands out fresh
variables and keeps every clause, as signed DIMACS literals, in the
order it was added.  :meth:`CnfBuilder.freeze` turns the recording into
a :class:`CnfBlock` — the same clauses over variables ``1..num_vars``,
normalised once, that can then be appended to any number of sinks at
whatever variable base each sink has reached.  This is how a design's
transition relation is Tseitin-encoded once and loaded many times (see
:meth:`repro.ts.system.TransitionSystem.encode_step`); a
:class:`ConeIndex` cuts that one block down to the cone a query reads
(:meth:`repro.ts.system.TransitionSystem.encode_cone`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..sat.types import to_dimacs


@dataclass(frozen=True)
class CnfBlock:
    """Clauses over a private range of variables, ready to load anywhere.

    ``clauses`` are in the solver's internal literal form
    (:mod:`repro.sat.types`: ``2*v`` / ``2*v + 1`` over 0-based ``v <
    num_vars``), each sorted ascending without duplicates and never
    tautological — what ``Solver.add_clause`` computes per call, done
    once here.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def load(self, sink) -> int:
        """Append the block to ``sink``; returns the variable base.

        Block variable ``v`` (1-based) becomes sink variable ``base +
        v``.  A sink with an ``add_block`` method (the bulk entry point
        of :class:`repro.sat.backend.SatBackend`) takes the block in one
        call; any other ``new_var``/``add_clause`` sink is fed the same
        variables and clauses one at a time.
        """
        bulk = getattr(sink, "add_block", None)
        if bulk is not None:
            return bulk(self.num_vars, self.clauses)
        fresh = [sink.new_var() for _ in range(self.num_vars)]
        base = fresh[0] - 1 if fresh else 0
        if fresh and fresh[-1] != base + self.num_vars:
            raise ValueError("sink did not allocate consecutive variables")
        for clause in self.clauses:
            sink.add_clause([to_dimacs(lit + 2 * base) for lit in clause])
        return base


class ConeIndex:
    """Order-preserving projections of a Tseitin block onto cones.

    In a block a :class:`~repro.encode.tseitin.ConeEncoder` recorded,
    every clause *defines* the highest variable it mentions: an AND
    gate's three clauses define its output, which the encoder allocates
    after its fanins; a next-state variable's two clauses define it; a
    unit defines its own variable.  The cone of a set of root variables
    is then their transitive closure through the defining clauses, and
    :meth:`project` keeps exactly the clauses that define a variable of
    the cone.  Variables ``1..leaves`` (the frame's latches and inputs)
    are always kept: a Tseitin definition outside the cone is satisfiable
    for every assignment to them, so a projection answers every query
    over its leaves as the whole block does.

    Projections of one block share equal clause tuples (:meth:`intern`).
    """

    def __init__(self, block: CnfBlock, leaves: int) -> None:
        self.block = block
        self.leaves = leaves
        # 0-based variable -> indices of the clauses defining it.
        self._defs: list[list[int]] = [[] for _ in range(block.num_vars)]
        for index, clause in enumerate(block.clauses):
            self._defs[clause[-1] >> 1].append(index)
        self._interned: dict[tuple[int, ...], tuple[int, ...]] = {}

    def project(self, roots: Iterable[int]) -> tuple[CnfBlock, list[int]]:
        """The block restricted to the leaves and the cone of ``roots``.

        ``roots`` are 1-based block variables.  Returns the projected
        block, whose kept variables keep their relative order but are
        renumbered densely, and the renumbering: ``renumber[v]`` is the
        new 1-based variable of old variable ``v``, or 0 if ``v`` was
        dropped (index 0 is unused).
        """
        clauses, defs, leaves = self.block.clauses, self._defs, self.leaves
        keep = bytearray(b"\x01" * leaves) + bytearray(self.block.num_vars - leaves)
        kept_defs = [index for var in range(leaves) for index in defs[var]]
        stack = [root - 1 for root in roots]
        while stack:
            var = stack.pop()
            if keep[var]:
                continue
            keep[var] = 1
            for index in defs[var]:
                kept_defs.append(index)
                stack.extend(lit >> 1 for lit in clauses[index])
        renumber = [0] * (self.block.num_vars + 1)
        lit_map = [0] * (2 * self.block.num_vars)
        count = 0
        for var, kept in enumerate(keep):
            if kept:
                renumber[var + 1] = count + 1
                lit_map[2 * var] = 2 * count
                lit_map[2 * var + 1] = 2 * count + 1
                count += 1
        intern = self.intern
        projected = tuple(
            intern(tuple([lit_map[lit] for lit in clauses[index]]))
            for index in sorted(kept_defs)
        )
        return CnfBlock(count, projected), renumber

    def intern(self, clause: tuple[int, ...]) -> tuple[int, ...]:
        """The one stored tuple equal to ``clause``."""
        return self._interned.setdefault(clause, clause)


class CnfBuilder:
    """Accumulates clauses and allocates fresh CNF variables."""

    def __init__(self) -> None:
        self.clauses: list[list[int]] = []
        self.num_vars = 0

    def new_var(self) -> int:
        """Allocate a fresh 1-based variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, clause: Iterable[int]) -> None:
        """Add a clause of signed literals."""
        lits = list(clause)
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.num_vars = max(self.num_vars, abs(lit))
        self.clauses.append(lits)

    def add_all(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def extend_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables, returned in order."""
        return [self.new_var() for _ in range(count)]

    def freeze(self) -> CnfBlock:
        """The recorded clauses as a loadable block (tautologies dropped)."""
        clauses = []
        for clause in self.clauses:
            # from_dimacs, inlined: this runs once per recorded literal.
            lits = sorted({2 * lit - 2 if lit > 0 else -2 * lit - 1 for lit in clause})
            if len({lit >> 1 for lit in lits}) == len(lits):  # no l and ~l
                clauses.append(tuple(lits))
        return CnfBlock(self.num_vars, tuple(clauses))

    def copy(self) -> "CnfBuilder":
        out = CnfBuilder()
        out.num_vars = self.num_vars
        out.clauses = [list(c) for c in self.clauses]
        return out

    def __len__(self) -> int:
        return len(self.clauses)
