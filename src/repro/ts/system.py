"""Transition systems over AIGs, plus the CNF encodings the engines use.

A :class:`TransitionSystem` wraps an AIG and fixes the *state-variable
order*: latch ``i`` (0-based position in ``aig.latches``) is represented
in cubes and clauses by the signed integer ``±(i+1)``.  A **cube** is a
sorted tuple of such literals read conjunctively (a set of states); a
**clause** is the same tuple read disjunctively.  All frame clauses,
strengthening clauses and the clauseDB use this representation, which is
independent of any particular SAT solver instance.

Properties follow the paper's convention: the property *literal* must be
TRUE in every reachable state.  Properties may depend on primary inputs
as well as latches (as in the paper's Example 1, where ``P0: req == 1``
constrains an input); a "state" in the sense of the paper's ``P``-states
is then a (latch valuation, input valuation) pair.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from ..circuit.aig import AIG, Property
from ..encode.cnf import CnfBlock, CnfBuilder, ConeIndex
from ..encode.tseitin import ClauseSink, ConeEncoder

Cube = tuple[int, ...]
Clause = tuple[int, ...]


def normalize_cube(lits: Iterable[int]) -> Cube:
    """Canonical form: sorted by variable, duplicates removed.

    Raises on contradictory literals — a cube containing ``v`` and ``-v``
    denotes the empty set of states and always indicates a caller bug.
    """
    seen: dict[int, int] = {}
    for lit in lits:
        if lit == 0:
            raise ValueError("0 is not a state literal")
        var = abs(lit)
        if var in seen and seen[var] != lit:
            raise ValueError(f"contradictory literals for state var {var}")
        seen[var] = lit
    return tuple(sorted(seen.values(), key=abs))


def negate_cube(cube: Cube) -> Clause:
    """The clause blocking a cube (and vice versa)."""
    return tuple(sorted((-lit for lit in cube), key=abs))


def cube_subsumes(small: Cube, big: Cube) -> bool:
    """True if ``small``'s literals are a subset of ``big``'s.

    For cubes: ``small`` denotes a superset of states and every state in
    ``big`` is in ``small``.  For clauses: ``small`` subsumes ``big``.
    """
    return set(small) <= set(big)


class OutOfSliceError(LookupError):
    """A step frame has no next-state variable for the latch asked for.

    Raised by ``StepEncoding.next[i]`` of a step frame projected onto a
    target (:meth:`TransitionSystem.encode_cone`) when latch ``i`` is
    outside the frame's slice.
    """


class NextSlice(dict):
    """``next`` of a projected step frame: latch position -> variable,
    defined on the frame's slice only."""

    __slots__ = ()

    def __missing__(self, position: int) -> int:
        raise OutOfSliceError(
            f"latch {position} is outside this step frame's slice"
        )


@dataclass
class StepEncoding:
    """One copy of the transition relation inside a solver.

    ``curr[i]``/``next[i]`` are the CNF variables of latch ``i`` in the
    present and next state; ``inputs`` maps AIG input literals to CNF
    variables; ``prop_curr`` maps property names to signed CNF literals
    evaluated over the *present* frame (latches + inputs).  A step frame
    projected onto a target has a :class:`NextSlice` for ``next``.
    """

    curr: list[int]
    next: list[int] | NextSlice
    inputs: dict[int, int]
    prop_curr: dict[str, int]
    constraint_curr: list[int]

    def cube_lits_curr(self, cube: Cube) -> list[int]:
        return [self.curr[abs(l) - 1] * (1 if l > 0 else -1) for l in cube]

    def cube_lits_next(self, cube: Cube) -> list[int]:
        return [self.next[abs(l) - 1] * (1 if l > 0 else -1) for l in cube]

    def clause_lits_curr(self, clause: Clause) -> list[int]:
        return self.cube_lits_curr(clause)  # same literal-wise mapping


@dataclass
class FrameEncoding:
    """A single combinational frame (no transition): used for init/bad queries."""

    curr: list[int]
    inputs: dict[int, int]
    prop_curr: dict[str, int]
    constraint_curr: list[int]

    def cube_lits_curr(self, cube: Cube) -> list[int]:
        return [self.curr[abs(l) - 1] * (1 if l > 0 else -1) for l in cube]

    clause_lits_curr = cube_lits_curr


class TransitionSystem:
    """An ``(I, T)``-system with a set of named safety properties."""

    def __init__(self, aig: AIG, properties: Sequence[Property] | None = None) -> None:
        self.aig = aig
        self.latches = list(aig.latches)
        self.properties: list[Property] = list(
            properties if properties is not None else aig.properties
        )
        names = [p.name for p in self.properties]
        if len(set(names)) != len(names):
            raise ValueError("property names must be unique")
        self.prop_by_name: dict[str, Property] = {p.name: p for p in self.properties}
        self.num_state_vars = len(self.latches)
        # Initial-state pattern: +1/-1/None per latch position (I is a cube).
        self.init_pattern: list[int | None] = []
        for i, latch in enumerate(self.latches):
            if latch.init is None:
                self.init_pattern.append(None)
            else:
                self.init_pattern.append((i + 1) if latch.init == 1 else -(i + 1))
        # frame key -> (clauses, the encoding's maps) over variables 1..n
        # (see _template), and the step template's cone index.
        self._templates: dict[object, tuple[CnfBlock, StepEncoding]] = {}
        self._templates_key: tuple | None = None
        self._cones: ConeIndex | None = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------
    def cube_intersects_init(self, cube: Cube) -> bool:
        """Exact check: does the cube contain an initial state?

        Since AIGER initial states form a cube (each latch is 0, 1 or
        free), the check is syntactic: the cube intersects I unless some
        literal contradicts the init pattern.
        """
        for lit in cube:
            pattern = self.init_pattern[abs(lit) - 1]
            if pattern is not None and pattern != lit:
                return False
        return True

    def clause_holds_at_init(self, clause: Clause) -> bool:
        """``I -> clause``: no initial state falsifies the clause."""
        return not self.cube_intersects_init(negate_cube(clause))

    def state_cube_from(self, latch_values: Sequence[bool]) -> Cube:
        """Full cube for a concrete latch valuation (position order)."""
        return tuple(
            (i + 1) if value else -(i + 1) for i, value in enumerate(latch_values)
        )

    # ------------------------------------------------------------------
    # Encodings
    # ------------------------------------------------------------------
    # A design is Tseitin-encoded once, into the full step template, and
    # every other frame is an order-preserving projection of it: the
    # whole-design bad and init frames encode_bad_frame/encode_init_frame
    # load, and the per-target frames encode_cone loads for IC3's solvers
    # and the certifier's F ⊆ P query.  JA-verification is k local
    # proofs over one design, each opening several solvers, and a query
    # about one property reads only that property's cone: a solver loads
    # what its query reads, not the other k-1 cones and every latch's
    # next-state function.

    def __getstate__(self) -> dict:
        # Templates and their lock never travel: a design pickles the
        # same, byte for byte, however warm its sender is (pool payload
        # digests rely on it), and the receiver rebuilds them on first use.
        state = self.__dict__.copy()
        state["_templates"] = {}
        state["_templates_key"] = None
        state["_cones"] = None
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def _template(self, key) -> tuple[CnfBlock, StepEncoding]:
        """The frame template under ``key``, built on first use.

        ``"step"`` is the full step template, the design's one Tseitin
        run; every other key names a projection of it (built by
        :meth:`_project`): ``("bad", target)`` and ``("init", target)``,
        where a ``None`` target is the whole design, and ``("step",
        target, assumed, respect)``.  A template is the frame's clauses
        over variables ``1..n`` plus the encoding's maps over the same
        variables.  Templates are dropped when anything they encode has
        changed since: the properties, the latches, the inputs or the
        AIG's constraints.  AND nodes appended to the AIG afterwards
        (say, by ``aggregate_property_lit``) are in no existing cone and
        leave them valid.  They are built under the system's lock, so jobs
        sharing a system (a proof-cache cone) build each template once.
        """
        design = (
            tuple(self.properties),
            tuple(self.latches),
            tuple(self.aig.inputs),
            tuple(self.aig.constraints),
        )
        with self._lock:
            if design != self._templates_key:
                self._templates = {}
                self._templates_key = design
                self._cones = None
            template = self._templates.get(key)
            if template is None:
                if key == "step":
                    cnf = CnfBuilder()
                    maps = self._encode_into("step", cnf)
                    template = (cnf.freeze(), maps)
                else:
                    template = self._project(*key)
                self._templates[key] = template
            return template

    def _project(
        self,
        kind: str,
        target: str | None,
        assumed: tuple[str, ...] = (),
        respect: bool = False,
    ) -> tuple[CnfBlock, StepEncoding]:
        """Project the step template onto one frame's roots (see
        :meth:`encode_cone` for what each kind keeps)."""
        if kind == "init":
            block, maps = self._template(("bad", target))
            resets = tuple(
                self._cones.intern((2 * var - 1,) if latch.init == 0 else (2 * var - 2,))
                for var, latch in zip(maps.curr, self.latches)
                if latch.init is not None
            )
            return CnfBlock(block.num_vars, block.clauses + resets), maps
        full, maps = self._template("step")
        if self._cones is None:
            self._cones = ConeIndex(full, len(maps.curr) + len(maps.inputs))
        if kind == "bad":
            names = [target] if target is not None else list(maps.prop_curr)
            slice_ = []
        else:
            assumed_set = set(assumed)
            names = [p.name for p in self.properties if p.name in assumed_set]
            seq_roots = [self.prop_by_name[target].lit, *self.aig.constraints]
            if respect:
                seq_roots += [self.prop_by_name[name].lit for name in names]
            _, cone = self.aig.cone_of_influence(seq_roots)
            slice_ = [
                position
                for position, latch in enumerate(self.latches)
                if latch.lit in cone or position == 0
            ]
        block, renumber = self._cones.project(
            [abs(maps.prop_curr[name]) for name in names]
            + [abs(lit) for lit in maps.constraint_curr]
            + [maps.next[position] for position in slice_]
        )

        def lit(old: int) -> int:
            return renumber[old] if old > 0 else -renumber[-old]

        # Latches and inputs are the template's first variables and a
        # projection keeps them all, in place: their maps are shared.
        return block, StepEncoding(
            curr=maps.curr,
            next=NextSlice({pos: renumber[maps.next[pos]] for pos in slice_})
            if kind == "step"
            else [],
            inputs=maps.inputs,
            prop_curr={name: lit(maps.prop_curr[name]) for name in names},
            constraint_curr=[lit(c) for c in maps.constraint_curr],
        )

    def _encode_into(self, kind: str, sink: ClauseSink) -> StepEncoding:
        """Tseitin-encode one frame kind straight into ``sink``.

        The only place a frame's cones are walked (``next`` stays empty
        for the combinational kinds).  The step template records it once
        per design; the tests run it into a solver, for every kind, as
        the reference a loaded frame must equal.
        """
        enc = ConeEncoder(self.aig, sink)
        curr = []
        for latch in self.latches:
            var = sink.new_var()
            enc.set_leaf(latch.lit, var)
            curr.append(var)
        inputs = {}
        for inp in self.aig.inputs:
            var = sink.new_var()
            enc.set_leaf(inp, var)
            inputs[inp] = var
        prop_curr = {p.name: enc.lit(p.lit) for p in self.properties}
        constraint_curr = [enc.lit(c) for c in self.aig.constraints]
        nxt = []
        if kind == "step":
            for latch in self.latches:
                lit = enc.lit(latch.next)
                var = sink.new_var()
                sink.add_clause([-var, lit])
                sink.add_clause([var, -lit])
                nxt.append(var)
        for c in constraint_curr:
            sink.add_clause([c])
        if kind == "init":
            for var, latch in zip(curr, self.latches):
                if latch.init == 0:
                    sink.add_clause([-var])
                elif latch.init == 1:
                    sink.add_clause([var])
        return StepEncoding(curr, nxt, inputs, prop_curr, constraint_curr)

    def _load(self, key, solver: ClauseSink) -> StepEncoding:
        """Load a template into ``solver``; its maps, shifted to the base
        the solver put the block at."""
        block, maps = self._template(key)
        base = block.load(solver)
        nxt = maps.next
        return StepEncoding(
            curr=[var + base for var in maps.curr],
            next=NextSlice({pos: var + base for pos, var in nxt.items()})
            if isinstance(nxt, NextSlice)
            else [var + base for var in nxt],
            inputs={inp: var + base for inp, var in maps.inputs.items()},
            prop_curr={
                name: lit + base if lit > 0 else lit - base
                for name, lit in maps.prop_curr.items()
            },
            constraint_curr=[
                lit + base if lit > 0 else lit - base for lit in maps.constraint_curr
            ],
        )

    def _load_frame(self, key, solver: ClauseSink) -> FrameEncoding:
        enc = self._load(key, solver)
        return FrameEncoding(enc.curr, enc.inputs, enc.prop_curr, enc.constraint_curr)

    def encode_cone(
        self,
        solver: ClauseSink,
        kind: str,
        target: str,
        assumed: Iterable[str] = (),
        respect: bool = False,
    ) -> StepEncoding | FrameEncoding:
        """Load the ``kind`` frame projected onto what a query about
        ``target`` reads.

        * ``"bad"``: ``target``'s combinational cone, constraints
          asserted (``prop_curr`` holds ``target`` only);
        * ``"init"``: the same plus the reset units;
        * ``"step"``: the ``assumed`` properties' cones (``prop_curr``
          holds them only), the constraints, and the next-state
          functions of the *slice*: the latches in the sequential cone
          of influence of ``target``, the constraints and — with
          ``respect`` (constraint-respecting lifting) — the assumed
          properties, plus latch 0, an empty lifted cube's fallback
          literal.  ``next`` is a :class:`NextSlice`.

        Every latch and input keeps its variable, and a Tseitin
        definition left out is satisfiable for every value of them, so
        a query over latches and inputs gets the answers the
        whole-design frame gives.  IC3 lifts every cube onto the slice
        (the ternary lifter drops the latches outside a requirement's
        cone), so its consecution queries never ask for a next-state
        variable outside it.
        """
        if target not in self.prop_by_name:
            raise KeyError(f"unknown property {target!r}")
        if kind == "step":
            return self._load(("step", target, tuple(assumed), bool(respect)), solver)
        if kind in ("bad", "init"):
            return self._load_frame((kind, target), solver)
        raise ValueError(f"unknown frame kind {kind!r}")

    def encode_step(self, solver: ClauseSink) -> StepEncoding:
        """Encode one transition ``T(S, X, S')`` into a solver.

        Invariant constraints of the AIG (if any) are asserted on the
        present frame.  Property literals are *not* asserted — callers add
        the paper's ``T^P`` constraints by asserting units on
        ``prop_curr`` (see :mod:`repro.ts.projection`).
        """
        return self._load("step", solver)

    def encode_bad_frame(self, solver: ClauseSink) -> FrameEncoding:
        """Encode a final (bad) frame: combinational only, constraints asserted.

        AIG-level invariant constraints apply to every considered state,
        including the failing one; the paper's property assumptions do
        *not* apply here (the final state of a local CEX only needs to
        falsify the target property).
        """
        return self._load_frame(("bad", None), solver)

    def encode_init_frame(self, solver: ClauseSink) -> FrameEncoding:
        """Encode a frame constrained to the initial states."""
        return self._load_frame(("init", None), solver)

    # ------------------------------------------------------------------
    def eth_properties(self) -> list[Property]:
        """Properties Expected To Hold (the assumption pool of Sec. 5)."""
        return [p for p in self.properties if not p.expected_to_fail]

    def aggregate_property_lit(self, names: Iterable[str] | None = None) -> int:
        """AIG literal of ``P1 & ... & Pk`` (over the named subset)."""
        if names is None:
            props: Iterable[Property] = self.properties
        else:
            props = [self.prop_by_name[n] for n in names]
        return self.aig.and_many(p.lit for p in props)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TransitionSystem(latches={len(self.latches)}, "
            f"properties={len(self.properties)})"
        )
