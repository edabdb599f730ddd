"""And-Inverter Graph (AIG) circuit model.

The AIG is the design representation used throughout the library, mirroring
the AIGER format used by the HWMCC benchmarks the paper evaluates on.

Conventions (identical to AIGER):

* Node indices are non-negative integers; node 0 is the constant FALSE.
* A *literal* is ``2*index`` (plain) or ``2*index + 1`` (inverted).
* ``TRUE_LIT = 1`` and ``FALSE_LIT = 0``.
* Latches have a *next-state* literal and a reset value (0, 1, or ``None``
  for uninitialized).
* Safety properties are named literals that must evaluate TRUE in every
  reachable state (the paper's ``P(S)`` convention); the corresponding
  AIGER "bad" literal is the negation.

AND nodes are structurally hashed, and trivial simplifications
(constant propagation, idempotence, complementation) are applied on
construction, so equivalent sub-circuits share nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

FALSE_LIT = 0
TRUE_LIT = 1


def aig_not(lit: int) -> int:
    """Negate an AIG literal."""
    return lit ^ 1

def aig_var(lit: int) -> int:
    """Node index of an AIG literal."""
    return lit >> 1


def is_negated(lit: int) -> bool:
    """True if the literal is inverted."""
    return bool(lit & 1)


@dataclass(frozen=True)
class Latch:
    """A state-holding element: current-state literal, next-state fn, reset."""

    lit: int
    next: int
    init: int | None  # 0, 1, or None (uninitialized)
    name: str = ""


@dataclass(frozen=True)
class Property:
    """A named safety property: ``lit`` must be TRUE in all reachable states."""

    name: str
    lit: int
    expected_to_fail: bool = False


@dataclass
class _AndNode:
    left: int
    right: int


class Netlist:
    """An AIG's combinational structure as flat arrays indexed by node.

    ``fanin0[n]``/``fanin1[n]`` are the fan-in literals of AND node
    ``n`` (``-1`` for inputs, latches and the constant); ``fanouts[n]``
    lists the AND nodes that read node ``n``.  An AND is always created
    after its fan-ins, so ascending node index is a topological order.
    Never mutated once built (see :meth:`AIG.netlist`).
    """

    def __init__(self, aig: AIG, base: Netlist | None = None) -> None:
        if base is None:
            self.fanin0: list[int] = []
            self.fanin1: list[int] = []
            self.fanouts: list[list[int]] = []
        else:
            self.fanin0 = list(base.fanin0)
            self.fanin1 = list(base.fanin1)
            self.fanouts = [list(readers) for readers in base.fanouts]
        for idx in range(len(self.fanouts), aig.num_nodes):
            left, right = aig.and_fanins(idx) if aig.kind(idx) == "and" else (-1, -1)
            self.fanin0.append(left)
            self.fanin1.append(right)
            self.fanouts.append([])
            if left >= 0:
                self.fanouts[left >> 1].append(idx)
                self.fanouts[right >> 1].append(idx)


class AIG:
    """A mutable And-Inverter Graph with structural hashing.

    Typical construction::

        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        q = aig.add_latch("q", init=0)
        aig.set_next(q, aig.and_(a, b))
        aig.add_property("never_q", aig_not(q))
    """

    def __init__(self) -> None:
        # Node 0 is constant FALSE; kind table parallels node indices.
        self._kinds: list[str] = ["const"]
        self.inputs: list[int] = []  # input literals (even)
        self.input_names: list[str] = []
        self.latches: list[Latch] = []
        self.properties: list[Property] = []
        self.constraints: list[int] = []  # invariant constraints (AIGER 1.9)
        self._ands: dict[int, _AndNode] = {}  # node index -> fanins
        self._strash: dict[tuple[int, int], int] = {}
        self._latch_pos: dict[int, int] = {}  # node index -> position in latches
        self._netlist: Netlist | None = None  # derived; see netlist()

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def _new_node(self, kind: str) -> int:
        self._kinds.append(kind)
        return len(self._kinds) - 1

    def add_input(self, name: str = "") -> int:
        """Add a primary input; returns its (even) literal."""
        idx = self._new_node("input")
        lit = idx * 2
        self.inputs.append(lit)
        self.input_names.append(name or f"i{len(self.inputs) - 1}")
        return lit

    def add_latch(self, name: str = "", init: int | None = 0) -> int:
        """Add a latch with reset value ``init``; returns its literal.

        The next-state function starts as the latch itself (a hold
        register) and is set later via :meth:`set_next`.
        """
        if init not in (0, 1, None):
            raise ValueError(f"latch init must be 0, 1 or None, got {init!r}")
        idx = self._new_node("latch")
        lit = idx * 2
        self._latch_pos[idx] = len(self.latches)
        self.latches.append(Latch(lit=lit, next=lit, init=init, name=name or f"l{len(self.latches)}"))
        return lit

    def set_next(self, latch_lit: int, next_lit: int) -> None:
        """Set the next-state function of a latch created by add_latch."""
        idx = aig_var(latch_lit)
        if is_negated(latch_lit):
            raise ValueError("latch literal must be non-inverted")
        pos = self._latch_pos.get(idx)
        if pos is None:
            raise ValueError(f"literal {latch_lit} is not a latch")
        old = self.latches[pos]
        self.latches[pos] = Latch(lit=old.lit, next=next_lit, init=old.init, name=old.name)

    def and_(self, a: int, b: int) -> int:
        """AND of two literals, with simplification and structural hashing."""
        self._check_lit(a)
        self._check_lit(b)
        # Constant / trivial simplifications.
        if a == FALSE_LIT or b == FALSE_LIT or a == aig_not(b):
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        # Fan-ins first: a node that num_nodes counts is complete, for a
        # thread compiling the netlist meanwhile.
        idx = len(self._kinds)
        self._ands[idx] = _AndNode(a, b)
        self._kinds.append("and")
        lit = idx * 2
        self._strash[key] = lit
        return lit

    # Derived gates -----------------------------------------------------
    def or_(self, a: int, b: int) -> int:
        return aig_not(self.and_(aig_not(a), aig_not(b)))

    def xor(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, aig_not(b)), self.and_(aig_not(a), b))

    def xnor(self, a: int, b: int) -> int:
        return aig_not(self.xor(a, b))

    def mux(self, sel: int, then_lit: int, else_lit: int) -> int:
        """``sel ? then_lit : else_lit``."""
        return self.or_(self.and_(sel, then_lit), self.and_(aig_not(sel), else_lit))

    def implies(self, a: int, b: int) -> int:
        return self.or_(aig_not(a), b)

    def and_many(self, lits: Iterable[int]) -> int:
        out = TRUE_LIT
        for lit in lits:
            out = self.and_(out, lit)
        return out

    def or_many(self, lits: Iterable[int]) -> int:
        out = FALSE_LIT
        for lit in lits:
            out = self.or_(out, lit)
        return out

    # ------------------------------------------------------------------
    # Properties & constraints
    # ------------------------------------------------------------------
    def add_property(self, name: str, lit: int, expected_to_fail: bool = False) -> Property:
        """Declare a safety property: ``lit`` must hold in every reachable state."""
        self._check_lit(lit)
        prop = Property(name=name, lit=lit, expected_to_fail=expected_to_fail)
        self.properties.append(prop)
        return prop

    def add_constraint(self, lit: int) -> None:
        """Add an invariant constraint (assumed true in every considered state)."""
        self._check_lit(lit)
        self.constraints.append(lit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._kinds)

    def kind(self, idx: int) -> str:
        return self._kinds[idx]

    def and_fanins(self, idx: int) -> tuple[int, int]:
        node = self._ands[idx]
        return node.left, node.right

    def is_latch(self, lit: int) -> bool:
        return self._kinds[aig_var(lit)] == "latch"

    def latch_by_lit(self, lit: int) -> Latch:
        return self.latches[self._latch_pos[aig_var(lit)]]

    def _check_lit(self, lit: int) -> None:
        if lit < 0 or aig_var(lit) >= len(self._kinds):
            raise ValueError(f"literal {lit} out of range")

    def netlist(self) -> Netlist:
        """The design compiled for simulation, built on first use.

        Compiled once per design; when AND nodes have been appended
        since (a caller may build on a design it already simulated)
        only the new nodes are walked, into a fresh :class:`Netlist`, so a
        simulation in flight on another thread keeps the one it holds.
        """
        net = self._netlist
        if net is None or len(net.fanouts) != len(self._kinds):
            net = self._netlist = Netlist(self, net)
        return net

    def __getstate__(self) -> dict:
        # The netlist never travels: a design pickles the same, byte for
        # byte, whether or not it has been simulated (same hygiene as
        # TransitionSystem's templates).
        state = self.__dict__.copy()
        state["_netlist"] = None
        return state

    def cone_of_influence(self, roots: Iterable[int]) -> tuple[set, set]:
        """Transitive fanin of ``roots`` through ANDs *and* latch next-fns.

        Returns ``(node_indices, latch_literals)``: every node reachable
        backwards from the roots, and the latches among them.  Used by the
        property-similarity/ordering heuristics and by the generators to
        check that synthesized designs have the intended cone structure.
        """
        seen: set = set()
        latches: set = set()
        stack = [aig_var(r) for r in roots]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            kind = self._kinds[idx]
            if kind == "and":
                node = self._ands[idx]
                stack.append(aig_var(node.left))
                stack.append(aig_var(node.right))
            elif kind == "latch":
                latches.add(idx * 2)
                stack.append(aig_var(self.latches[self._latch_pos[idx]].next))
        return seen, latches

    def stats(self) -> dict[str, int]:
        return {
            "inputs": len(self.inputs),
            "latches": len(self.latches),
            "ands": len(self._ands),
            "properties": len(self.properties),
            "constraints": len(self.constraints),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.stats()
        return (
            f"AIG(inputs={s['inputs']}, latches={s['latches']}, "
            f"ands={s['ands']}, properties={s['properties']})"
        )
