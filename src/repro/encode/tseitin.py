"""Tseitin encoding of AIG cones into CNF.

:class:`ConeEncoder` maps AIG nodes to CNF variables inside a *sink* —
any object with ``new_var()`` and ``add_clause(lits)`` (both
:class:`repro.sat.Solver` and :class:`repro.encode.cnf.CnfBuilder`
qualify).  Leaves (inputs and latches) must be registered before a cone
through them is encoded; AND gates get fresh variables with the usual
three clauses.  Each encoder instance represents one "copy" of the
combinational logic (one time frame), so unrolling is just a sequence of
encoders sharing a sink.
"""

from __future__ import annotations

from typing import Protocol

from ..circuit.aig import AIG, aig_var, is_negated


class ClauseSink(Protocol):
    """Anything that can absorb fresh variables and clauses."""

    def new_var(self) -> int: ...

    def add_clause(self, lits) -> object: ...


class ConeEncoder:
    """Encodes combinational cones of one AIG time frame into a sink."""

    def __init__(self, aig: AIG, sink: ClauseSink) -> None:
        self.aig = aig
        self.sink = sink
        self._node_var: dict[int, int] = {}

    # ------------------------------------------------------------------
    def set_leaf(self, node_lit: int, var: int) -> None:
        """Register the CNF variable of a leaf (input or latch) literal.

        ``node_lit`` must be non-inverted.
        """
        if is_negated(node_lit):
            raise ValueError("leaf literal must be non-inverted")
        idx = aig_var(node_lit)
        kind = self.aig.kind(idx)
        if kind not in ("input", "latch"):
            raise ValueError(f"node {idx} is a {kind}, not a leaf")
        self._node_var[idx] = var

    def leaf_var(self, node_lit: int) -> int:
        """Look up (or lazily create) the CNF variable of a leaf literal."""
        idx = aig_var(node_lit)
        var = self._node_var.get(idx)
        if var is None:
            kind = self.aig.kind(idx)
            if kind not in ("input", "latch"):
                raise ValueError(f"node {idx} is a {kind}, not a leaf")
            var = self.sink.new_var()
            self._node_var[idx] = var
        return var

    # ------------------------------------------------------------------
    def lit(self, aig_lit: int) -> int:
        """Encode the cone of ``aig_lit``; returns a signed CNF literal."""
        var = self._encode_node(aig_var(aig_lit))
        return -var if is_negated(aig_lit) else var

    def _encode_node(self, root: int) -> int:
        cached = self._node_var.get(root)
        if cached is not None:
            return cached
        aig = self.aig
        node_var = self._node_var
        stack = [root]
        while stack:
            idx = stack[-1]
            if idx in node_var:
                stack.pop()
                continue
            kind = aig.kind(idx)
            if kind == "const":
                # Node 0 is constant FALSE; its variable is pinned to 0 so
                # that lit() returns a false literal for it and a true one
                # for its negation (AIG literal 1).
                node_var[idx] = self._false_as_var()
                stack.pop()
            elif kind in ("input", "latch"):
                var = self.sink.new_var()
                node_var[idx] = var
                stack.pop()
            else:  # and
                left, right = aig.and_fanins(idx)
                lv, rv = aig_var(left), aig_var(right)
                pending = [v for v in (lv, rv) if v not in node_var]
                if pending:
                    stack.extend(pending)
                    continue
                la = node_var[lv] * (-1 if is_negated(left) else 1)
                lb = node_var[rv] * (-1 if is_negated(right) else 1)
                var = self.sink.new_var()
                self.sink.add_clause([-var, la])
                self.sink.add_clause([-var, lb])
                self.sink.add_clause([var, -la, -lb])
                node_var[idx] = var
                stack.pop()
        return node_var[root]

    def _false_as_var(self) -> int:
        """A variable constrained to FALSE (for the constant node)."""
        var = self.sink.new_var()
        self.sink.add_clause([-var])
        return var
