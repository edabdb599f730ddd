"""Simulation of an AIG over its compiled netlist.

:class:`ConeEvaluator` is the one AIG evaluator in the tree: three-valued
(FALSE / X / TRUE) over the flat arrays of :meth:`AIG.netlist`, one cone
at a time.  IC3's state lifting (:mod:`repro.engines.ic3.ternary`) drives
it with X-ed latches; :class:`Simulator` drives it with concrete values
to validate counterexamples: a CEX is only reported to the user after it
has been replayed on the design and shown to actually drive the claimed
property to FALSE (and no earlier property when that is asserted, e.g.
for debugging-set membership checks).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

from .aig import AIG, Netlist

# Ternary values, ordered so that AND is ``min`` and NOT is ``2 - v``.
FALSE, X, TRUE = 0, 1, 2


class ConeEvaluator:
    """Ternary values of one cone of an AIG at a time.

    ``val`` holds a value per *literal* (both polarities are stored, so
    reading a fan-in is one index).  A node's entries are meaningful
    only while ``stamp[node] == epoch``, i.e. the node is in the cone
    of the latest :meth:`evaluate` call; nothing is cleared between
    evaluations.  The scratch arrays belong to this object, the netlist
    is the design's and is only read.
    """

    def __init__(self, aig: AIG) -> None:
        self.aig = aig
        self.net: Netlist | None = None  # the one the latest cone was walked on
        self.val: list[int] = []
        self.stamp: list[int] = []
        self.epoch = 0

    def evaluate(self, roots: Iterable[int], leaf_value: Callable[[int], int]) -> None:
        """Open a new evaluation: one ternary pass over the cone of ``roots``.

        ``leaf_value(node)`` supplies FALSE, X or TRUE for each input or
        latch node the cone reads.  Afterwards ``val[lit]`` is the value
        of every literal in the cone, until the next call.
        """
        net = self.net = self.aig.netlist()
        fanin0, fanin1, stamp, val = net.fanin0, net.fanin1, self.stamp, self.val
        grown = len(fanin0) - len(stamp)
        if grown > 0:
            stamp += [0] * grown
            val += [FALSE, TRUE] * grown  # right for node 0, the constant
        self.epoch = epoch = self.epoch + 1
        stamp[0] = epoch  # never walked, never written
        ands: list[int] = []
        stack = [root >> 1 for root in roots]
        while stack:
            node = stack.pop()
            if stamp[node] == epoch:
                continue
            stamp[node] = epoch
            left = fanin0[node]
            if left < 0:
                value = leaf_value(node)
                val[2 * node] = value
                val[2 * node + 1] = 2 - value
            else:
                ands.append(node)
                stack.append(left >> 1)
                stack.append(fanin1[node] >> 1)
        # An AND is created after its fan-ins: ascending is topological.
        ands.sort()
        for node in ands:
            a = val[fanin0[node]]
            b = val[fanin1[node]]
            if b < a:
                a = b
            val[2 * node] = a
            val[2 * node + 1] = 2 - a

    def x_out(self, node: int, required: set[int]) -> bool:
        """Set a definite ``node`` to X unless that X-es a required node.

        Event-driven: only the fan-out of nodes that actually change is
        re-evaluated.  Values only ever move from definite to X, so the
        result is the fixpoint a full re-evaluation would reach.  The
        moment a node of ``required`` would go X every touched node is
        restored from the journal and False is returned.
        """
        if node in required:
            return False
        val, stamp, epoch = self.val, self.stamp, self.epoch
        fanin0, fanin1, fanouts = self.net.fanin0, self.net.fanin1, self.net.fanouts
        lit = 2 * node
        journal = [lit if val[lit] else lit + 1]  # each touched node's TRUE literal
        val[lit] = val[lit + 1] = X
        work = [node]
        while work:
            for reader in fanouts[work.pop()]:
                lit = 2 * reader
                if stamp[reader] != epoch or val[lit] == X:
                    continue
                # One fan-in just went X: the reader follows unless a
                # FALSE fan-in holds it.
                if val[fanin0[reader]] and val[fanin1[reader]]:
                    if reader in required:
                        for lit in journal:
                            val[lit] = TRUE
                            val[lit ^ 1] = FALSE
                        return False
                    journal.append(lit if val[lit] else lit + 1)
                    val[lit] = val[lit + 1] = X
                    work.append(reader)
        return True


class Simulator:
    """Evaluates an AIG cycle by cycle.

    State is a mapping from latch literal to bool.  Inputs are supplied
    per cycle as a mapping from input literal to bool; unspecified inputs
    default to False.
    """

    def __init__(self, aig: AIG) -> None:
        self.aig = aig
        self._eval = ConeEvaluator(aig)
        self.state: dict[int, bool] = {}
        self.reset()

    def reset(self, uninitialized: Mapping[int, bool] | None = None) -> None:
        """Return all latches to their reset values.

        ``uninitialized`` supplies values for latches with ``init=None``.
        """
        self.state = {}
        for latch in self.aig.latches:
            if latch.init is None:
                value = bool(uninitialized.get(latch.lit, False)) if uninitialized else False
            else:
                value = bool(latch.init)
            self.state[latch.lit] = value

    # ------------------------------------------------------------------
    def eval_lits(self, lits: Sequence[int], inputs: Mapping[int, bool]) -> list[bool]:
        """Evaluate literals in the current state under the given inputs
        (one pass over their joint cone)."""
        is_latch, state = self.aig.is_latch, self.state

        def leaf_value(node: int) -> int:
            lit = 2 * node
            value = state[lit] if is_latch(lit) else inputs.get(lit, False)
            return TRUE if value else FALSE

        self._eval.evaluate(lits, leaf_value)
        val = self._eval.val
        return [val[lit] == TRUE for lit in lits]

    def eval_lit(self, lit: int, inputs: Mapping[int, bool]) -> bool:
        """Evaluate a literal in the current state under the given inputs."""
        return self.eval_lits([lit], inputs)[0]

    def step(self, inputs: Mapping[int, bool]) -> None:
        """Advance one clock cycle under the given input valuation."""
        latches = self.aig.latches
        values = self.eval_lits([latch.next for latch in latches], inputs)
        self.state = {latch.lit: value for latch, value in zip(latches, values)}

    # ------------------------------------------------------------------
    def run(
        self,
        input_seq: Sequence[Mapping[int, bool]],
        watch: Iterable[int] = (),
    ) -> list[dict[int, bool]]:
        """Run a full input sequence; returns per-cycle values of ``watch``.

        The returned list has one entry per cycle *before* the clock edge,
        i.e. entry ``t`` is evaluated in the state reached after ``t``
        steps, under ``input_seq[t]``.
        """
        watch = list(watch)
        rows: list[dict[int, bool]] = []
        for frame_inputs in input_seq:
            rows.append(dict(zip(watch, self.eval_lits(watch, frame_inputs))))
            self.step(frame_inputs)
        return rows

    def check_property_failure(
        self,
        input_seq: Sequence[Mapping[int, bool]],
        prop_lit: int,
        uninitialized: Mapping[int, bool] | None = None,
    ) -> int | None:
        """Replay ``input_seq``; return the first cycle where ``prop_lit``
        is FALSE, or None if the property holds along the whole trace."""
        self.reset(uninitialized)
        for t, frame_inputs in enumerate(input_seq):
            if not self.eval_lit(prop_lit, frame_inputs):
                return t
            self.step(frame_inputs)
        return None
