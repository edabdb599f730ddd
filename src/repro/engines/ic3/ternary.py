"""IC3 state lifting by ternary simulation (paper Sections 6-C and 7-A).

Lifting enlarges a concrete state ``q`` (extracted from a SAT model) to a
cube ``Cq`` of states that all behave the same for the purpose at hand:
every state of ``Cq``, under the stored input valuation, transitions into
the target successor cube (for predecessor lifting) or falsifies the
target property (for bad-state lifting).  The larger the cube, the more
states one proof obligation covers — "the larger Cq, the greater the
performance boost by lifting".

The paper's Ic3-db has two lifting modes for JA-verification:

* *respecting* property constraints — every state of ``Cq`` must also
  satisfy the assumed properties, which preserves exact ``T^P`` traces
  but can shrink ``Cq`` drastically;
* *ignoring* them — bigger cubes, but counterexamples may become
  "spurious" (contain transitions from assumption-violating states) and
  must be re-checked (Section 7-A).

Both modes are implemented via the ``require_true`` argument.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ...circuit.aig import AIG
from ...circuit.simulate import FALSE, TRUE, X, ConeEvaluator


class Lifter:
    """Lifts states of one design; ``latch_order`` lists its latch
    literals positionally."""

    def __init__(self, aig: AIG, latch_order: Sequence[int]) -> None:
        self._eval = ConeEvaluator(aig)
        self._nodes = [lit >> 1 for lit in latch_order]
        self._position = {node: pos for pos, node in enumerate(self._nodes)}

    def lift(
        self,
        latch_values: Sequence[bool],
        input_values: Mapping[int, bool | None],
        require_true: Sequence[int],
        require_false: Sequence[int] = (),
    ) -> list[bool | None]:
        """Greedily X out latches while all requirements stay *definite*.

        ``latch_values`` are the concrete model values, by position.
        ``require_true``/``require_false`` are AIG literals that must
        keep evaluating to a definite True/False under the (fixed)
        ``input_values``.  A cone latch outside ``latch_order`` and an
        input without a value are X throughout.

        Returns per-position values with ``None`` for lifted-away latches.
        The result always contains the original state and is sound by
        construction: ternary simulation is conservative, so a definite
        output is definite for every completion of the X-ed latches.
        """
        ev, position = self._eval, self._position
        targets = [*require_true, *require_false]

        def leaf_value(node: int) -> int:
            pos = position.get(node)
            value = latch_values[pos] if pos is not None else input_values.get(2 * node)
            return X if value is None else TRUE if value else FALSE

        ev.evaluate(targets, leaf_value)
        val = ev.val
        if any(val[lit] != TRUE for lit in require_true) or any(
            val[lit] != FALSE for lit in require_false
        ):
            raise ValueError("lifting targets do not hold in the concrete state")
        required = {lit >> 1 for lit in targets}
        lifted: list[bool | None] = [bool(value) for value in latch_values]
        # Greedy elimination, last latch first (later latches are usually
        # deeper in the design's pipelines and more often irrelevant).  A
        # latch outside the cone goes without simulation.
        stamp, epoch, nodes = ev.stamp, ev.epoch, self._nodes
        for pos in range(len(nodes) - 1, -1, -1):
            node = nodes[pos]
            if stamp[node] != epoch or ev.x_out(node, required):
                lifted[pos] = None
        return lifted
