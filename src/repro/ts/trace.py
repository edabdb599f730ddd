"""Counterexample traces and their validation.

A :class:`Trace` is the witness format every engine returns for a failed
property: the per-frame primary-input valuations plus chosen values for
uninitialized latches.  Because it contains *inputs*, not states, it can
always be replayed deterministically on the design; the library never
reports a counterexample that has not been replayed successfully
(see :meth:`Trace.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuit.aig import AIG
from ..circuit.simulate import Simulator


@dataclass
class Trace:
    """An initialized input sequence driving a property to FALSE.

    The property is expected to fail at the *last* frame, i.e. at time
    ``len(inputs) - 1`` evaluated under ``inputs[-1]``.
    """

    inputs: list[dict[int, bool]]
    uninit: dict[int, bool] = field(default_factory=dict)
    property_name: str = ""

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def depth(self) -> int:
        """Number of time frames spanned (a depth-1 trace fails at reset)."""
        return len(self.inputs)

    # ------------------------------------------------------------------
    def validate(self, aig: AIG, prop_lit: int) -> bool:
        """Replay on ``aig``: does ``prop_lit`` fail exactly at the last frame?"""
        sim = Simulator(aig)
        t = sim.check_property_failure(self.inputs, prop_lit, self.uninit)
        return t == len(self.inputs) - 1

    def failure_frame(self, aig: AIG, prop_lit: int) -> int | None:
        """First frame at which ``prop_lit`` is FALSE along the trace."""
        sim = Simulator(aig)
        return sim.check_property_failure(self.inputs, prop_lit, self.uninit)

    def first_failures(
        self, aig: AIG, prop_lits: dict[str, int]
    ) -> tuple[int | None, list[str]]:
        """Earliest frame where *any* of ``prop_lits`` fails, and who fails there.

        Returns ``(frame, names)``; ``(None, [])`` when nothing fails.
        Used to detect spurious local counterexamples (an assumed property
        failing strictly before the target does) and to identify which
        properties a joint-verification CEX refutes.
        """
        sim = Simulator(aig)
        sim.reset(self.uninit)
        lits = list(prop_lits.values())
        for t, frame_inputs in enumerate(self.inputs):
            values = sim.eval_lits(lits, frame_inputs)
            failed = [name for name, value in zip(prop_lits, values) if not value]
            if failed:
                return t, sorted(failed)
            sim.step(frame_inputs)
        return None, []

    def truncated(self, length: int) -> "Trace":
        """A prefix of this trace (used when an earlier failure is found)."""
        if not 0 < length <= len(self.inputs):
            raise ValueError(f"bad truncation length {length}")
        return Trace(
            inputs=[dict(f) for f in self.inputs[:length]],
            uninit=dict(self.uninit),
            property_name=self.property_name,
        )

    def states(self, aig: AIG) -> list[dict[int, bool]]:
        """Latch valuations visited, one per frame (before each clock edge)."""
        sim = Simulator(aig)
        sim.reset(self.uninit)
        out = []
        for frame_inputs in self.inputs:
            out.append(dict(sim.state))
            sim.step(frame_inputs)
        return out
