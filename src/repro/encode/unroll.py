"""Time-frame unrolling of a sequential AIG for bounded model checking.

The :class:`Unroller` lazily creates one :class:`ConeEncoder` per time
frame inside a single clause sink.  Frame 0's latch variables are
constrained to the reset values; each later frame's latch leaves are tied
to the previous frame's next-state literals, so no equality clauses are
needed for the transition itself.
"""

from __future__ import annotations


from ..circuit.aig import AIG
from .tseitin import ClauseSink, ConeEncoder


class Unroller:
    """Unrolls an AIG into numbered time frames within one sink."""

    #: Leave frame 0's latches unconstrained instead of tying them to
    #: their reset values (k-induction's step case sets this).
    free_init = False

    def __init__(self, aig: AIG, sink: ClauseSink) -> None:
        self.aig = aig
        self.sink = sink
        self._frames: list[ConeEncoder] = []
        # Per-frame maps: AIG input literal -> CNF var.
        self.input_vars: list[dict[int, int]] = []

    @property
    def num_frames(self) -> int:
        return len(self._frames)

    def frame(self, t: int) -> ConeEncoder:
        """The encoder for frame ``t``, creating frames 0..t on demand."""
        while len(self._frames) <= t:
            self._extend()
        return self._frames[t]

    def _extend(self) -> None:
        t = len(self._frames)
        enc = ConeEncoder(self.aig, self.sink)
        frame_inputs: dict[int, int] = {}
        for inp in self.aig.inputs:
            var = self.sink.new_var()
            enc.set_leaf(inp, var)
            frame_inputs[inp] = var
        if t == 0:
            for latch in self.aig.latches:
                var = self.sink.new_var()
                enc.set_leaf(latch.lit, var)
                if self.free_init:
                    continue
                if latch.init == 0:
                    self.sink.add_clause([-var])
                elif latch.init == 1:
                    self.sink.add_clause([var])
                # init None: left unconstrained (uninitialized latch)
        else:
            prev = self._frames[t - 1]
            for latch in self.aig.latches:
                # The latch value at frame t IS the next-state literal of
                # frame t-1; reuse that CNF literal directly when it is a
                # plain variable, otherwise introduce an equality var.
                next_lit = prev.lit(latch.next)
                if next_lit > 0:
                    enc.set_leaf(latch.lit, next_lit)
                else:
                    var = self.sink.new_var()
                    self.sink.add_clause([-var, next_lit])
                    self.sink.add_clause([var, -next_lit])
                    enc.set_leaf(latch.lit, var)
        self._frames.append(enc)
        self.input_vars.append(frame_inputs)

    def lit(self, aig_lit: int, t: int) -> int:
        """Signed CNF literal of ``aig_lit`` evaluated at frame ``t``."""
        return self.frame(t).lit(aig_lit)

    def latch_var(self, latch_lit: int, t: int) -> int:
        """CNF variable holding latch ``latch_lit`` at frame ``t``."""
        return self.frame(t).leaf_var(latch_lit)

    def input_var(self, input_lit: int, t: int) -> int:
        self.frame(t)
        return self.input_vars[t][input_lit]

    def extract_inputs(self, model_value, upto_frame: int) -> list[dict[int, bool]]:
        """Read back per-frame input valuations from a SAT model.

        ``model_value`` is a callable mapping a signed CNF literal to a
        bool or None (e.g. ``Solver.value``).  Frames 0..upto_frame
        inclusive are extracted.
        """
        seq: list[dict[int, bool]] = []
        for t in range(upto_frame + 1):
            frame_inputs = {}
            for inp, var in self.input_vars[t].items():
                val = model_value(var)
                frame_inputs[inp] = bool(val) if val is not None else False
            seq.append(frame_inputs)
        return seq

    def extract_uninit(self, model_value) -> dict[int, bool]:
        """Values the model chose for uninitialized latches at frame 0."""
        out: dict[int, bool] = {}
        if not self._frames:
            return out
        enc = self._frames[0]
        for latch in self.aig.latches:
            if latch.init is None:
                var = enc.leaf_var(latch.lit)
                val = model_value(var)
                out[latch.lit] = bool(val) if val is not None else False
        return out
