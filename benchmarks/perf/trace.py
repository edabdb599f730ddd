"""The benchmark's own in-memory tracer and the instruments it feeds.

Everything here observes the program from outside: spans are opened by
wrappers the benchmark places around public calls and by time-stamped
``ProgressEvent``s; the ``bench-traced`` SAT backend and the traced
``TransitionSystem`` are subclasses the benchmark registers or passes
in.  Nothing under ``src/`` is patched.

A span is ``(name, layer, start, end, parent, trace_id)``; the trace id
is ``workload/pass/design[/property]``.  Hot calls (``add_clause``,
``solve``) would swamp the trace as spans, so ``bench-traced``
accumulates their count and time into the innermost open span instead;
that time is attributed to the ``sat`` layer when self times are taken.
Spans live in memory and are written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.sat import get_backend, register_backend
from repro.ts.system import TransitionSystem

TRACED_BACKEND = "bench-traced"

#: Accumulator keys whose value is time spent in the ``sat`` layer.
SAT_TIME_KEYS = ("sat.add_clause_s", "sat.solve_s")

_SOLVE_COUNTERS = ("conflicts", "propagations", "decisions", "restarts", "learned")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "trace_id", "acc")

    def __init__(self, name, layer, start, parent, trace_id):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id
        self.acc = defaultdict(float)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store with a stack for nested spans and per-span accumulators.

    One stack serves the main thread and the service's job thread: on
    the in-process workloads the main thread opens ``Session.run`` and
    then blocks while the job thread opens and closes everything
    nested inside, so pushes and pops never interleave.  Spans of
    concurrent jobs (pooled workloads) are added after the fact with
    :meth:`record`, with an explicit parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._loose = defaultdict(float)  # accumulations outside any span
        self.acc = self._loose  # where bench-traced adds right now

    # -- stack spans -----------------------------------------------------
    def push(self, name: str, layer: str, trace_id: str = "") -> int:
        parent = self._stack[-1] if self._stack else None
        if not trace_id and parent is not None:
            trace_id = self.spans[parent].trace_id
        span = Span(name, layer, time.perf_counter(), parent, trace_id)
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        self.acc = span.acc
        return index

    def pop(self, index: int) -> None:
        """Close ``index`` (and anything still open inside it)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == index:
                break
        self.acc = self.spans[self._stack[-1]].acc if self._stack else self._loose

    @contextmanager
    def span(self, name: str, layer: str, trace_id: str = ""):
        index = self.push(name, layer, trace_id)
        try:
            yield index
        finally:
            self.pop(index)

    # -- after-the-fact spans ---------------------------------------------
    def record(self, name, layer, start, end, parent=None, trace_id="") -> int:
        span = Span(name, layer, start, parent, trace_id)
        span.end = end
        self.spans.append(span)
        return len(self.spans) - 1

    # -- analysis ----------------------------------------------------------
    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                out[span.parent].append(index)
        return out

    def covered(self, index: int, child_indexes: list[int]) -> float:
        """Seconds of span ``index`` that the given children cover
        (overlapping children are counted once)."""
        span = self.spans[index]
        total = 0.0
        edge = span.start
        for start, end in sorted(
            (max(self.spans[c].start, span.start), min(self.spans[c].end, span.end))
            for c in child_indexes
        ):
            start = max(start, edge)
            if end > start:
                total += end - start
                edge = end
        return total

    def sat_time(self, index: int) -> float:
        acc = self.spans[index].acc
        return sum(acc.get(key, 0.0) for key in SAT_TIME_KEYS)

    def self_time(self, index: int, child_indexes: list[int]) -> float:
        """Duration minus what the children cover minus accumulated ``sat`` time."""
        return self.spans[index].duration - self.covered(index, child_indexes) - self.sat_time(index)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer over every span; accumulated solver time
        is the ``sat`` layer's."""
        children = self.children()
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span.layer] += self.self_time(index, children[index])
            out["sat"] += self.sat_time(index)
        return dict(out)

    def accumulated(self, design: str | None = None) -> dict[str, float]:
        """Every accumulator summed over every span (of one design)."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if design is None or span.trace_id.split("/")[2:3] == [design]:
                for key, value in span.acc.items():
                    out[key] += value
        return out

    def layer_duration(self, layer: str) -> float:
        return sum(span.duration for span in self.spans if span.layer == layer)

    def dump(self, path: str) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [
            {
                "id": index,
                "name": span.name,
                "layer": span.layer,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                "trace_id": span.trace_id,
                "acc": dict(span.acc),
            }
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f)


# ----------------------------------------------------------------------
# bench-traced: the default solver with per-span accounting
# ----------------------------------------------------------------------
def register_traced_backend(tracer: Tracer) -> str:
    """Register ``bench-traced`` bound to ``tracer``; returns its name."""
    base = get_backend("cdcl")
    clock = time.perf_counter

    @register_backend(TRACED_BACKEND, replace=True)
    class TracedSolver(base):
        """Benchmark-owned: ``cdcl`` with per-span time and count accounting."""

        def __init__(self) -> None:
            super().__init__()
            tracer.acc["sat.solver_allocs"] += 1

        def add_clause(self, lits):
            start = clock()
            ok = base.add_clause(self, lits)
            acc = tracer.acc
            acc["sat.add_clause_s"] += clock() - start
            acc["sat.clauses_added"] += 1
            return ok

        def solve(self, assumptions=()):
            counters = self.counters
            before = [counters[key] for key in _SOLVE_COUNTERS]
            start = clock()
            try:
                return base.solve(self, assumptions)
            finally:
                acc = tracer.acc
                acc["sat.solve_s"] += clock() - start
                acc["sat.solves"] += 1
                for key, old in zip(_SOLVE_COUNTERS, before):
                    acc["sat." + key] += counters[key] - old

    return TRACED_BACKEND


# ----------------------------------------------------------------------
# Traced transition system: encode_* calls become spans
# ----------------------------------------------------------------------
class TracedTS(TransitionSystem):
    """A design whose ``encode_*`` calls open ``encode`` spans.

    The drivers call these methods on the object they were handed, so a
    subclass instance times the encoder inside a pass without touching
    it.  ``joint`` and COI reduction encode through views they build
    themselves; their encoding time stays inside the engine's span.
    """

    def __init__(self, aig, tracer: Tracer) -> None:
        super().__init__(aig)
        self._tracer = tracer

    def encode_step(self, solver):
        with self._tracer.span("encode_step", "encode"):
            return super().encode_step(solver)

    def encode_bad_frame(self, solver):
        with self._tracer.span("encode_bad_frame", "encode"):
            return super().encode_bad_frame(solver)

    def encode_init_frame(self, solver):
        with self._tracer.span("encode_init_frame", "encode"):
            return super().encode_init_frame(solver)


class CountingSink:
    """A ``ClauseSink`` that only counts: the encoder's cost without a solver."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses = 0

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits) -> bool:
        self.clauses += 1
        return True
