"""The :class:`Session` facade: one entry point for every strategy.

A session binds a design (path, :class:`~repro.circuit.aig.AIG`, or
:class:`~repro.ts.system.TransitionSystem`) to one
:class:`~repro.config.VerificationConfig`, resolves the strategy
through the registry, and fans progress events out to subscribers.
Events can be consumed two ways:

* **callback** — ``Session(..., on_event=print)`` or
  :meth:`Session.subscribe`, then :meth:`Session.run`;
* **iterator** — ``for event in session.stream(): ...`` drives the run
  on a worker thread and yields events as they happen; the report is
  available as ``session.report`` once the iterator is exhausted.
"""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Iterator

from ..circuit.aig import AIG
from ..circuit.aiger import load_design
from ..config import ConfigError, VerificationConfig, resolve_order
from ..multiprop.report import MultiPropReport
from ..progress import Emit, ProgressEvent
from ..ts.system import TransitionSystem
from .registry import Strategy, get_strategy

DesignLike = str | os.PathLike | AIG | TransitionSystem

#: How often :meth:`Session.stream` wakes to notice a dead worker
#: thread that never delivered its end-of-stream sentinel.
_STREAM_POLL_TIMEOUT = 0.5


def prepare(
    design: DesignLike,
    config: VerificationConfig | None,
    overrides: dict[str, object],
) -> tuple[TransitionSystem, VerificationConfig, Strategy, list[str] | None]:
    """Normalise what ``Session(...)`` and ``service.submit(...)`` accept.

    Applies ``overrides`` on top of ``config`` (or of a default one),
    loads the design, names the run after the design's path unless the
    config already names it, and fails fast — before anything is queued
    — on an invalid config, an unknown strategy, a knob a pooled
    strategy cannot honour (``total_conflicts``) or unknown property
    names in ``order``.  Returns the design, the final config, its
    strategy and the resolved order (``None``: the design's own).
    """
    base = config if config is not None else VerificationConfig()
    if overrides:
        base = base.with_overrides(**overrides)
    if isinstance(design, TransitionSystem):
        ts = design
    elif isinstance(design, AIG):
        ts = TransitionSystem(design)
    elif isinstance(design, (str, os.PathLike)):
        path = os.fspath(design)
        ts = TransitionSystem(load_design(path))
        if base.design_name == "design":
            base = base.with_overrides(design_name=path)
    else:
        raise ConfigError(
            f"design must be a path, AIG, or TransitionSystem, "
            f"not {type(design).__name__}"
        )
    base.validate()
    strategy = get_strategy(base.strategy)
    if getattr(strategy, "pooled", False):
        # The seats prove each property under its own budget: refuse a
        # run-wide one, never ignore it.
        if base.total_conflicts is not None:
            raise ConfigError(
                f"total_conflicts is not supported by the pooled strategy "
                f"{base.strategy!r}"
            )
    return ts, base, strategy, resolve_order(ts, base.order)


class Session:
    """One verification run: design + config + event subscribers.

    ``overrides`` are :class:`VerificationConfig` fields applied on top
    of ``config`` (or of a default config when none is given), so the
    common cases stay one-liners::

        report = Session("design.aag", strategy="joint", total_time=60).run()
    """

    def __init__(
        self,
        design: DesignLike,
        config: VerificationConfig | None = None,
        *,
        on_event: Emit | None = None,
        **overrides: object,
    ) -> None:
        self.ts, self.config, _, _ = prepare(design, config, overrides)
        self.report: MultiPropReport | None = None
        self._subscribers: list[Emit] = []
        if on_event is not None:
            self.subscribe(on_event)

    # ------------------------------------------------------------------
    # Event channel
    # ------------------------------------------------------------------
    def subscribe(self, callback: Emit) -> Emit:
        """Register an event callback; returns it (usable as decorator)."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Emit) -> None:
        """Remove a previously subscribed callback."""
        self._subscribers.remove(callback)

    def _emit(self, event: ProgressEvent) -> None:
        for callback in list(self._subscribers):
            callback(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> MultiPropReport:
        """Run the configured strategy to completion, emitting events.

        A thin synchronous wrapper over
        :func:`~repro.service.core.run_one`: the run is the one job of
        a :class:`~repro.service.VerificationService`, so the one-shot
        API exercises exactly the machinery the server API does.  The
        job's lifecycle brackets the event stream:
        :class:`~repro.progress.JobQueued` comes first and
        :class:`~repro.progress.JobFinished` last, also when the
        strategy raises (status ``failed``, zeroed counters), so
        subscribers can always close their bookkeeping on it; the
        exception then propagates to the caller.
        """
        from ..service.core import run_one

        get_strategy(self.config.strategy)  # fail fast, as before
        self.report = run_one(self.ts, self.config, self._emit)
        return self.report

    def stream(self) -> Iterator[ProgressEvent]:
        """Run on a worker thread, yielding events as they are emitted.

        The generator terminates after
        :class:`~repro.progress.JobFinished`; the report is then
        available as :attr:`report`.  Exceptions raised by the
        strategy re-raise here, on the consumer's thread.

        Abandoning the iterator early (``break``, ``close()``) detaches
        rather than blocks: the strategy has no cancellation point, so
        the daemon worker keeps running in the background and ``report``
        is populated whenever it finishes.
        """
        events: "queue.Queue[object]" = queue.Queue()
        done = object()
        failure: list[BaseException] = []

        def pump(event: ProgressEvent) -> None:
            events.put(event)

        def worker() -> None:
            try:
                self.run()
            except BaseException as exc:  # re-raised on the consumer side
                failure.append(exc)
            finally:
                events.put(done)

        self.subscribe(pump)
        thread = threading.Thread(
            target=worker, name="repro-session", daemon=True
        )
        thread.start()
        finished = False
        try:
            while True:
                try:
                    item = events.get(timeout=_STREAM_POLL_TIMEOUT)
                except queue.Empty:
                    if not thread.is_alive():
                        # The worker died without its sentinel (killed
                        # thread, interpreter teardown): stop streaming
                        # rather than wait forever.
                        finished = True
                        break
                    continue
                if item is done:
                    finished = True
                    break
                yield item  # type: ignore[misc]
        finally:
            self.unsubscribe(pump)
            if finished:
                thread.join()
        if failure:
            raise failure[0]
