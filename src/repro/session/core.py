"""The :class:`Session` facade: one entry point for every strategy.

A session binds a design (path, :class:`~repro.circuit.aig.AIG`, or
:class:`~repro.ts.system.TransitionSystem`) to one
:class:`~repro.config.VerificationConfig`, resolves the strategy
through the registry, and fans progress events out to subscribers.
Events can be consumed two ways:

* **callback** — ``Session(..., on_event=print)`` or
  :meth:`Session.subscribe`, then :meth:`Session.run`;
* **iterator** — ``for event in session.stream(): ...`` submits the
  run as one service job and yields its handle's event log as it grows
  (:meth:`~repro.service.JobHandle.events`); the report is available
  as ``session.report`` once the iterator is exhausted.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import Future

from ..circuit.aig import AIG
from ..circuit.aiger import load_design
from ..config import ConfigError, VerificationConfig, resolve_order
from ..multiprop.report import MultiPropReport
from ..progress import Emit, ProgressEvent
from ..ts.system import TransitionSystem
from .registry import Strategy, get_strategy

DesignLike = str | os.PathLike | AIG | TransitionSystem


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
        """Run as one service job, yielding its events as they are logged.

        The generator terminates after
        :class:`~repro.progress.JobFinished`; the report is then
        available as :attr:`report`.  Exceptions raised by the
        strategy re-raise here.

        Abandoning the iterator early (``break``, ``close()``) cancels a
        queued or pooled job (``report`` stays ``None``); closing waits
        for a pooled job's seats to give up at their next budget check.
        A running threaded strategy has no cancellation point, so it
        detaches rather than blocks: the run finishes in the background
        and ``report`` is populated then.
        """
        from ..service.core import start_one

        service, handle = start_one(self.ts, self.config, self._emit)
        try:
            yield from handle.events()
            self.report = handle.result()
        finally:
            # Only a threaded job refuses a cancel while it is live, and
            # close(timeout=0) is safe for it alone: it would tear down a
            # pooled job's scheduler under the dispatcher.
            if handle.cancel() or handle.status.terminal:
                service.close()
            else:
                handle.done.add_done_callback(self._keep_report)
                service.close(timeout=0)

    def _keep_report(self, done: Future[MultiPropReport]) -> None:
        if done.exception() is None:
            self.report = done.result()
