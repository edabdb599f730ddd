"""The strategy registry: how verification methods plug into `Session`.

A *strategy* is any object satisfying the :class:`Strategy` protocol —
a ``name``, and a ``run(ts, config, emit)`` returning a
:class:`~repro.multiprop.report.MultiPropReport`.  Strategies register
under a name with :func:`register_strategy`; the `Session` facade and
the CLI resolve names through :func:`get_strategy` and enumerate them
with :func:`available_strategies`, so adding a method (an external SAT
backend, a portfolio scheduler, a sharded runner) never requires
touching ``session`` or ``cli`` code:

    from repro.session import register_strategy

    @register_strategy("my-method")
    class MyMethod:
        \"\"\"One-line description shown by --list-strategies.\"\"\"

        def run(self, ts, config, emit):
            ...
            return report

The built-ins need no class: every driver (``ja_verify``,
``joint_verify``, …) already has ``run``'s signature, so
:mod:`repro.session.strategies` registers the functions themselves,
one table row each.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..multiprop.report import MultiPropReport
    from ..progress import Emit
    from ..ts.system import TransitionSystem
    from ..config import VerificationConfig


class UnknownStrategyError(KeyError):
    """Lookup of a strategy name that is not registered."""

    def __init__(self, name: str, available: list) -> None:
        super().__init__(name)
        self.name = name
        self.available = available

    def __str__(self) -> str:
        return (
            f"unknown strategy {self.name!r}; "
            f"available: {', '.join(self.available) or '(none)'}"
        )


@runtime_checkable
class Strategy(Protocol):
    """What `Session` requires of a pluggable verification method.

    Two optional attributes tell the service how to host it.  A
    strategy whose verdicts are *global* (no property assumed while
    another is proved) sets ``local = False``; the proof cache then
    certifies stored witnesses for it with no assumptions.  Absent, the
    strategy is taken to be local, like ``ja``.  A strategy whose
    properties are proved on the shared pool's seats sets
    ``pooled = True``; a :class:`~repro.service.VerificationService`
    then admits the job to its seat scheduler instead of calling
    ``run`` on a thread.  Absent, the strategy runs threaded.
    """

    name: str

    def run(
        self,
        ts: "TransitionSystem",
        config: "VerificationConfig",
        emit: "Emit",
    ) -> "MultiPropReport":
        """Verify every property of ``ts``, emitting progress events."""
        ...  # pragma: no cover - protocol


_REGISTRY: dict[str, Strategy] = {}


def register_strategy(
    name: str, *, replace: bool = False
) -> Callable[[type], type]:
    """Class decorator: instantiate and register a strategy under ``name``.

    The decorated class is instantiated once (strategies are
    stateless; per-run state belongs in the run) and its ``name``
    attribute is set to the registered name.  Re-registration raises
    unless ``replace=True`` — silent shadowing of a built-in would be a
    debugging nightmare.
    """

    def decorator(cls: type) -> type:
        add_strategy(name, cls(), replace=replace)
        return cls

    return decorator


def add_strategy(name: str, strategy: Strategy, *, replace: bool = False) -> None:
    """Register a strategy *object* under ``name`` (and name it so)."""
    if name in _REGISTRY and not replace:
        raise ValueError(f"strategy {name!r} is already registered")
    strategy.name = name
    _REGISTRY[name] = strategy


def unregister_strategy(name: str) -> None:
    """Remove a registered strategy (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_strategy(name: str) -> Strategy:
    """Resolve a strategy name; raises :class:`UnknownStrategyError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(name, sorted(_REGISTRY)) from None


def available_strategies() -> dict[str, str]:
    """Registered names mapped to one-line descriptions.

    The description is the first line of the strategy's docstring —
    exactly what ``python -m repro --list-strategies`` prints.
    """
    out: dict[str, str] = {}
    for name in sorted(_REGISTRY):
        doc = (_REGISTRY[name].__doc__ or "").strip()
        out[name] = doc.splitlines()[0] if doc else ""
    return out
