"""The incremental SAT backend API: protocol, registry, builtin backends.

Every engine in :mod:`repro.engines` speaks to its solver exclusively
through the :class:`SatBackend` protocol — fresh variables, clause
insertion, assumption-based ``solve`` with failed-assumption cores, and
activation-literal retirement for retractable clause groups.  Engines
never instantiate :class:`~repro.sat.solver.Solver` directly; they call
:func:`create_solver` with a backend *name*, resolved through a registry
that mirrors the strategy registry of :mod:`repro.session.registry`:

    from repro.sat import register_backend

    @register_backend("my-solver")
    class MySolver:
        \"\"\"One-line description shown by --list-backends.\"\"\"
        ...

Two backends ship builtin:

* ``cdcl`` — the reference pure-Python CDCL solver;
* ``cdcl-compact`` — the same search core tuned for a smaller memory
  footprint (tighter learned-clause database, shorter restarts), the
  proof that a second backend plugs in without touching any engine.

The process-wide default backend is ``cdcl``; the ``REPRO_SAT_BACKEND``
environment variable overrides it (this is how the CI matrix runs the
whole fast suite on the alternate backend), and every config surface
(:class:`~repro.config.VerificationConfig.solver_backend`,
CLI ``--backend``, engine options) overrides the environment.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from typing import Protocol, runtime_checkable

from .solver import Solver
from .types import Status

#: Environment variable naming the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_SAT_BACKEND"


class UnknownBackendError(KeyError):
    """Lookup of a SAT backend name that is not registered."""

    def __init__(self, name: str, available: list) -> None:
        super().__init__(name)
        self.name = name
        self.available = available

    def __str__(self) -> str:
        return (
            f"unknown SAT backend {self.name!r}; "
            f"available: {', '.join(self.available) or '(none)'}"
        )


@runtime_checkable
class SatBackend(Protocol):
    """What every engine requires of a pluggable incremental SAT solver.

    The contract is MiniSat-shaped and *incremental*: one instance
    absorbs clauses over its whole lifetime, answers many ``solve``
    calls under varying assumption sets, and supports retractable
    clause groups through activation literals, so repeated
    nearly-identical queries (IC3 consecution, BMC depth extension)
    never pay re-encoding costs.

    One further method is part of the contract but *optional*, which is
    why it is documented here and not declared below (a declared member
    would make ``isinstance(solver, SatBackend)`` reject every backend
    without it):

    ``add_block(num_vars, clauses) -> int``
        The bulk entry point.  Appends ``num_vars`` fresh variables and
        a block of clauses that mention only those variables, and
        returns the base ``b`` such that block variable ``v`` (1-based)
        is solver variable ``b + v``.  ``clauses`` are pre-normalised
        (:class:`repro.encode.cnf.CnfBlock`): internal literals ``2*v``
        / ``2*v + 1`` over the block's 0-based variables, each clause
        sorted, duplicate- and tautology-free.  The effect, counters
        included, must equal ``num_vars`` ``new_var`` calls followed by
        one ``add_clause`` per clause.  ``cdcl`` implements it and
        ``cdcl-compact`` inherits it; for a backend without it
        :meth:`CnfBlock.load <repro.encode.cnf.CnfBlock.load>` makes
        exactly those calls instead.
    """

    num_vars: int

    def new_var(self) -> int:
        """Create a fresh variable; returns its 1-based DIMACS index."""
        ...  # pragma: no cover - protocol

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Insert a clause of signed DIMACS literals (level 0 only)."""
        ...  # pragma: no cover - protocol

    def solve(self, assumptions: Sequence[int] = ()) -> Status:
        """Decide satisfiability under the given assumption literals."""
        ...  # pragma: no cover - protocol

    def value(self, lit: int) -> bool | None:
        """Model value of a signed literal after a SAT answer."""
        ...  # pragma: no cover - protocol

    def core(self) -> frozenset:
        """Failed assumptions after an UNSAT answer under assumptions."""
        ...  # pragma: no cover - protocol

    def new_activation(self) -> int:
        """A fresh activation literal guarding a retractable clause group."""
        ...  # pragma: no cover - protocol

    def retire(self, act: int) -> None:
        """Permanently disable the clause group guarded by ``act``."""
        ...  # pragma: no cover - protocol

    def stats(self) -> dict[str, int]:
        """A snapshot of work counters (``clauses_added``, ``conflicts``, ...)."""
        ...  # pragma: no cover - protocol


#: A backend factory: a zero-argument callable producing a fresh solver.
BackendFactory = Callable[[], SatBackend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(
    name: str, *, replace: bool = False
) -> Callable[[type], type]:
    """Class decorator: register a :class:`SatBackend` factory under ``name``.

    Unlike strategies (stateless, instantiated once), backends
    are *factories*: every engine query context gets its own fresh
    solver instance, so the class itself is registered and instantiated
    per :func:`create_solver` call.  Re-registration raises unless
    ``replace=True``.
    """

    def decorator(cls: type) -> type:
        if name in _REGISTRY and not replace:
            raise ValueError(f"SAT backend {name!r} is already registered")
        _REGISTRY[name] = cls
        return cls

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> BackendFactory:
    """Resolve a backend name; raises :class:`UnknownBackendError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, sorted(_REGISTRY)) from None


def available_backends() -> dict[str, str]:
    """Registered names mapped to one-line descriptions.

    The description is the first line of the factory's docstring —
    exactly what ``python -m repro --list-backends`` prints.
    """
    out: dict[str, str] = {}
    for name in sorted(_REGISTRY):
        doc = (_REGISTRY[name].__doc__ or "").strip()
        out[name] = doc.splitlines()[0] if doc else ""
    return out


def default_backend() -> str:
    """The process-wide default backend name.

    ``REPRO_SAT_BACKEND`` overrides the builtin ``"cdcl"`` default; an
    unregistered value raises immediately rather than at first solve.
    """
    name = os.environ.get(BACKEND_ENV_VAR, "").strip() or "cdcl"
    get_backend(name)  # fail fast on unknown names
    return name


def create_solver(backend: str | None = None) -> SatBackend:
    """Instantiate a fresh solver from a backend name.

    ``None`` resolves through :func:`default_backend` (environment,
    then ``"cdcl"``); this is the single constructor every engine uses.
    """
    return get_backend(backend if backend is not None else default_backend())()


# ----------------------------------------------------------------------
# Builtin backends
# ----------------------------------------------------------------------
register_backend("cdcl")(Solver)


@register_backend("cdcl-compact")
class CompactSolver(Solver):
    """Memory-lean CDCL variant: tight learned-clause DB, short restarts.

    The same two-watched-literal search core as ``cdcl``, tuned for the
    many-small-queries regime of incremental model checking: the
    learned-clause database is reduced an order of magnitude earlier
    (bounding resident clause memory on long IC3 runs) and restarts
    fire on a shorter Luby unit, which favours the shallow conflicts
    typical of consecution queries over deep monolithic searches.
    """

    RESTART_UNIT = 64
    LEARNT_CAP_BASE = 500
    LEARNT_CAP_SLOPE = 150
