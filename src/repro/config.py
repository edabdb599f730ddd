"""The run's options: one record, read by name where a knob acts.

A knob is a :class:`VerificationConfig` field.  Every driver —
``ja_verify``, ``joint_verify``, ``clustered_verify``, the pool's
:meth:`~repro.parallel.engine.SeatScheduler.admit` — takes the config
itself and reads the fields it acts on; no driver hands another a
narrowed copy of it.  A field a method has no use for is ignored,
mirroring how the paper's tables vary one axis at a time.

:class:`ProofOptions` is the one projection of a config
(:meth:`VerificationConfig.proof_options`): the frozen, picklable
record :func:`~repro.multiprop.local.prove` reads and the pool ships to
its seats — what crosses a process boundary, and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from collections.abc import Callable, Sequence

from .engines.result import ResourceBudget
from .ts.system import TransitionSystem

#: Named property orders understood by :func:`resolve_order`.
ORDER_NAMES = ("design", "cone")

#: ``cache_mode`` values, from the least the store may do to the most.
CACHE_MODES = ("off", "read", "readwrite")


class ConfigError(ValueError):
    """A :class:`VerificationConfig` failed validation."""


@dataclass(frozen=True)
class ProofOptions:
    """The knobs of one local proof (frozen and picklable)."""

    clause_reuse: bool = True
    respect_constraints_in_lifting: bool = False
    # Cone-of-influence front end: reduce the design to the joint cone
    # of the target and the (transitively) support-overlapping
    # assumptions.  Assumptions with disjoint support are dropped, which
    # is sound for HOLDS verdicts (fewer assumptions = stronger proof);
    # counterexamples are re-validated against the *full* assumption set
    # and the property is re-run without reduction if they turn out
    # spurious.  See EXPERIMENTS.md's COI ablation.
    coi_reduction: bool = False
    ctg: bool = False  # forwarded to IC3 generalization
    max_frames: int = 500
    # SAT backend name (repro.sat registry); None = process default.
    solver_backend: str | None = None
    per_property_time: float | None = None
    per_property_conflicts: int | None = None

    def budget(self, stop: Callable[[], bool] | None = None) -> ResourceBudget:
        """A fresh per-property budget: one property's proof, or its race.

        ``stop`` is the caller's give-up check (see :class:`ResourceBudget`).
        """
        return ResourceBudget(
            time_limit=self.per_property_time,
            conflict_limit=self.per_property_conflicts,
            stop=stop,
        )


@dataclass
class VerificationConfig:
    """Everything one verification run needs, in one object.

    Fields irrelevant to the selected strategy are ignored by it (e.g.
    ``workers`` outside the pooled strategies).
    """

    strategy: str = "ja"
    # -- budgets -------------------------------------------------------
    total_time: float | None = None
    per_property_time: float | None = None
    per_property_conflicts: int | None = None
    total_conflicts: int | None = None
    # -- property ordering ---------------------------------------------
    #: ``None`` (design order), ``"design"``, ``"cone"``,
    #: ``"shuffled:<seed>"``, or an explicit sequence of property names.
    order: None | str | Sequence[str] = None
    # -- clause re-use (Section 6) -------------------------------------
    clause_reuse: bool = True
    # -- local-proof details (Sections 6-C, 7-A) -----------------------
    respect_constraints_in_lifting: bool = False
    coi_reduction: bool = False
    ctg: bool = False
    # -- engine ceiling ------------------------------------------------
    max_frames: int = 500
    # -- SAT backend (repro.sat registry) ------------------------------
    #: ``None`` uses the process default (``REPRO_SAT_BACKEND`` env var,
    #: then ``"cdcl"``); any registered backend name selects explicitly.
    solver_backend: str | None = None
    # -- parallel-ja specifics (Section 11) ----------------------------
    #: Worker processes; ``None`` means one per CPU (capped by #props).
    workers: int | None = None
    #: Live clause exchange between workers (requires ``clause_reuse``).
    exchange: bool = True
    #: A persistent :class:`repro.parallel.WorkerPool` shared across
    #: ``Session.run()`` calls; ``None``: a pool of the run's own.  A
    #: live in-process object, so API-only: no command-line value names it.
    pool: object | None = None  # repro: ignore[config-hygiene]
    # -- service specifics (repro.service) -----------------------------
    #: Default fair-share weight when this config is ``submit()``-ed to
    #: a :class:`repro.service.VerificationService` (> 0; a job holding
    #: seats proportional to its weight relative to its siblings').
    priority: float = 1.0
    # -- portfolio specifics (repro.parallel.portfolio) ----------------
    #: Run-level seed for stochastic engines (the random-walk
    #: falsifier); per-property sub-seeds are derived deterministically
    #: from it, so equal seeds give bit-identical runs.  ``None`` means
    #: seed 0 (still deterministic).
    seed: int | None = None
    #: Engine slate the portfolio strategy races per property, as a
    #: comma-separated subset of ``rw,bmc,kind,ic3`` (the order each
    #: round gives them their slices); ``None`` races the full default
    #: slate.
    portfolio_engines: str | None = None
    # -- cross-run proof cache (repro.cache) ---------------------------
    #: Root directory of the content-addressed proof store; ``None``
    #: disables caching entirely.
    cache_dir: str | None = None
    #: ``"off"`` ignores the store, ``"read"`` serves certified hits but
    #: never writes, ``"readwrite"`` (default) also persists fresh
    #: HOLDS/FAILS verdicts and warm clause logs.  Only meaningful with
    #: ``cache_dir`` set.  Unless ``"off"``, the design's warm log (the
    #: paper's external clauseDB, Section 7-B) seeds the clause DBs of
    #: ``clause_reuse`` runs; ``joint`` and ``clustered`` keep none.
    cache_mode: str = "readwrite"
    # -- reporting -----------------------------------------------------
    design_name: str = "design"

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigError` on any inconsistent field."""
        if not self.strategy or not isinstance(self.strategy, str):
            raise ConfigError("strategy must be a non-empty string")
        for name in (
            "total_time",
            "per_property_time",
            "per_property_conflicts",
            "total_conflicts",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value!r}")
        if self.max_frames < 1:
            raise ConfigError(f"max_frames must be >= 1, got {self.max_frames!r}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers!r}")
        if (
            isinstance(self.priority, bool)
            or not isinstance(self.priority, (int, float))
            or self.priority <= 0
        ):
            raise ConfigError(f"priority must be > 0, got {self.priority!r}")
        if self.pool is not None:
            from .parallel.pool import WorkerPool

            if not isinstance(self.pool, WorkerPool):
                raise ConfigError(
                    f"pool must be a repro.parallel.WorkerPool or None, "
                    f"not {type(self.pool).__name__}"
                )
            if self.pool.closed:
                raise ConfigError("pool has been shut down")
        from .sat import UnknownBackendError, default_backend, get_backend

        try:
            if self.solver_backend is not None:
                get_backend(self.solver_backend)
            else:
                default_backend()  # catch a bogus REPRO_SAT_BACKEND early
        except UnknownBackendError as exc:
            raise ConfigError(str(exc)) from None
        if self.seed is not None and (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, int)
            or self.seed < 0
        ):
            raise ConfigError(
                f"seed must be a non-negative int or None, got {self.seed!r}"
            )
        if self.portfolio_engines is not None:
            from .parallel.portfolio import parse_engine_slate

            try:
                parse_engine_slate(self.portfolio_engines)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.cache_mode not in CACHE_MODES:
            raise ConfigError(
                f"unknown cache_mode {self.cache_mode!r}; "
                f"expected 'off', 'read' or 'readwrite'"
            )
        if self.cache_dir is not None and (
            not isinstance(self.cache_dir, str) or not self.cache_dir
        ):
            raise ConfigError(
                f"cache_dir must be a non-empty path or None, got {self.cache_dir!r}"
            )
        self._validate_order_spec()

    def _validate_order_spec(self) -> None:
        order = self.order
        if order is None:
            return
        if isinstance(order, str):
            if order in ORDER_NAMES:
                return
            if order.startswith("shuffled:"):
                seed = order.split(":", 1)[1]
                try:
                    int(seed)
                except ValueError:
                    raise ConfigError(
                        f"unknown order {order!r}: shuffled seed must be an integer"
                    ) from None
                return
            raise ConfigError(
                f"unknown order {order!r}; expected one of "
                f"{', '.join(ORDER_NAMES)}, shuffled:<seed>, or a name list"
            )
        if not all(isinstance(name, str) for name in order):
            raise ConfigError("an explicit order must be a sequence of property names")

    # ------------------------------------------------------------------
    def proof_options(self) -> ProofOptions:
        """The local-proof knobs of this run, as ``prove`` reads them."""
        return ProofOptions(
            clause_reuse=self.clause_reuse,
            respect_constraints_in_lifting=self.respect_constraints_in_lifting,
            coi_reduction=self.coi_reduction,
            ctg=self.ctg,
            max_frames=self.max_frames,
            solver_backend=self.solver_backend,
            per_property_time=self.per_property_time,
            per_property_conflicts=self.per_property_conflicts,
        )

    def with_overrides(self, **overrides: object) -> "VerificationConfig":
        """A copy with the given fields replaced (unknown names rejected)."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        return replace(self, **overrides)


def resolve_order(
    ts: TransitionSystem, order: None | str | Sequence[str]
) -> list[str] | None:
    """Turn a config order spec into an explicit property-name list.

    ``None`` stays ``None`` (drivers default to design order); unknown
    names in an explicit list are rejected here so every strategy fails
    the same way.
    """
    from .multiprop.ordering import by_cone_size, design_order, shuffled

    if order is None:
        return None
    if isinstance(order, str):
        if order == "design":
            return design_order(ts)
        if order == "cone":
            return by_cone_size(ts)
        if order.startswith("shuffled:"):
            return shuffled(ts, int(order.split(":", 1)[1]))
        raise ConfigError(f"unknown order {order!r}")
    names = list(order)
    unknown = set(names) - {p.name for p in ts.properties}
    if unknown:
        raise ConfigError(f"unknown properties in order: {sorted(unknown)}")
    return names
