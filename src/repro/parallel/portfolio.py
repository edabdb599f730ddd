"""Per-property engine racing inside one seat (portfolio mode).

The portfolio strategy races an *engine slate* — by default the random
walk falsifier, BMC, k-induction and the full IC3/JA ladder — on every
property.  A portfolio job is an ordinary pooled job: its backlog holds
one :class:`~repro.parallel.worker.PropertyJob` per property, carrying
the slate, and its :class:`~repro.parallel.engine.PooledJob` takes each
verdict the way it takes a ``parallel-ja`` one — so fair share, the
watchdog, a user's cancel and crash re-dispatch act on a race exactly
as they act on a local proof.

The race runs on the seat that holds the property (:func:`race`), the
way SMPT races its engines inside one process.  It goes in rounds
r = 0, 1, 2, …: in each, every engine still in the rotation runs once,
in slate order, on a slice of 2^r times its base (:data:`BASE_SLICES`).
Slices count work units — walks, depths, conflicts — never wall time,
so a seeded race replays exactly, whichever seat runs it.  The first
definitive verdict ends the race.  An engine leaves the rotation once a
slice reached its natural bound (:func:`_bound`) or came back UNKNOWN
for another reason than running out, and the last engine left runs to
its bound at once.  Each slice restarts its engine; with doubling
slices, the restarts before the deciding slice cost at most as much as
that slice.  Nothing is ever left running against a decided property.

``report.stats["portfolio"]`` records, per property, the winning
engine, the verdict, the race's wall-clock on its seat and the error
of every engine that raised.
"""

from __future__ import annotations

import time
from dataclasses import replace
from collections.abc import Callable, Sequence

from ..cache.hashing import joined_digest
from ..config import ProofOptions, VerificationConfig
from ..engines.bmc import bmc_check
from ..engines.certify import Certifier
from ..engines.kinduction import kinduction_check
from ..engines.randomwalk import randomwalk_check
from ..engines.result import PropStatus, ResourceBudget
from ..multiprop.clausedb import ClauseDB
from ..multiprop.cones import ConeMemo
from ..multiprop.local import outcome_of, prove
from ..multiprop.report import MultiPropReport, PropOutcome
from ..progress import (
    AttemptStarted,
    Emit,
    PortfolioDecided,
    PropertySolved,
    PropertyStarted,
    emit_or_null,
)
from ..ts.projection import assumption_names
from ..ts.system import TransitionSystem

__all__ = [
    "BASE_SLICES",
    "ENGINE_NAMES",
    "parse_engine_slate",
    "portfolio_verify",
    "race",
]

#: Engines the portfolio can race, in default slate order: the cheap
#: falsifiers take their slice of each round first.
ENGINE_NAMES: tuple[str, ...] = ("rw", "bmc", "kind", "ic3")

#: Round-0 slice of each engine, in its own work unit: random walks,
#: BMC depth, induction depth ``k``, IC3 conflicts.  Round ``r`` gives
#: every engine ``2**r`` times its base.
BASE_SLICES = {"rw": 16, "bmc": 8, "kind": 4, "ic3": 1000}


def parse_engine_slate(spec: str | Sequence[str] | None) -> tuple[str, ...]:
    """Validate an engine-slate spec (comma string or sequence).

    ``None`` or an empty string means the full default slate.  Raises
    ``ValueError`` on unknown names, duplicates, or an empty explicit
    slate — the same message the config/CLI layers surface verbatim.
    """
    if spec is None:
        return ENGINE_NAMES
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
        if not names and not spec.strip():
            return ENGINE_NAMES
    else:
        names = list(spec)
    if not names:
        raise ValueError("portfolio engine slate must name at least one engine")
    unknown = sorted(set(names) - set(ENGINE_NAMES))
    if unknown:
        raise ValueError(
            f"unknown portfolio engine(s) {unknown}; "
            f"known: {list(ENGINE_NAMES)}"
        )
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate portfolio engine(s) in {names}")
    return tuple(names)


def _bound(engine: str, options: ProofOptions) -> int | None:
    """The engine's natural bound in its slice unit; IC3 has none (it
    stops at ``max_frames`` by itself)."""
    if engine == "ic3":
        return None
    if engine == "rw":
        return 512
    return min(options.max_frames, 256 if engine == "bmc" else 64)


def _round_seed(seed: int, r: int) -> int:
    """The random walk's seed in round ``r``: no walk is repeated."""
    return int.from_bytes(joined_digest(seed, r)[:8], "big")


def _slice(
    engine: str,
    ts: TransitionSystem,
    name: str,
    assumed: list[str],
    options: ProofOptions,
    db: ClauseDB,
    emit: Emit,
    budget: ResourceBudget,
    size: int | None,
    seed: int,
    certifier: Certifier | None,
    cones: ConeMemo | None,
) -> PropOutcome:
    """Run ``engine`` for at most ``size`` of its work units.

    IC3's unit is conflicts, which ``budget`` caps; the others take
    ``size`` as their walk count or depth.  BMC and k-induction pin the
    assumed properties on every frame before the one under test, and
    the random walk abandons any trace where an assumed property fails
    first — so a FAILS from any of them is a local counterexample.
    """
    if engine == "ic3":
        outcome, _ = prove(
            ts, name, assumed, options, db, emit, budget=budget, certifier=certifier,
            cones=cones,
        )
        return outcome
    if engine == "rw":
        result = randomwalk_check(
            ts, name, restarts=size, seed=seed, assumed=assumed, budget=budget, emit=emit
        )
    elif engine == "bmc":
        result = bmc_check(
            ts,
            name,
            max_depth=size,
            assumed=assumed,
            budget=budget,
            emit=emit,
            solver_backend=options.solver_backend,
        )
    else:
        result = kinduction_check(
            ts,
            name,
            max_k=size,
            assumed=assumed,
            budget=budget,
            solver_backend=options.solver_backend,
        )
    return outcome_of(ts, result)


def race(
    ts: TransitionSystem,
    name: str,
    slate: Sequence[str],
    options: ProofOptions,
    db: ClauseDB | None,
    emit: Emit | None,
    *,
    seed: int,
    stop: Callable[[], bool] | None = None,
    certifier: Certifier | None = None,
    cones: ConeMemo | None = None,
) -> PropOutcome:
    """Decide ``name`` by racing ``slate`` in doubling slices (see above).

    Emits ``PropertyStarted``, an ``AttemptStarted`` when an engine's
    first slice begins, the engines' own progress, and at the end
    ``PortfolioDecided`` and ``PropertySolved`` — one of each per race,
    however many IC3 ladders ran.  ``options``' per-property budget and
    ``stop`` bound the race as a whole: every slice draws on one
    :class:`~repro.engines.result.ResourceBudget`.  ``seed`` is the
    random walk's sub-seed; IC3 seeds from ``db`` but exports into a
    copy, so one race never seeds another and the winner does not depend
    on what the seat decided before.  ``certifier`` and ``cones`` are the
    seat's; they only check proofs and build cones, so sharing them
    decides nothing.  An engine that raises leaves the rotation; if no
    engine decides, its error is raised
    (``RuntimeError``), else it is listed in the verdict's ``errors``.
    """
    send = emit_or_null(emit)
    start = time.monotonic()
    assumed = assumption_names(ts, name)
    budget = options.budget(stop)
    send(PropertyStarted(name=name, assumed=tuple(assumed)))

    def engine_emit(event) -> None:
        # Every IC3 slice is a whole ladder, which brackets itself.
        if not isinstance(event, (PropertyStarted, PropertySolved)):
            send(event)

    scratch = ClauseDB(ts)
    if db is not None:
        scratch.add_all(db.clauses())
    rotation, ran, errors = list(slate), [], []
    verdict, frames, r = None, 0, 0
    while rotation and verdict is None and not budget.exhausted():
        for engine in list(rotation):
            if budget.exhausted():
                break
            bound = _bound(engine, options)
            size = BASE_SLICES[engine] << r
            if len(rotation) == 1 or (bound is not None and size >= bound):
                size = bound
            if engine not in ran:
                ran.append(engine)
                send(AttemptStarted(name=name, engine=engine))
            piece = budget.slice(size if engine == "ic3" else None)
            try:
                outcome = _slice(
                    engine, ts, name, assumed, options, scratch,
                    engine_emit, piece, size, _round_seed(seed, r), certifier, cones,
                )
            except Exception as exc:  # noqa: BLE001 - recorded, race goes on
                errors.append(f"{engine}: {type(exc).__name__}: {exc}")
                rotation.remove(engine)
                continue
            if outcome.status is not PropStatus.UNKNOWN:
                outcome.engine = engine
                verdict = outcome
                break
            frames = max(frames, outcome.frames)
            # Out of rotation at its bound, or when IC3 stopped short of
            # its conflict cap (it hit max_frames).
            if size == bound or (engine == "ic3" and not piece.exhausted()):
                rotation.remove(engine)
        r += 1
    wall = time.monotonic() - start
    if verdict is None:
        if errors:
            raise RuntimeError("; ".join(errors))
        verdict = PropOutcome(
            name=name,
            status=PropStatus.UNKNOWN,
            local=True,
            frames=frames,
            assumed=list(assumed),
            expected_to_fail=ts.prop_by_name[name].expected_to_fail,
        )
    verdict.time_seconds = wall
    verdict.errors = errors
    send(
        PortfolioDecided(
            name=name,
            winner=verdict.engine,
            status=verdict.status,
            wall_s=wall,
            losers=tuple(engine for engine in ran if engine != verdict.engine),
        )
    )
    send(verdict.solved_event())
    return verdict


def race_stats(
    workers: int,
    slate: tuple[str, ...],
    seed: int | None,
    outcomes: Sequence[PropOutcome],
) -> dict:
    """A portfolio report's ``stats``: the slate, and per property the
    race record its verdict carries."""
    return {
        "mode": "portfolio",
        "workers": workers,
        "engines": list(slate),
        "seed": seed,
        "exchange": 0,
        "portfolio": {
            outcome.name: {
                "winner": outcome.engine,
                "status": outcome.status.value,
                "wall_s": outcome.time_seconds,
                "errors": list(outcome.errors),
            }
            for outcome in outcomes
        },
    }


def portfolio_verify(
    ts: TransitionSystem,
    config: VerificationConfig | None = None,
    emit: Emit | None = None,
) -> MultiPropReport:
    """Per-property engine racing: first definitive verdict wins.

    Races the configured slate (``portfolio_engines``, default
    ``rw,bmc,kind,ic3``) per property as one job on the seat scheduler,
    one seat per property at a time, and records the winning engine per
    property in ``report.stats["portfolio"]``.

    Verdict parity with sequential JA-verification is structural: every
    engine in the slate decides under the same local (``T^P``)
    semantics, provers (IC3/k-induction) alone may return HOLDS, and
    falsifier counterexamples are replay-validated before they are
    reported — so whichever engine wins, the verdict is one sequential
    ``ja`` would also reach.  The parity suite asserts it end to end.
    """
    from ..service.core import run_one

    # The strategy name is what makes the pooled job a race.
    config = replace(config or VerificationConfig(), strategy="portfolio")
    return run_one(ts, config, emit)
