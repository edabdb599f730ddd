"""Route matrix: every way to a seat is the same way.

A pooled strategy can be reached as a one-shot ``Session`` (with or
without a caller pool), as a direct driver call, or as a job submitted
to a service that owns or attaches to its pool.  All five are one job
on a :class:`~repro.service.VerificationService`'s scheduler, so every
column must agree on verdicts, frames, the debugging set and the shape
of ``report.stats``, and carry the job lifecycle in its event stream.
The rows come from the registry: a pooled strategy registered later is
in the matrix by default.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.gen import ALL_TRUE_SPECS, FAILING_SPECS, buggy_counter
from repro.parallel import WorkerPool
from repro.progress import JobFinished, JobQueued, JobStarted, PoolAttached
from repro.service import VerificationService
from repro.session import (
    Session,
    VerificationConfig,
    available_strategies,
    get_strategy,
)
from repro.ts.system import TransitionSystem

POOLED = [
    name
    for name in available_strategies()
    if getattr(get_strategy(name), "pooled", False)
]


def _session(ts, strategy, events):
    return Session(ts, strategy=strategy, workers=1, on_event=events.append).run()


def _session_on_pool(ts, strategy, events):
    with WorkerPool(workers=1) as pool:
        return Session(
            ts, strategy=strategy, workers=1, pool=pool, on_event=events.append
        ).run()


def _driver(ts, strategy, events):
    return get_strategy(strategy).run(
        ts, VerificationConfig(workers=1), events.append
    )


def _owned_service(ts, strategy, events):
    with VerificationService(workers=1) as service:
        return service.submit(
            ts, strategy=strategy, on_event=events.append
        ).result(timeout=120)


def _attached_service(ts, strategy, events):
    with WorkerPool(workers=1) as pool, VerificationService(pool=pool) as service:
        return service.submit(
            ts, strategy=strategy, on_event=events.append
        ).result(timeout=120)


#: route -> whether the service behind it created the pool itself
ROUTES = {
    _session: True,
    _session_on_pool: False,
    _driver: True,
    _owned_service: True,
    _attached_service: False,
}

DESIGNS = {
    "toggler": None,  # the conftest fixture
    "counter4": lambda: buggy_counter(bits=4),
    "f175": FAILING_SPECS["f175"].build,
}


def _verdicts(report):
    return {
        name: (outcome.status, outcome.frames)
        for name, outcome in report.outcomes.items()
    }


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("strategy", POOLED)
def test_every_route_is_the_same_pooled_job(strategy, design, toggler):
    build = DESIGNS[design]
    columns = {}
    for route, ephemeral in ROUTES.items():
        ts = toggler if build is None else TransitionSystem(build())
        events: list = []
        report = route(ts, strategy, events)
        columns[route.__name__] = report
        kinds = [type(event) for event in events]
        assert kinds.index(JobQueued) < kinds.index(JobStarted) < kinds.index(JobFinished)
        started = events[kinds.index(JobStarted)]
        assert (started.mode, started.strategy) == ("pool", strategy)
        attached = events[kinds.index(PoolAttached)]
        assert attached.persistent is not ephemeral, route.__name__
        assert (attached.workers, attached.runs) == (1, 0)
        if "pool" in report.stats:
            expected = "ephemeral" if ephemeral else "persistent"
            assert report.stats["pool"] == expected, route.__name__
            # One run on a fresh pool, the design shipped once.
            assert report.stats["pool_runs"] == 1
            assert report.stats["design_pickles"] == 1
    reference = columns.pop("_session")
    assert reference.method == strategy
    for name, report in columns.items():
        assert _verdicts(report) == _verdicts(reference), name
        assert report.debugging_set() == reference.debugging_set(), name
        assert report.stats.keys() == reference.stats.keys(), name
        assert report.method == reference.method


@pytest.mark.slow
@pytest.mark.parametrize("family", [*ALL_TRUE_SPECS, *FAILING_SPECS])
def test_one_shot_parallel_ja_agrees_with_ja(family):
    spec = {**ALL_TRUE_SPECS, **FAILING_SPECS}[family]
    sequential = Session(TransitionSystem(spec.build()), strategy="ja").run()
    pooled = Session(
        TransitionSystem(spec.build()), strategy="parallel-ja", workers=1
    ).run()
    assert {n: o.status for n, o in pooled.outcomes.items()} == {
        n: o.status for n, o in sequential.outcomes.items()
    }
    assert pooled.debugging_set() == sequential.debugging_set()


@pytest.mark.slow
@pytest.mark.parametrize("family", [*ALL_TRUE_SPECS, *FAILING_SPECS])
def test_one_shot_portfolio_agrees_with_ja(family):
    spec = {**ALL_TRUE_SPECS, **FAILING_SPECS}[family]
    sequential = Session(TransitionSystem(spec.build()), strategy="ja").run()
    raced = Session(
        TransitionSystem(spec.build()), strategy="portfolio", workers=2, seed=0
    ).run()
    assert {n: o.status for n, o in raced.outcomes.items()} == {
        n: o.status for n, o in sequential.outcomes.items()
    }
    assert raced.debugging_set() == sequential.debugging_set()


def test_one_scheduler_and_one_pool_factory():
    """Structural pin: nothing outside the service builds a scheduler,
    and nothing outside the service and the pool module builds a pool."""
    root = Path(repro.__file__).parent
    built: dict[str, list[str]] = {"SeatScheduler": [], "WorkerPool": []}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name in built:
                    built[name].append(path.relative_to(root).as_posix())
    assert built["SeatScheduler"] == ["service/core.py"]
    assert set(built["WorkerPool"]) == {"service/core.py", "parallel/pool.py"}
