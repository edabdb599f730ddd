"""A cached verdict is served under the *requester's* assumptions.

``buggy_counter(4)``: P0 fails; P1 fails globally only after P0 has, so
it holds locally (``ja``) and fails globally (``separate``, ``joint``,
``clustered``).  One store shared by both kinds of strategy must never
hand either the other's verdict.
"""

from __future__ import annotations

import pytest

from repro.gen import ALL_TRUE_SPECS
from repro.gen.counter import buggy_counter
from repro.progress import PropertySolved
from repro.session import Session

GLOBAL = ("separate", "joint", "clustered")


def _summary(report):
    return {n: (o.status.value, o.local) for n, o in report.outcomes.items()}


@pytest.mark.parametrize("strategy", GLOBAL)
def test_global_strategy_on_a_ja_written_cache(tmp_path, strategy):
    Session(buggy_counter(4), strategy="ja", cache_dir=str(tmp_path)).run()
    cold = Session(buggy_counter(4), strategy=strategy).run()
    warm = Session(buggy_counter(4), strategy=strategy, cache_dir=str(tmp_path)).run()
    assert _summary(warm) == _summary(cold)
    assert _summary(warm)["P1"] == ("fails", False)
    # The local invariant was rejected and P1 re-proved, not served.
    assert warm.outcomes["P1"].engine != "cache"


def test_local_counterexample_still_hits_for_a_global_request(tmp_path):
    Session(buggy_counter(4), strategy="ja", cache_dir=str(tmp_path)).run()
    warm = Session(buggy_counter(4), strategy="separate", cache_dir=str(tmp_path)).run()
    assert warm.outcomes["P0"].engine == "cache"
    assert _summary(warm)["P0"] == ("fails", False)


def test_ja_on_a_separate_written_cache(tmp_path):
    # The mirror image: P1's global counterexample is spurious locally
    # (P0 fails first), so ``ja`` must re-prove it rather than report it.
    Session(buggy_counter(4), strategy="separate", cache_dir=str(tmp_path)).run()
    warm = Session(buggy_counter(4), strategy="ja", cache_dir=str(tmp_path)).run()
    assert _summary(warm) == {"P0": ("fails", True), "P1": ("holds", True)}
    assert warm.outcomes["P0"].engine == "cache"
    assert warm.outcomes["P1"].engine != "cache"
    assert warm.debugging_set() == ["P0"]


@pytest.mark.parametrize("strategy", ["joint", "clustered"])
def test_a_global_strategy_proves_only_what_the_cache_left(tmp_path, strategy):
    # After a partial hit the strategy proves the remainder and nothing
    # else: a served verdict is reported as served, never re-proved.
    Session(ALL_TRUE_SPECS["t273"].build(), strategy="ja", cache_dir=str(tmp_path)).run()
    events: list = []
    warm = Session(
        ALL_TRUE_SPECS["t273"].build(),
        strategy=strategy,
        cache_dir=str(tmp_path),
        on_event=events.append,
    ).run()
    served = [n for n, o in warm.outcomes.items() if o.engine == "cache"]
    proved = [e.name for e in events if isinstance(e, PropertySolved)]
    assert 0 < len(served) == warm.stats["cache_hits"] < len(warm.outcomes)
    assert sorted(proved) == sorted(set(warm.outcomes) - set(served))
