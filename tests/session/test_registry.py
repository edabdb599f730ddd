"""Registry round-trips: registration, lookup, and Session dispatch."""

from __future__ import annotations

import pytest

from repro.engines.result import PropStatus
from repro.multiprop.report import MultiPropReport, PropOutcome
from repro.session import (
    Session,
    Strategy,
    UnknownStrategyError,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)

BUILTINS = {"ja", "joint", "separate", "clustered", "parallel-ja", "portfolio"}


@pytest.fixture
def dummy_strategy():
    """Register a trivial all-UNKNOWN strategy; unregister afterwards."""

    @register_strategy("dummy")
    class Dummy:
        """Marks every property unknown without doing any work."""

        def run(self, ts, config, emit):
            report = MultiPropReport(method="dummy", design=config.design_name)
            for prop in ts.properties:
                report.outcomes[prop.name] = PropOutcome(
                    name=prop.name, status=PropStatus.UNKNOWN, local=False
                )
            return report

    yield Dummy
    unregister_strategy("dummy")


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_strategies()) == BUILTINS

    def test_descriptions_are_docstring_first_lines(self):
        assert "local proofs" in available_strategies()["ja"]

    def test_builtin_satisfies_protocol(self):
        assert isinstance(get_strategy("ja"), Strategy)
        assert get_strategy("joint").name == "joint"

    def test_unknown_strategy_error_lists_available(self):
        with pytest.raises(UnknownStrategyError) as exc_info:
            get_strategy("nope")
        message = str(exc_info.value)
        assert "nope" in message and "ja" in message

    def test_duplicate_registration_rejected(self, dummy_strategy):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("dummy")(dummy_strategy)

    def test_replace_allows_reregistration(self, dummy_strategy):
        register_strategy("dummy", replace=True)(dummy_strategy)
        assert "dummy" in available_strategies()

    def test_unregister_is_idempotent(self):
        unregister_strategy("never-registered")


class TestSessionDispatch:
    def test_dummy_round_trip_through_session(self, counter4, dummy_strategy):
        report = Session(counter4, strategy="dummy").run()
        assert report.method == "dummy"
        assert {o.status for o in report.outcomes.values()} == {PropStatus.UNKNOWN}
        assert set(report.outcomes) == {p.name for p in counter4.properties}

    def test_unknown_strategy_fails_at_construction(self, counter4):
        with pytest.raises(UnknownStrategyError):
            Session(counter4, strategy="nope")

    def test_session_overrides_and_report_attr(self, counter4, dummy_strategy):
        session = Session(counter4, strategy="dummy", design_name="c4")
        assert session.report is None
        report = session.run()
        assert session.report is report
        assert report.design == "c4"

    def test_bad_design_type_rejected(self):
        from repro.session import ConfigError

        with pytest.raises(ConfigError, match="design must be"):
            Session(42)

    def test_unknown_property_in_order_fails_at_construction(self, counter4):
        from repro.session import ConfigError

        with pytest.raises(ConfigError, match="unknown properties"):
            Session(counter4, strategy="ja", order=["P0", "NOPE"])
