"""Validation and ordering behaviour of :class:`VerificationConfig`."""

from __future__ import annotations

import pytest

from repro.session import ConfigError, VerificationConfig, resolve_order


class TestValidate:
    def test_default_config_is_valid(self):
        VerificationConfig().validate()

    @pytest.mark.parametrize(
        "field", ["total_time", "per_property_time", "per_property_conflicts", "total_conflicts"]
    )
    def test_negative_budgets_rejected(self, field):
        config = VerificationConfig(**{field: -1})
        with pytest.raises(ConfigError, match="non-negative"):
            config.validate()

    def test_zero_budget_allowed(self):
        VerificationConfig(total_time=0.0).validate()

    def test_empty_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            VerificationConfig(strategy="").validate()

    def test_bad_max_frames_rejected(self):
        with pytest.raises(ConfigError, match="max_frames"):
            VerificationConfig(max_frames=0).validate()

    @pytest.mark.parametrize("order", ["zigzag", "shuffled:abc"])
    def test_bad_order_spec_rejected(self, order):
        with pytest.raises(ConfigError, match="unknown order"):
            VerificationConfig(order=order).validate()

    @pytest.mark.parametrize(
        "order", [None, "design", "cone", "shuffled:7", ["P1", "P0"]]
    )
    def test_good_order_specs_accepted(self, order):
        VerificationConfig(order=order).validate()

    def test_unknown_engine_override_rejected(self):
        # IC3's options are the engine's own: a run cannot override them.
        with pytest.raises(ConfigError, match="unknown config field"):
            VerificationConfig().with_overrides(engine={"seed_clauses": []})

    def test_bad_pool_rejected(self):
        with pytest.raises(ConfigError, match="WorkerPool"):
            VerificationConfig(pool="not-a-pool").validate()


class TestWithOverrides:
    def test_override_returns_copy(self):
        base = VerificationConfig()
        other = base.with_overrides(strategy="joint", total_time=5.0)
        assert other.strategy == "joint" and other.total_time == 5.0
        assert base.strategy == "ja" and base.total_time is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            VerificationConfig().with_overrides(frobnicate=True)

    def test_service_sizing_is_not_a_config_field(self):
        # A service is sized by `repro serve` or its manifest, never by
        # one job's config.
        with pytest.raises(ConfigError, match="max_concurrent_jobs"):
            VerificationConfig().with_overrides(max_concurrent_jobs=2)


class TestResolveOrder:
    def test_none_passthrough(self, counter4):
        assert resolve_order(counter4, None) is None

    def test_named_orders(self, counter4):
        names = {p.name for p in counter4.properties}
        assert set(resolve_order(counter4, "design")) == names
        assert set(resolve_order(counter4, "cone")) == names
        assert set(resolve_order(counter4, "shuffled:3")) == names

    def test_explicit_list_passthrough(self, counter4):
        assert resolve_order(counter4, ["P1", "P0"]) == ["P1", "P0"]

    def test_explicit_list_with_unknown_name_rejected(self, counter4):
        with pytest.raises(ConfigError, match="unknown properties"):
            resolve_order(counter4, ["P0", "P9"])
