"""Built-in strategy adapters: the paper's methods behind one protocol.

Each adapter translates the relevant slice of a
:class:`~repro.session.config.VerificationConfig` into the option
dataclass of the driver it wraps and forwards the ``emit`` callback.
The drivers keep their standalone APIs (and their tests); the adapters
are the only place that knows how config fields map onto them, which is
exactly the migration table documented in :mod:`repro.session`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..multiprop.clustering import ClusterOptions, clustered_verify
from ..multiprop.ja import JAOptions, ja_verify
from ..multiprop.joint import JointOptions, joint_verify
from ..multiprop.separate import SeparateOptions, separate_verify
from ..multiprop.sweep import swept_ja_verify
from .config import VerificationConfig, resolve_order
from .registry import register_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..multiprop.report import MultiPropReport
    from ..progress import Emit
    from ..ts.system import TransitionSystem


def proof_knobs(config: VerificationConfig) -> dict[str, object]:
    """The local-proof knobs of a config — the one place they are read.

    Keyword arguments for any option class that extends
    :class:`~repro.multiprop.local.ProofOptions`, so a knob added there
    is wired here and nowhere else.
    """
    return dict(
        clause_reuse=config.clause_reuse,
        respect_constraints_in_lifting=config.respect_constraints_in_lifting,
        coi_reduction=config.coi_reduction,
        ctg=config.ctg,
        max_frames=config.max_frames,
        solver_backend=config.solver_backend,
        engine_overrides=dict(config.engine),
        per_property_time=config.per_property_time,
        per_property_conflicts=config.per_property_conflicts,
    )


def _loop_options(cls, ts: "TransitionSystem", config: VerificationConfig):
    """``JAOptions`` / ``SeparateOptions``: proof knobs plus the loop's."""
    return cls(
        **proof_knobs(config),
        total_time=config.total_time,
        order=resolve_order(ts, config.order),
        clause_db_path=config.clause_db_path,
    )


@register_strategy("ja")
class JAStrategy:
    """JA-verification: local proofs under wrong assumptions (Ja-ver, Sec. 4)."""

    def run(self, ts, config, emit) -> "MultiPropReport":
        options = _loop_options(JAOptions, ts, config)
        return ja_verify(ts, options, design_name=config.design_name, emit=emit)


@register_strategy("joint")
class JointStrategy:
    """Joint verification of the aggregate property (Jnt-ver, Sec. 9)."""

    local = False  # global verdicts: the proof cache certifies with no assumptions

    def run(self, ts, config, emit) -> "MultiPropReport":
        knobs = proof_knobs(config)
        options = JointOptions(
            total_time=config.total_time,
            total_conflicts=config.total_conflicts,
            max_frames=knobs["max_frames"],
            include_etf=config.include_etf,
            solver_backend=knobs["solver_backend"],
            engine_overrides=knobs["engine_overrides"],
        )
        return joint_verify(ts, options, design_name=config.design_name, emit=emit)


@register_strategy("separate")
class SeparateStrategy:
    """Separate verification with global proofs (Tables V, VI, X baseline)."""

    local = False

    def run(self, ts, config, emit) -> "MultiPropReport":
        options = _loop_options(SeparateOptions, ts, config)
        return separate_verify(ts, options, design_name=config.design_name, emit=emit)


@register_strategy("clustered")
class ClusteredStrategy:
    """Structure-aware grouping, joint or JA inside each cluster (Sec. 12)."""

    local = False

    def run(self, ts, config, emit) -> "MultiPropReport":
        options = ClusterOptions(
            **proof_knobs(config),
            similarity_threshold=config.similarity_threshold,
            inner=config.cluster_inner,
            total_time=config.total_time,
        )
        return clustered_verify(ts, options, design_name=config.design_name, emit=emit)


@register_strategy("sweep-ja")
class SweptJAStrategy:
    """Random-simulation sweep for shallow failures, then JA-verification."""

    def run(self, ts, config, emit) -> "MultiPropReport":
        return swept_ja_verify(
            ts,
            options=_loop_options(JAOptions, ts, config),
            design_name=config.design_name,
            emit=emit,
        )


def parallel_options(ts: "TransitionSystem", config: VerificationConfig):
    """The ``ParallelOptions`` slice of a config (shared with the service).

    :class:`~repro.service.VerificationService` uses the same mapping
    when it multiplexes a pooled job onto its shared pool, so the CLI,
    ``Session`` and ``submit()`` agree on every knob.
    """
    from ..parallel import ParallelOptions, parse_engine_slate

    return ParallelOptions(
        **proof_knobs(config),
        workers=config.workers,
        exchange=config.exchange,
        exchange_shards=config.exchange_shards,
        pool=config.pool,
        stop_on_failure=config.stop_on_failure,
        max_seats=config.max_seats,
        total_time=config.total_time,
        order=resolve_order(ts, config.order),
        seed=config.seed,
        # The slate is what makes a pooled job a race.
        portfolio_engines=(
            parse_engine_slate(config.portfolio_engines)
            if config.strategy == "portfolio"
            else None
        ),
    )


@register_strategy("parallel-ja")
class ParallelJAStrategy:
    """Process-parallel JA-verification with live clause exchange (Sec. 11)."""

    def run(self, ts, config, emit) -> "MultiPropReport":
        from ..parallel import parallel_ja_verify

        return parallel_ja_verify(
            ts,
            parallel_options(ts, config),
            design_name=config.design_name,
            emit=emit,
        )


@register_strategy("portfolio")
class PortfolioStrategy:
    """Per-property engine racing: first definitive verdict wins.

    Races the configured slate (``portfolio_engines``, default
    ``rw,bmc,kind,ic3``) per property as one job on the seat scheduler;
    a decided property's queued losers are dropped, running ones drain,
    and the winning engine per property lands in
    ``report.stats["portfolio"]``.
    """

    def run(self, ts, config, emit) -> "MultiPropReport":
        from ..parallel import portfolio_verify

        return portfolio_verify(
            ts,
            parallel_options(ts, config),
            design_name=config.design_name,
            emit=emit,
        )
