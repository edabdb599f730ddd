"""repro — multi-property hardware model checking with JA-verification.

A from-scratch reproduction of Goldberg, Güdemann, Kroening, Mukherjee,
"Efficient Verification of Multi-Property Designs (The Benefit of Wrong
Assumptions)", DATE 2018 (arXiv:1711.05698).

Layers (bottom-up):

* :mod:`repro.sat` — incremental CDCL SAT solvers behind a pluggable
  backend registry (:class:`SatBackend` protocol, assumption cores,
  activation-literal clause groups);
* :mod:`repro.circuit` — AIG circuit model, word-level builder, AIGER
  I/O, concrete simulator;
* :mod:`repro.encode` — Tseitin encoding and BMC unrolling;
* :mod:`repro.ts` — transition systems, the ``T^P`` projection,
  counterexample traces, explicit-state ground truth;
* :mod:`repro.engines` — BMC, k-induction and IC3/PDR (with local-proof
  constraints, two lifting modes, clause import/export);
* :mod:`repro.multiprop` — JA-verification, joint and separate-global
  drivers, clauseDB, debugging-set analysis;
* :mod:`repro.session` — the unified orchestration API: a
  :class:`Session` facade, one :class:`VerificationConfig`, a pluggable
  strategy registry, and streaming :class:`ProgressEvent` channels;
* :mod:`repro.service` — the server regime: a
  :class:`VerificationService` accepting concurrent job submissions
  (``submit -> JobHandle -> events()/result()``) multiplexed over one
  shared worker pool with priorities and bounded admission;
* :mod:`repro.gen` — benchmark generators (Example 1's counter and the
  synthetic HWMCC-12/13 stand-ins).

Quickstart::

    from repro import Session
    from repro.gen import buggy_counter

    session = Session(buggy_counter(bits=8), strategy="ja")
    report = session.run()
    print(report.debugging_set())   # ['P0']

Progress events stream via callback or iterator::

    session = Session(buggy_counter(bits=8), strategy="ja", on_event=print)
    session.run()

Every verification strategy (``ja``, ``joint``, ``separate``,
``clustered``, ``parallel-ja``, ``portfolio``, and anything registered
with :func:`register_strategy`) runs through the same ``Session`` API, and
every knob is a field of the one :class:`VerificationConfig` (see
:mod:`repro.session`); the drivers themselves (``ja_verify`` & friends)
take ``(ts, config, emit)``.
"""

from .circuit import AIG, Simulator, load_aag, parse_aag, save_aag, write_aag
from .engines import (
    EngineResult,
    IC3Options,
    PropStatus,
    ResourceBudget,
    bmc_check,
    ic3_check,
    kinduction_check,
)
from .multiprop import (
    ClauseDB,
    JAVerifier,
    MultiPropReport,
    debugging_report,
    ja_verify,
    joint_verify,
    separate_verify,
)
from .progress import ProgressEvent, format_event
from .sat import (
    SatBackend,
    Solver,
    Status,
    UnknownBackendError,
    available_backends,
    create_solver,
    register_backend,
)
from .service import JobHandle, JobStatus, QueueFull, VerificationService
from .session import (
    ConfigError,
    Session,
    Strategy,
    UnknownStrategyError,
    VerificationConfig,
    available_strategies,
    get_strategy,
    register_strategy,
)
from .ts import ProjectedReachability, Trace, TransitionSystem

__version__ = "1.1.0"

__all__ = [
    "AIG",
    "Simulator",
    "parse_aag",
    "write_aag",
    "load_aag",
    "save_aag",
    "Solver",
    "SatBackend",
    "Status",
    "UnknownBackendError",
    "register_backend",
    "create_solver",
    "available_backends",
    "TransitionSystem",
    "Trace",
    "ProjectedReachability",
    "bmc_check",
    "kinduction_check",
    "ic3_check",
    "IC3Options",
    "PropStatus",
    "EngineResult",
    "ResourceBudget",
    "Session",
    "VerificationConfig",
    "ConfigError",
    "VerificationService",
    "JobHandle",
    "JobStatus",
    "QueueFull",
    "Strategy",
    "UnknownStrategyError",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "ProgressEvent",
    "format_event",
    "ja_verify",
    "JAVerifier",
    "joint_verify",
    "separate_verify",
    "ClauseDB",
    "MultiPropReport",
    "debugging_report",
    "__version__",
]
