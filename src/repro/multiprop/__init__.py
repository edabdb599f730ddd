"""Multi-property verification drivers: JA-verification (the paper's
contribution), joint verification, separate-global verification, the
strengthening-clause database, debugging-set analysis and ordering
heuristics."""

from .clausedb import ClauseDB
from .clustering import cluster_properties, clustered_verify
from .debugging import DebuggingReport, check_proposition6, debugging_report
from .sweep import SweepResult, sweep
from .ja import JAVerifier, ja_verify, separate_verify
from .joint import joint_verify
from .ordering import by_cone_size, design_order, shuffled
from .report import MultiPropReport, PropOutcome, format_time, render_table

__all__ = [
    "ja_verify",
    "JAVerifier",
    "joint_verify",
    "separate_verify",
    "ClauseDB",
    "MultiPropReport",
    "PropOutcome",
    "render_table",
    "format_time",
    "DebuggingReport",
    "debugging_report",
    "check_proposition6",
    "design_order",
    "by_cone_size",
    "shuffled",
    "clustered_verify",
    "cluster_properties",
    "sweep",
    "SweepResult",
]
