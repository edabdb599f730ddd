"""Transition-system layer: ``(I, T)``-systems, property sets, the T^P
projection machinery, counterexample traces, and explicit-state ground
truth for small designs."""

from .projection import ProjectedReachability, assumption_lits, assumption_names
from .system import (
    Clause,
    Cube,
    FrameEncoding,
    OutOfSliceError,
    StepEncoding,
    TransitionSystem,
    cube_subsumes,
    negate_cube,
    normalize_cube,
)
from .trace import Trace

__all__ = [
    "TransitionSystem",
    "StepEncoding",
    "FrameEncoding",
    "OutOfSliceError",
    "Cube",
    "Clause",
    "normalize_cube",
    "negate_cube",
    "cube_subsumes",
    "Trace",
    "ProjectedReachability",
    "assumption_names",
    "assumption_lits",
]
