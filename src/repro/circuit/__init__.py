"""Hardware-design substrate: AIG model, word-level builder, AIGER I/O,
and a concrete simulator for trace validation."""

from .aig import AIG, FALSE_LIT, TRUE_LIT, Latch, Property, aig_not, aig_var, is_negated
from .aiger import (
    load_aag,
    load_aig,
    load_design,
    parse_aag,
    parse_aig,
    save_aag,
    save_aig,
    save_design,
    write_aag,
    write_aig,
)
from .coi import CoiReduction, coi_signature, reduce_to_cone, support_signature
from .simulate import Simulator
from . import words

__all__ = [
    "AIG",
    "FALSE_LIT",
    "TRUE_LIT",
    "Latch",
    "Property",
    "aig_not",
    "aig_var",
    "is_negated",
    "parse_aag",
    "write_aag",
    "parse_aig",
    "write_aig",
    "load_design",
    "save_design",
    "load_aag",
    "save_aag",
    "load_aig",
    "save_aig",
    "CoiReduction",
    "reduce_to_cone",
    "coi_signature",
    "support_signature",
    "Simulator",
    "words",
]
