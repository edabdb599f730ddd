"""Core literal/variable types for the CDCL solver.

Literals use the MiniSat convention: a variable ``v`` (a non-negative
integer) yields the positive literal ``2*v`` and the negative literal
``2*v + 1``.  This packs sign and variable into one int, which keeps the
watched-literal machinery allocation-free in Python.

The user-facing API of :class:`repro.sat.solver.Solver` uses *signed*
DIMACS-style integers (``+v`` / ``-v`` with ``v >= 1``); the helpers here
convert between the two conventions.
"""

from __future__ import annotations

from enum import IntEnum

# Truth values.  We use small ints rather than an Enum in the hot paths;
# the Enum exists for readable results at the API boundary.
TRUE = 1
FALSE = 0
UNASSIGNED = 2


class Status(IntEnum):
    """Result of a solver invocation."""

    SAT = 1
    UNSAT = 0
    UNKNOWN = 2


def mklit(var: int, negative: bool = False) -> int:
    """Build an internal literal from a 0-based variable index."""
    return var * 2 + (1 if negative else 0)


def lit_var(lit: int) -> int:
    """The 0-based variable index of an internal literal."""
    return lit >> 1


def lit_sign(lit: int) -> bool:
    """True if the internal literal is negative."""
    return bool(lit & 1)


def from_dimacs(lit: int) -> int:
    """Convert a signed DIMACS literal (1-based, non-zero) to internal form."""
    if lit == 0:
        raise ValueError("DIMACS literal must be non-zero")
    var = abs(lit) - 1
    return mklit(var, lit < 0)


def to_dimacs(lit: int) -> int:
    """Convert an internal literal to signed DIMACS form."""
    var = lit_var(lit) + 1
    return -var if lit_sign(lit) else var
