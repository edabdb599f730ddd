"""IC3/PDR engine with local-proof constraints, two lifting modes, and
strengthening-clause import/export (the paper's Ic3-db analogue)."""

from .core import IC3, IC3Options, SeedCertificateError, ic3_check
from .ternary import Lifter

__all__ = [
    "IC3",
    "IC3Options",
    "SeedCertificateError",
    "ic3_check",
    "Lifter",
]
