"""Model-checking engines: BMC, k-induction, IC3/PDR, random walk."""

from .bmc import bmc_check
from .certify import CertificateReport, certify_cex, certify_invariant
from .ic3 import IC3, IC3Options, SeedCertificateError, ic3_check
from .kinduction import kinduction_check
from .randomwalk import derive_seed, randomwalk_check
from .result import EngineResult, PropStatus, ResourceBudget

__all__ = [
    "bmc_check",
    "derive_seed",
    "randomwalk_check",
    "kinduction_check",
    "ic3_check",
    "IC3",
    "IC3Options",
    "SeedCertificateError",
    "EngineResult",
    "PropStatus",
    "ResourceBudget",
    "certify_invariant",
    "certify_cex",
    "CertificateReport",
]
