"""Separate verification with *global* proofs (Tables V, VI, X baseline).

Properties are checked one by one like JA-verification, but without any
assumptions: each verdict is global.  Clause re-use remains available
(invariants from global proofs over-approximate global reachability, so
re-using them is unconditionally sound — this is the setting in which
Section 6-B justifies it).
"""

from __future__ import annotations

from ..progress import Emit
from ..ts.system import TransitionSystem
from .ja import JAOptions, JAVerifier
from .report import MultiPropReport


class SeparateOptions(JAOptions):
    """Configuration of separate-global verification: ``JAOptions`` as is.

    The knobs about assumptions (``respect_constraints_in_lifting``)
    have nothing to act on; every other one means what it means for
    ``ja``.
    """


def separate_verify(
    ts: TransitionSystem,
    options: SeparateOptions | None = None,
    design_name: str = "design",
    emit: Emit | None = None,
) -> MultiPropReport:
    """Check every property separately with global proofs.

    .. deprecated::
        Prefer ``repro.session.Session(ts, strategy="separate").run()``;
        this wrapper remains for backward compatibility.
    """
    return JAVerifier(ts, options, emit=emit, local=False).run(design_name)
