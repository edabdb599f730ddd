"""repro.analysis — the project's own lint pass (``repro lint``).

Generic linters see syntax; this package checks the *protocols* the
codebase runs on, with exactly the checkers that caught a real defect
here (reverting that fix makes the checker fire):

* ``wire-protocol`` — every tuple-tagged message sent on a process
  queue has a dispatch arm on the other side, and every arm a sender;
* ``queue-discipline`` — supervision loops never block forever on a
  dead peer, bounded queues never block their producer;
* ``config-hygiene`` — every ``VerificationConfig`` field is consumed,
  reachable from the CLI and, if numeric, validated.

Layout::

    context.py     Finding, FileContext / ProjectContext, AST helpers
    checkers/      the checkers, listed in checkers.CHECKERS
    runner.py      analyze_paths / analyze_sources: one serial pass

The pass is serial and in-process.  A false positive is suppressed
where it occurs, with a ``# repro: ignore[checker-id]`` pragma on (or
just above) the flagged line and a comment saying why; there is no
baseline file.

Checker modules explain the *hazard* (what breaks at runtime, where in
this codebase it would bite) before the *rule*; a class docstring's
first line is the rule ``repro lint --list-checkers`` prints, and a
finding's message states the consequence, not just the pattern ("a
crashed peer hangs this loop forever", not "get() without timeout").
"""

from __future__ import annotations

from .checkers import CHECKERS
from .context import FileContext, Finding, ProjectContext
from .runner import AnalysisResult, analyze_paths, analyze_sources

__all__ = [
    "AnalysisResult",
    "CHECKERS",
    "FileContext",
    "Finding",
    "ProjectContext",
    "analyze_paths",
    "analyze_sources",
]
