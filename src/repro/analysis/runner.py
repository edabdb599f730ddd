"""The analysis driver: collect files, run every checker, apply pragmas.

:func:`analyze_paths` is what ``repro lint`` calls: it expands the
given paths to ``*.py`` files and hands their sources to
:func:`analyze_sources`, the one pass — every checker in
:data:`~repro.analysis.checkers.CHECKERS` sees the whole file set, in
one process, and findings an inline pragma covers are dropped.  The
test suite calls :func:`analyze_sources` directly to feed fixture
snippets (and mutated copies of real modules) through the same pass.

A file that fails to parse yields one ``parse-error`` finding instead
of crashing the run — broken source must fail the lint gate, not the
linter.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

from .checkers import CHECKERS
from .context import Finding, ProjectContext


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: list[Finding]
    files_analyzed: int
    suppressed: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        """The text report: one line per finding, then the verdict."""
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"{'clean' if self.ok else 'FAILED'}: {len(self.findings)} "
            f"finding(s) in {self.files_analyzed} file(s) "
            f"({self.suppressed} suppressed inline)"
        )
        return "\n".join(lines)


def collect_files(paths: list[str]) -> list[str]:
    """Expand files/directories to a sorted, de-duplicated ``.py`` list."""
    out: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.add(os.path.join(root, name))
        elif os.path.isfile(path):
            out.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    return sorted(out)


def analyze_sources(
    sources: dict[str, str], checkers: Sequence = CHECKERS
) -> AnalysisResult:
    """Run ``checkers`` over in-memory ``{path: source}`` pairs."""
    project = ProjectContext(sources)
    findings: list[Finding] = []
    for ctx in project.files():
        exc = ctx.parse_error
        if exc is not None:
            findings.append(
                Finding(
                    ctx.path, exc.lineno or 1, "parse-error",
                    f"file does not parse: {exc.msg}",
                )
            )
    suppressed = 0
    for checker in checkers:
        for finding in checker.check(project):
            if project.file(finding.file).suppressed(finding):
                suppressed += 1
            else:
                findings.append(finding)
    return AnalysisResult(sorted(findings), len(project.paths), suppressed)


def analyze_paths(paths: list[str]) -> AnalysisResult:
    """Analyze files/directories on disk (the ``repro lint`` entry)."""
    sources = {}
    for path in collect_files(paths):
        with open(path, encoding="utf-8") as f:
            sources[path] = f.read()
    return analyze_sources(sources)
