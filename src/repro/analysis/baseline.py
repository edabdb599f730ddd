"""The explicit false-positive baseline (``analysis_baseline.toml``).

A baseline entry acknowledges one finding as a *documented* false
positive: it names the checker, the file, the exact (line-independent)
message, and — mandatorily — a justification.  ``repro lint`` subtracts
baselined findings from its verdict; an entry that no longer matches
anything is reported as *stale* so the baseline can only shrink, never
silently rot.

File format (TOML, read with the stdlib ``tomllib``)::

    [[suppression]]
    checker = "config-hygiene"
    file = "src/repro/config.py"
    message = "field 'pool' is not reachable from the CLI"
    justification = "pools are in-process objects; only the API sets them"

:func:`save_baseline` writes the same shape back (used by
``repro lint --write-baseline`` to adopt the current findings wholesale
— every generated entry gets a ``justification = "TODO"`` that a human
must replace, and :func:`load_baseline` rejects empty or TODO
justifications so an unreviewed baseline cannot pass silently).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass

from .findings import Finding


class BaselineError(ValueError):
    """The baseline file is malformed or under-justified."""


@dataclass(frozen=True)
class BaselineEntry:
    """One acknowledged false positive."""

    checker: str
    file: str
    message: str
    justification: str

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.checker, self.file, self.message)


def parse_baseline(text: str, *, origin: str = "<baseline>") -> list[BaselineEntry]:
    """Parse and validate baseline TOML text."""
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise BaselineError(f"{origin}: invalid TOML: {exc}") from None
    entries: list[BaselineEntry] = []
    for index, raw in enumerate(data.get("suppression", [])):
        if not isinstance(raw, dict):
            raise BaselineError(f"{origin}: suppression #{index} is not a table")
        missing = {"checker", "file", "message", "justification"} - set(raw)
        if missing:
            raise BaselineError(
                f"{origin}: suppression #{index} is missing {sorted(missing)}"
            )
        justification = str(raw["justification"]).strip()
        if not justification or justification.upper() == "TODO":
            raise BaselineError(
                f"{origin}: suppression #{index} "
                f"({raw['checker']} in {raw['file']}) needs a real "
                f"justification, not {justification!r}"
            )
        entries.append(
            BaselineEntry(
                checker=str(raw["checker"]),
                file=str(raw["file"]),
                message=str(raw["message"]),
                justification=justification,
            )
        )
    return entries


def load_baseline(path: str) -> list[BaselineEntry]:
    """Load a baseline file; a missing file is an empty baseline."""
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    except FileNotFoundError:
        return []
    return parse_baseline(text, origin=path)


def _toml_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def render_baseline(findings: list[Finding]) -> str:
    """Baseline TOML adopting ``findings`` (justifications left TODO)."""
    blocks = [
        "# repro lint baseline — every entry is a documented false positive.",
        "# Replace each TODO justification; the loader rejects TODOs.",
    ]
    for finding in sorted(findings):
        blocks.append(
            "\n[[suppression]]\n"
            f'checker = "{_toml_escape(finding.checker)}"\n'
            f'file = "{_toml_escape(finding.file)}"\n'
            f'message = "{_toml_escape(finding.message)}"\n'
            'justification = "TODO"'
        )
    return "\n".join(blocks) + "\n"


def save_baseline(path: str, findings: list[Finding]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_baseline(findings))


def split_baselined(
    findings: list[Finding], entries: list[BaselineEntry]
) -> tuple[list[Finding], list[Finding], list[BaselineEntry]]:
    """``(new, baselined, stale)`` partition of findings vs the baseline.

    Duplicate findings with one fingerprint all match one entry (the
    fingerprint is line-independent, so one justified message may occur
    on several lines of the same file).
    """
    by_fingerprint = {entry.fingerprint: entry for entry in entries}
    new: list[Finding] = []
    baselined: list[Finding] = []
    used: set[tuple[str, str, str]] = set()
    for finding in findings:
        entry = by_fingerprint.get(finding.fingerprint)
        if entry is None:
            new.append(finding)
        else:
            baselined.append(finding)
            used.add(entry.fingerprint)
    stale = [e for e in entries if e.fingerprint not in used]
    return new, baselined, stale
