"""Findings, parsed-source contexts and the AST helpers checkers share.

A :class:`FileContext` owns one file's source, AST and suppression
table; a :class:`ProjectContext` owns the whole analyzed set (parsed
lazily, so a checker that only reads three files never pays for the
rest).  The helpers at the bottom encode the project's *naming
conventions* for cross-process plumbing — most importantly
:func:`channel_of`, which maps a queue expression to its wire-channel
name (``slot.ctrl`` → ``"ctrl"``, ``self._out_queue`` → ``"out"``).

Suppressions: a ``# repro: ignore[checker-id]`` comment suppresses
matching findings on its own line, or — when the whole line is just the
comment — on the next code line.  ``ignore[*]`` suppresses every
checker; several ids may be comma-separated.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass

#: ``# repro: ignore[wire-protocol]`` / ``# repro: ignore[a, b]`` / ``[*]``
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by one checker at one source location."""

    file: str
    line: int
    checker: str
    message: str

    def render(self) -> str:
        """The one-line text form (``file:line: [checker] message``)."""
        return f"{self.file}:{self.line}: [{self.checker}] {self.message}"


class FileContext:
    """One file: path, AST (or the error parsing it) and suppressions."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_error = exc
        self.suppressions = _parse_suppressions(source.splitlines())

    def walk(self) -> Iterator[ast.AST]:
        """Every AST node of the file (empty if it failed to parse)."""
        if self.tree is None:
            return iter(())
        return ast.walk(self.tree)

    def functions(self) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        for node in self.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def finding(self, node: ast.AST, checker: str, message: str) -> Finding:
        """A finding anchored at ``node`` in this file."""
        return Finding(
            file=self.path,
            line=getattr(node, "lineno", 1),
            checker=checker,
            message=message,
        )

    def suppressed(self, finding: Finding) -> bool:
        """True when an inline pragma covers this finding's line."""
        ids = self.suppressions.get(finding.line)
        return ids is not None and ("*" in ids or finding.checker in ids)


class ProjectContext:
    """The whole analyzed file set, parsed lazily by path."""

    def __init__(self, sources: dict[str, str]) -> None:
        self._sources = dict(sources)
        self._contexts: dict[str, FileContext] = {}

    @property
    def paths(self) -> list[str]:
        return sorted(self._sources)

    def file(self, path: str) -> FileContext:
        ctx = self._contexts.get(path)
        if ctx is None:
            ctx = self._contexts[path] = FileContext(path, self._sources[path])
        return ctx

    def files(self) -> Iterator[FileContext]:
        for path in self.paths:
            yield self.file(path)

    def find(self, suffix: str) -> FileContext | None:
        """The unique file whose path ends with ``suffix`` (or None)."""
        matches = [p for p in self.paths if p.endswith(suffix)]
        return self.file(matches[0]) if len(matches) == 1 else None


def _parse_suppressions(lines: list[str]) -> dict[int, set[str]]:
    """Line number -> suppressed checker ids (1-based, next-line aware)."""
    table: dict[int, set[str]] = {}
    for index, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if not ids:
            continue
        table.setdefault(index, set()).update(ids)
        # A comment-only line covers the next line of actual code.
        if text.strip().startswith("#"):
            table.setdefault(index + 1, set()).update(ids)
    return table


# ----------------------------------------------------------------------
# Naming-convention helpers shared by the checkers
# ----------------------------------------------------------------------
def terminal_name(node: ast.AST) -> str | None:
    """The last name of an attribute chain (``slot.ctrl`` -> ``"ctrl"``).

    Subscripts are looked through (``self._slots[i].ctrl`` -> ``"ctrl"``);
    anything else (calls, literals) has no terminal name.
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        return terminal_name(node.value)
    return None


def channel_of(node: ast.AST) -> str | None:
    """The wire-channel name of a queue expression, by naming convention.

    The project's convention: the queue *is* the channel, and its name
    is the channel name with optional ``_queue`` suffix and leading
    underscores — ``ctrl``, ``ctrl_queue``, ``self._out_queue`` and
    ``out_queue`` all denote the channels ``ctrl`` and ``out``.
    """
    name = terminal_name(node)
    if name is None:
        return None
    name = name.lstrip("_")
    if name.endswith("_queue"):
        name = name[: -len("_queue")]
    return name or None


def call_name(node: ast.Call) -> str | None:
    """The called name: ``foo(...)`` -> ``foo``, ``a.b.foo(...)`` -> ``foo``."""
    return terminal_name(node.func)


def is_method_call(node: ast.AST, method: str) -> bool:
    """True for ``<expr>.method(...)`` calls."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
    )


def str_const(node: ast.AST) -> str | None:
    """The value of a string-constant node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
