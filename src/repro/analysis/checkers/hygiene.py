"""Registry hygiene: events all render, config fields all reachable.

Two project-scope checkers that keep the repo's registries honest:

``event-hygiene``
    Every ``ProgressEvent`` subclass declared in ``progress.py`` must
    (a) have a rendering arm — an ``isinstance`` test naming it inside
    ``format_event`` — and (b) be exported via ``__all__``.  A new
    event class that misses either is silently invisible: the CLI
    renderer falls through to the generic branch and API users cannot
    import the type.

``config-hygiene``
    Every field of ``VerificationConfig`` must be (a) *consumed*
    somewhere outside its defining module (a dead field is a knob wired
    to nothing), (b) *reachable* from the CLI (mentioned by name in
    ``cli.py`` — as a keyword argument or a string key), and (c), for
    numeric fields, *validated* in a ``validate`` method (an
    unvalidated conflict budget propagates as a cryptic backend error
    three layers down).

Both checkers locate their subject modules by path suffix and stay
inert when the analyzed file set does not include them (so linting a
fixture directory does not fabricate findings about missing modules).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..context import FileContext, ProjectContext, call_name, str_const, terminal_name
from ..findings import Finding
from ..registry import Checker, register_checker


def _class_defs(ctx: FileContext) -> Iterable[ast.ClassDef]:
    for node in ctx.walk():
        if isinstance(node, ast.ClassDef):
            yield node


def _dunder_all(ctx: FileContext) -> set[str]:
    names: set[str] = set()
    for node in ctx.walk():
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                for element in node.value.elts:
                    value = str_const(element)
                    if value is not None:
                        names.add(value)
    return names


@register_checker("event-hygiene")
class EventHygieneChecker(Checker):
    """ProgressEvent subclasses must be rendered and exported."""

    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        ctx = project.find("repro/progress.py") or project.find("progress.py")
        if ctx is None or ctx.tree is None:
            return

        events = [
            node
            for node in _class_defs(ctx)
            if any(terminal_name(base) == "ProgressEvent" for base in node.bases)
        ]
        if not events:
            return

        rendered: set[str] = set()
        for node in ctx.walk():
            if not (
                isinstance(node, ast.Call) and call_name(node) == "isinstance"
            ):
                continue
            if len(node.args) != 2:
                continue
            spec = node.args[1]
            candidates = spec.elts if isinstance(spec, ast.Tuple) else [spec]
            for candidate in candidates:
                name = terminal_name(candidate)
                if name is not None:
                    rendered.add(name)

        exported = _dunder_all(ctx)
        for event in events:
            if event.name not in rendered:
                yield ctx.finding(
                    event,
                    self.id,
                    f"ProgressEvent subclass {event.name!r} has no "
                    f"isinstance rendering arm in this module; the CLI "
                    f"renderer will fall through to the generic branch",
                )
            if exported and event.name not in exported:
                yield ctx.finding(
                    event,
                    self.id,
                    f"ProgressEvent subclass {event.name!r} is missing "
                    f"from __all__",
                )


def _config_fields(node: ast.ClassDef) -> list[tuple[str, str]]:
    """``(field name, annotation source)`` for each dataclass field."""
    fields: list[tuple[str, str]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append((stmt.target.id, ast.unparse(stmt.annotation)))
    return fields


def _names_used(ctx: FileContext) -> set[str]:
    """Attribute names, keyword names and string constants in a file."""
    used: set[str] = set()
    for node in ctx.walk():
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            used.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


@register_checker("config-hygiene")
class ConfigHygieneChecker(Checker):
    """VerificationConfig fields must be consumed, CLI-reachable, validated."""

    scope = "project"

    CONFIG_CLASS = "VerificationConfig"

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        config_ctx = project.find("repro/config.py")
        if config_ctx is None or config_ctx.tree is None:
            return
        config_class = next(
            (
                node
                for node in _class_defs(config_ctx)
                if node.name == self.CONFIG_CLASS
            ),
            None,
        )
        if config_class is None:
            return
        fields = _config_fields(config_class)

        validated: set[str] = set()
        for stmt in ast.walk(config_class):
            if (
                isinstance(stmt, ast.FunctionDef)
                and "validate" in stmt.name
            ):
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        validated.add(node.attr)
                    value = str_const(node)
                    if value is not None:
                        validated.add(value)

        cli_ctx = project.find("repro/cli.py") or project.find("cli.py")
        cli_names = _names_used(cli_ctx) if cli_ctx is not None else None

        consumed: set[str] = set()
        for ctx in project.files():
            if ctx is config_ctx or ctx.tree is None:
                continue
            consumed |= _names_used(ctx)

        for name, annotation in fields:
            anchor = config_class
            if len(project.paths) > 1 and name not in consumed:
                yield config_ctx.finding(
                    anchor,
                    self.id,
                    f"config field {name!r} is never consumed outside its "
                    f"defining module (dead knob)",
                )
            if cli_names is not None and name not in cli_names:
                yield config_ctx.finding(
                    anchor,
                    self.id,
                    f"config field {name!r} is not reachable from the CLI "
                    f"(no flag, keyword or key names it in cli.py)",
                )
            numeric = ("int" in annotation or "float" in annotation)
            if numeric and name not in validated:
                yield config_ctx.finding(
                    anchor,
                    self.id,
                    f"numeric config field {name!r} is never checked in "
                    f"validate(); bad values surface as backend errors "
                    f"layers away",
                )
