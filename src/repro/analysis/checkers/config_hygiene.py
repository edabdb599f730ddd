"""Config hygiene: every ``VerificationConfig`` field is reachable.

Every field of ``VerificationConfig`` must be (a) *consumed* somewhere
outside its defining module (a dead field is a knob wired to nothing),
(b) *reachable* from the CLI (mentioned by name in ``cli.py`` — as a
keyword argument, an attribute or a string key), and (c), for numeric
fields, *validated* in a ``validate`` method (an unvalidated conflict
budget propagates as a cryptic backend error three layers down).

Findings are anchored at the field's own line, so a field that is
API-only by design carries its ``# repro: ignore[config-hygiene]``
pragma where it is declared.  The checker locates ``config.py`` and
``cli.py`` by path suffix and stays inert when the analyzed file set
does not include them (so linting a fixture directory does not
fabricate findings about missing modules).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..context import FileContext, Finding, ProjectContext, str_const


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


class ConfigHygieneChecker:
    """VerificationConfig fields must be consumed, CLI-reachable, validated."""

    id = "config-hygiene"

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        config_ctx = project.find("repro/config.py")
        if config_ctx is None:
            return
        config_class = next(
            (
                node
                for node in config_ctx.walk()
                if isinstance(node, ast.ClassDef)
                and node.name == "VerificationConfig"
            ),
            None,
        )
        if config_class is None:
            return
        fields = [
            stmt
            for stmt in config_class.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]

        validated: set[str] = set()
        for stmt in ast.walk(config_class):
            if isinstance(stmt, ast.FunctionDef) and "validate" in stmt.name:
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
            if ctx is not config_ctx:
                consumed |= _names_used(ctx)

        for field in fields:
            name = field.target.id
            if len(project.paths) > 1 and name not in consumed:
                yield config_ctx.finding(
                    field,
                    self.id,
                    f"config field {name!r} is never consumed outside its "
                    f"defining module (dead knob)",
                )
            if cli_names is not None and name not in cli_names:
                yield config_ctx.finding(
                    field,
                    self.id,
                    f"config field {name!r} is not reachable from the CLI "
                    f"(no flag, keyword or key names it in cli.py)",
                )
            annotation = ast.unparse(field.annotation)
            if ("int" in annotation or "float" in annotation) and name not in validated:
                yield config_ctx.finding(
                    field,
                    self.id,
                    f"numeric config field {name!r} is never checked in "
                    f"validate(); bad values surface as backend errors "
                    f"layers away",
                )
