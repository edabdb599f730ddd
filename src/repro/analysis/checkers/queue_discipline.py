"""Queue discipline: no unbounded blocking in supervision loops.

The pool, the scheduler and the service all sit in loops that pump
queues.  A ``.get()`` with no timeout inside such a loop waits forever
when the peer has crashed — the exact failure mode the pool's crash
re-dispatch machinery exists to survive.  A ``.join()`` with no timeout
has the same shape during shutdown.  A blocking ``.put()`` on a
*bounded* queue deadlocks the producer when the consumer died with the
queue full.

Flagged, inside any ``for``/``while`` body:

* ``<q>.get()`` / ``<q>.get(block=True)`` with no ``timeout=`` — the
  loop cannot observe a dead peer (``get_nowait`` and any form carrying
  a timeout are fine);
* ``<x>.join()`` with no argument and no ``timeout=`` (string
  receivers are excluded: ``", ".join(...)`` is not a join);
* ``<x>.wait()`` with no timeout on event/condition-ish receivers.

Flagged anywhere:

* ``.put(...)`` without ``timeout=`` or ``block=False`` on a queue this
  file constructed with a nonzero ``maxsize`` — bounded queues demand
  explicit back-pressure handling.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..context import (
    FileContext,
    Finding,
    ProjectContext,
    call_name,
    is_method_call,
    terminal_name,
)

_QUEUE_CTORS = ("Queue", "SimpleQueue", "JoinableQueue")


def _has_timeout(node: ast.Call) -> bool:
    return any(kw.arg == "timeout" for kw in node.keywords)


def _nonblocking(node: ast.Call) -> bool:
    for kw in node.keywords:
        if (
            kw.arg == "block"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
        ):
            return True
    return False


def _positional_timeout(node: ast.Call) -> bool:
    # Queue.get(block, timeout) / Process.join(timeout): any second
    # positional on get, any first positional on join.
    return len(node.args) >= 2


def _bounded_queues(ctx: FileContext) -> set[str]:
    """Terminal names this file binds to a queue with a positive maxsize."""
    names: set[str] = set()
    for node in ctx.walk():
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        call = node.value
        if not isinstance(call, ast.Call) or call_name(call) not in _QUEUE_CTORS:
            continue
        size = call.args[0] if call.args else None
        for kw in call.keywords:
            if kw.arg == "maxsize":
                size = kw.value
        if (
            isinstance(size, ast.Constant)
            and isinstance(size.value, int)
            and size.value > 0
        ):
            names.update(filter(None, map(terminal_name, targets)))
    return names


class QueueDisciplineChecker:
    """Supervision loops must time out; bounded puts must back-pressure."""

    id = "queue-discipline"

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        for ctx in project.files():
            yield from self._check_file(ctx)

    def _check_file(self, ctx: FileContext) -> Iterable[Finding]:
        bounded = _bounded_queues(ctx)

        in_loop: set[int] = set()
        for node in ctx.walk():
            if isinstance(node, (ast.While, ast.For)):
                for stmt in node.body:
                    in_loop.update(id(inner) for inner in ast.walk(stmt))

        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            if id(node) in in_loop:
                finding = self._check_loop_call(ctx, node)
                if finding is not None:
                    yield finding
            if is_method_call(node, "put"):
                receiver = terminal_name(node.func.value)
                if (
                    receiver in bounded
                    and not _has_timeout(node)
                    and not _nonblocking(node)
                ):
                    yield ctx.finding(
                        node,
                        self.id,
                        f"blocking .put() on bounded queue "
                        f"{receiver.lstrip('_')!r} without timeout= or "
                        f"block=False; a dead consumer deadlocks this "
                        f"producer",
                    )

    def _check_loop_call(self, ctx: FileContext, node: ast.Call) -> Finding | None:
        if _has_timeout(node) or _nonblocking(node) or _positional_timeout(node):
            return None
        if is_method_call(node, "get") and not node.args:
            return ctx.finding(
                node,
                self.id,
                "blocking .get() with no timeout inside a loop; a crashed "
                "peer hangs this loop forever",
            )
        if is_method_call(node, "join") and not node.args:
            receiver = node.func.value
            if isinstance(receiver, ast.Constant):
                return None  # ", ".join(...) — string, not a process
            return ctx.finding(
                node,
                self.id,
                "blocking .join() with no timeout inside a loop; a wedged "
                "peer hangs shutdown forever",
            )
        if is_method_call(node, "wait") and not node.args:
            return ctx.finding(
                node,
                self.id,
                "blocking .wait() with no timeout inside a loop; a lost "
                "notify hangs this loop forever",
            )
        return None
