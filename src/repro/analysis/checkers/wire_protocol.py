"""Wire-protocol exhaustiveness: every sent tag has a dispatch arm.

The cross-process plumbing (:mod:`repro.parallel.pool` /
:mod:`repro.parallel.worker` / :mod:`repro.parallel.engine`) speaks
tuple-tagged messages: ``slot.ctrl.put(("job", run_id, job, seq))`` on the
sending side, ``if kind == "job": ...`` on the receiving side.  Nothing
type-checks that pairing — a tag typo, a new message kind without a
dispatch arm, or a dispatch arm for a message nobody sends all fail
only at runtime, in a child process, as a hang or a dropped message.

This checker proves the pairing statically, over the whole analyzed
file set:

* **send sites** are ``<queue>.put((<str-constant>, ...))`` calls; the
  channel is the queue's conventional name (:func:`channel_of`:
  ``slot.ctrl`` → ``ctrl``, ``out_queue`` → ``out``);
* **dispatch sites** are string comparisons against a *message tag
  variable* — a name bound from ``<queue>.get(...)`` /
  ``get_nowait()`` / ``next_message()`` (the pool's out-stream
  accessor, by convention channel ``out``), its ``[0]`` subscript, or a
  variable assigned from that subscript.  Message variables propagate
  one call hop, so ``message = pool.next_message(); self._dispatch(message)``
  marks ``_dispatch``'s parameter as carrying ``out`` messages.

Findings, per channel:

* a tag sent but matched by no dispatch arm (the message would fall
  through the receiver loop — or worse, hit a catch-all that unpacks
  it as something else);
* a dispatch arm whose tag no send site produces (dead protocol arm,
  usually a typo on one of the two sides);
* a channel carrying tagged sends with no dispatcher found at all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Iterable

from ..context import (
    FileContext,
    Finding,
    ProjectContext,
    call_name,
    channel_of,
    is_method_call,
    str_const,
    terminal_name,
)

#: ``WorkerPool.next_message`` re-streams the seats' output queues; by
#: project convention its results are ``out``-channel messages.
NEXT_MESSAGE_CHANNEL = "out"

#: Call names whose result is a wire message (when called without
#: positional arguments, which excludes ``dict.get(key)``).
_RECEIVE_CALLS = ("get", "get_nowait")


@dataclass
class _Site:
    ctx: FileContext
    node: ast.AST


@dataclass
class _Protocol:
    """Everything observed about one channel across the project."""

    sends: dict[str, list[_Site]] = field(default_factory=dict)
    handles: dict[str, list[_Site]] = field(default_factory=dict)
    dispatchers: int = 0


def _message_channel_of_call(node: ast.Call) -> str | None:
    """The channel whose message this call returns, or None."""
    name = call_name(node)
    if name == "next_message":
        return NEXT_MESSAGE_CHANNEL
    if name in _RECEIVE_CALLS and not node.args and isinstance(node.func, ast.Attribute):
        return channel_of(node.func.value)
    return None


def _assign_pairs(node: ast.Assign | ast.AnnAssign) -> list[tuple[ast.expr, ast.expr]]:
    """``(target, value)`` pairs, unzipping parallel tuple assignments."""
    if isinstance(node, ast.AnnAssign):
        return [(node.target, node.value)] if node.value is not None else []
    pairs: list[tuple[ast.expr, ast.expr]] = []
    for target in node.targets:
        if (
            isinstance(target, ast.Tuple)
            and isinstance(node.value, ast.Tuple)
            and len(target.elts) == len(node.value.elts)
        ):
            pairs.extend(zip(target.elts, node.value.elts))
        else:
            pairs.append((target, node.value))
    return pairs


def _is_tag_read(node: ast.expr, message_vars: dict[str, str]) -> str | None:
    """Channel when ``node`` is ``<message>[0]``, else None."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in message_vars
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
    ):
        return message_vars[node.value.id]
    return None


class _FunctionScan:
    """Message/tag variables and dispatch comparisons of one function."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.message_vars: dict[str, str] = {}  # name -> channel
        self.tag_vars: dict[str, str] = {}  # name -> channel
        self.handled: list[tuple[str, str, ast.AST]] = []  # (channel, tag, node)

    def seed_param(self, param: str, channel: str) -> None:
        self.message_vars.setdefault(param, channel)

    def scan(self) -> None:
        # Two passes so a tag variable assigned after its first textual
        # use (rare, but legal) still resolves.
        for _ in range(2):
            for node in ast.walk(self.func):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    for target, value in _assign_pairs(node):
                        if not isinstance(target, ast.Name):
                            continue
                        if isinstance(value, ast.Call):
                            channel = _message_channel_of_call(value)
                            if channel is not None:
                                self.message_vars.setdefault(target.id, channel)
                            continue
                        channel = _is_tag_read(value, self.message_vars)
                        if channel is not None:
                            self.tag_vars.setdefault(target.id, channel)
        for node in ast.walk(self.func):
            if isinstance(node, ast.Compare):
                self._scan_compare(node)

    def _channel_of_compared(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name) and node.id in self.tag_vars:
            return self.tag_vars[node.id]
        return _is_tag_read(node, self.message_vars)

    def _scan_compare(self, node: ast.Compare) -> None:
        channel = self._channel_of_compared(node.left)
        if channel is None or len(node.ops) != 1:
            return
        op = node.ops[0]
        comparator = node.comparators[0]
        if isinstance(op, (ast.Eq, ast.NotEq)):
            tag = str_const(comparator)
            if tag is not None:
                self.handled.append((channel, tag, node))
        elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
            comparator, (ast.Tuple, ast.List, ast.Set)
        ):
            for element in comparator.elts:
                tag = str_const(element)
                if tag is not None:
                    self.handled.append((channel, tag, node))


def _scan_module(ctx: FileContext) -> tuple[list[tuple[str, str, _Site]], list[_FunctionScan]]:
    """``(send sites, per-function scans)`` for one parsed module.

    Message variables propagate one call hop inside the module: a call
    ``f(msg)`` (or ``self._f(msg)``) whose argument is a known message
    variable seeds the parameter of the same-named local function.
    """
    sends: list[tuple[str, str, _Site]] = []
    for node in ctx.walk():
        if not is_method_call(node, "put") or not node.args:
            continue
        payload = node.args[0]
        if not isinstance(payload, ast.Tuple) or not payload.elts:
            continue
        tag = str_const(payload.elts[0])
        if tag is None:
            continue
        channel = channel_of(node.func.value)
        if channel is not None:
            sends.append((channel, tag, _Site(ctx, node)))

    scans = {func: _FunctionScan(func) for func in ctx.functions()}
    by_name: dict[str, list[_FunctionScan]] = {}
    for func, scan in scans.items():
        by_name.setdefault(func.name, []).append(scan)
    for scan in scans.values():
        scan.scan()
    # One-hop propagation into same-module callees, then rescan.
    for scan in scans.values():
        for node in ast.walk(scan.func):
            if not isinstance(node, ast.Call):
                continue
            callee = terminal_name(node.func)
            if callee is None or callee not in by_name:
                continue
            offset = 1 if isinstance(node.func, ast.Attribute) else 0
            for index, arg in enumerate(node.args):
                if not (
                    isinstance(arg, ast.Name) and arg.id in scan.message_vars
                ):
                    continue
                for target in by_name[callee]:
                    params = target.func.args.args
                    param_index = index + offset
                    if param_index < len(params):
                        target.seed_param(
                            params[param_index].arg,
                            scan.message_vars[arg.id],
                        )
    for scan in scans.values():
        scan.handled.clear()
        scan.scan()
    return sends, list(scans.values())


class WireProtocolChecker:
    """Every tuple-tagged queue message must have a matching dispatch arm."""

    id = "wire-protocol"

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        protocols: dict[str, _Protocol] = {}
        for ctx in project.files():
            if ctx.tree is None:
                continue
            sends, scans = _scan_module(ctx)
            for channel, tag, site in sends:
                proto = protocols.setdefault(channel, _Protocol())
                proto.sends.setdefault(tag, []).append(site)
            for scan in scans:
                channels_here = set()
                for channel, tag, node in scan.handled:
                    proto = protocols.setdefault(channel, _Protocol())
                    proto.handles.setdefault(tag, []).append(_Site(ctx, node))
                    channels_here.add(channel)
                for channel in channels_here:
                    protocols[channel].dispatchers += 1

        for channel in sorted(protocols):
            proto = protocols[channel]
            if not proto.sends:
                # Comparisons with no sends anywhere and no send sites on
                # the channel at all: not a wire protocol we can prove
                # anything about (likely an unrelated [0] == "..." match).
                continue
            if not proto.dispatchers:
                first = min(
                    (s for sites in proto.sends.values() for s in sites),
                    key=lambda s: s.node.lineno,
                )
                yield first.ctx.finding(
                    first.node,
                    self.id,
                    f"channel {channel!r} carries tagged messages but no "
                    f"dispatcher reads it anywhere in the analyzed files",
                )
                continue
            for tag in sorted(set(proto.sends) - set(proto.handles)):
                site = proto.sends[tag][0]
                yield site.ctx.finding(
                    site.node,
                    self.id,
                    f"wire tag {tag!r} sent on channel {channel!r} has no "
                    f"dispatch arm on the receiving side",
                )
            for tag in sorted(set(proto.handles) - set(proto.sends)):
                site = proto.handles[tag][0]
                yield site.ctx.finding(
                    site.node,
                    self.id,
                    f"dispatch arm for tag {tag!r} on channel {channel!r} "
                    f"matches no send site (dead arm or tag typo)",
                )
