"""Pickling rule: live simulation state must not cross process bounds.

The sharded executor is built on a narrow serialization contract: what
ships to a pool worker is a :class:`SimulationConfig` (frozen,
declarative) plus a reader slice, and what ships back is a
:class:`MetricsCollector` plus scalars.  A live
:class:`BroadcastSimulation` — its :class:`Simulator` event queue,
:class:`BroadcastServer`, :class:`SharedState`, fault runtime — is none
of those things: pickling one either fails outright (generator-based
processes don't pickle) or, worse, silently forks divergent copies of
state whose whole point is to be authoritative and singular.

The rule flags calls that cross a serialization boundary —
``pool.submit(...)`` / ``pool.map(...)`` / ``pickle.dumps(...)`` and
friends — when an argument names live simulation state, either by repo
naming convention (``sim``, ``simulation``, ``simulator``, ``server``,
``state``) or by constructing/naming one of the stateful classes
directly.  A boundary call that is genuinely safe (e.g. a *finished*,
quiesced object being archived) is acknowledged with
``# rep: allow-pickle`` on the call's first line or the line above —
the escape states "this object no longer owns live state", which is the
fact a reviewer must check.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from .base import Finding, LintRule, ModuleUnderLint, register

__all__ = ["NoSimStatePicklingRule"]

#: argument names that (by repo convention) hold live simulation state
_FORBIDDEN_NAMES = frozenset(
    {"sim", "simulation", "simulator", "server", "state"}
)

#: classes whose instances own live, unpicklable or singular state
_FORBIDDEN_CLASSES = frozenset(
    {
        "BroadcastSimulation",
        "BroadcastServer",
        "Simulator",
        "SharedState",
        "FaultRuntime",
        "CohortExecutor",
    }
)

#: attribute-call names that mark a serialization boundary
_BOUNDARY_METHODS = frozenset(
    {"submit", "map", "starmap", "imap", "imap_unordered",
     "apply_async", "dumps", "dump"}
)

_ALLOW = re.compile(r"#\s*rep:\s*allow-pickle\b")


def _leaf_name(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a simple name or attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _offending_name(arg: ast.AST) -> Optional[str]:
    """The first live-state identifier inside ``arg``, if any.

    Walks the whole argument expression so state smuggled inside a
    tuple, list or constructor call (``(config, self.server)``,
    ``BroadcastSimulation(config)``) is still caught.
    """
    for node in ast.walk(arg):
        name = _leaf_name(node)
        if name in _FORBIDDEN_NAMES or name in _FORBIDDEN_CLASSES:
            return name
    return None


@register
class NoSimStatePicklingRule(LintRule):
    """No live simulation state across pickle/process boundaries."""

    rule_id = "REP009"
    description = (
        "no live simulation state (BroadcastSimulation, Simulator, "
        "server, SharedState) across pickle/process boundaries; only "
        "configs, shard slices and MetricsCollector may cross — or "
        "mark quiesced objects `# rep: allow-pickle`"
    )
    scopes = ()  # the whole tree: every boundary call is in scope

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        allowed_lines = {
            lineno
            for lineno, line in enumerate(module.source.splitlines(), start=1)
            if _ALLOW.search(line)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _BOUNDARY_METHODS
            ):
                continue
            offender = None
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                offender = _offending_name(arg)
                if offender is not None:
                    break
            if offender is None:
                continue
            last_line = getattr(node, "end_lineno", node.lineno)
            span = range(node.lineno - 1, last_line + 1)
            if any(line in allowed_lines for line in span):
                continue
            yield self.finding(
                module,
                node,
                f"'{offender}' names live simulation state crossing a "
                f"serialization boundary ('{func.attr}'); ship the "
                "config, a MetricsCollector, or a TimelineHandle "
                "instead, or mark a quiesced object "
                "`# rep: allow-pickle`",
            )
