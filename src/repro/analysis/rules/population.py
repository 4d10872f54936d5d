"""Population rule: no O(population) comprehensions in shard hot paths.

The cohort and sharded executors exist so that cost scales with *events*,
not with the client population: a 10⁶-client run must never materialise
a list with one element per client on a per-slot or per-cycle basis.  A
comprehension over a population-named iterable (``clients``,
``members``, ``survivors``, ``readers``, ``population``, ``cohort``)
inside the executor hot-path modules is exactly that trap — it is O(n)
work *and* O(n) transient allocation each time it runs, and it hides
inside one innocuous line.

Generator expressions are exempt (they stream; the consumer decides the
cost).  Loops that are genuinely bounded — a startup scan that runs
once, or a bucket's members rather than the whole population — are
acknowledged with ``# rep: allow-client-loop`` on the comprehension's
first line or the line above it; the escape states "this loop's size is
not the population", which is the fact a reviewer must check.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from .base import Finding, LintRule, ModuleUnderLint, register

__all__ = ["NoPopulationComprehensionRule"]

#: iterable names that (by repo convention) hold per-client state
_POPULATION_NAMES = frozenset(
    {"clients", "members", "survivors", "readers", "population", "cohort"}
)
_ALLOW = re.compile(r"#\s*rep:\s*allow-client-loop\b")

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp)


def _iterable_name(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a comprehension's iterable, if simple.

    Matches both ``survivors`` and ``self.clients``; call results like
    ``range(n)`` have no stable name and are left to human review.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register
class NoPopulationComprehensionRule(LintRule):
    """No list/set/dict comprehension over per-client populations."""

    rule_id = "REP008"
    description = (
        "no O(population) list/set/dict comprehensions over per-client "
        "iterables in shard/cohort hot-path modules; stream with a "
        "generator or mark bounded loops `# rep: allow-client-loop`"
    )
    scopes = (
        "repro/sim/cohort.py",
        "repro/sim/shard.py",
    )

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        allowed_lines = {
            lineno
            for lineno, line in enumerate(module.source.splitlines(), start=1)
            if _ALLOW.search(line)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, _COMPREHENSIONS):
                continue
            names = [
                name
                for name in (
                    _iterable_name(gen.iter) for gen in node.generators
                )
                if name in _POPULATION_NAMES
            ]
            if not names:
                continue
            last_line = getattr(node, "end_lineno", node.lineno)
            span = range(node.lineno - 1, last_line + 1)
            if any(line in allowed_lines for line in span):
                continue
            yield self.finding(
                module,
                node,
                f"comprehension over per-client iterable "
                f"'{names[0]}' materialises O(population) state in a "
                "shard hot path; stream it, or mark the loop "
                "`# rep: allow-client-loop` if its size is bounded",
            )
