"""RPL010 — no unsupervised sleep-based retry loops.

A ``while`` loop that waits with ``time.sleep`` has no a-priori bound:
when the condition never flips (a worker that died without releasing
its lease, a file that never appears) the process spins forever with
no one watching.  The repository has two sanctioned shapes for
waiting:

* bounded retries — a ``for attempt in range(attempts)`` loop with
  capped exponential backoff (the runner's attempt loop);
* supervised polling — the ``repro.dist`` package, where every wait
  happens under a lease TTL and a supervisor that reaps, requeues,
  and quarantines, and where sleeping goes through the injectable
  :class:`repro.dist.clock.Clock` so tests can fake time.

Everything else that finds itself writing ``while ...: time.sleep``
should either bound the loop or move the wait behind the distributed
backend's supervision.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis.findings import Finding
from ..registry import FileContext, Rule, register
from ._util import call_name

__all__ = ["RetrySleepRule"]

#: Callee names that block on the host clock inside a loop.
_SLEEP_CALLS = frozenset({"time.sleep", "sleep"})


def _sleeps_in(node: ast.AST) -> Iterator[ast.Call]:
    """Every sleep call lexically inside *node*, skipping nested defs.

    A function defined inside a ``while`` body runs on its own
    schedule — its sleeps are judged by the loop (if any) that the
    function itself contains, not by the enclosing loop.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(child, ast.Call) and call_name(child) in _SLEEP_CALLS:
            yield child
        yield from _sleeps_in(child)


@register
class RetrySleepRule(Rule):
    code = "RPL010"
    name = "no-unsupervised-retry-sleep"
    summary = (
        "while-loops must not wait with time.sleep outside the "
        "supervised dist/ backend (exempt: benchmarks/)"
    )
    hint = (
        "bound the loop (for attempt in range(n) with capped backoff) "
        "or run the wait under repro.dist supervision via the "
        "injectable Clock"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.in_directory("dist") or ctx.parts[:1] == ("dist",):
            return False
        return not (
            ctx.in_directory("benchmarks")
            or ctx.parts[:1] == ("benchmarks",)
        )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.While):
                continue
            for call in _sleeps_in(node):
                yield self.finding(
                    ctx,
                    call,
                    "sleep inside a while-loop is an unbounded retry: "
                    "nothing reaps the wait if the condition never "
                    "flips",
                )
