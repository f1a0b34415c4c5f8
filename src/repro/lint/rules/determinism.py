"""RPL001 — seeded determinism.

The reproduction's headline property is bit-identical seeded runs
(serial vs. parallel sweeps, optimized vs. reference engine).  Any use
of the stdlib ``random`` module or numpy's *global* RNG state breaks
that silently: global state is shared across protocols within a trial
and differs between the serial walk and forked workers.  All randomness
must flow through explicitly seeded :class:`numpy.random.Generator`
objects (``repro.types.as_rng`` / the ``sim/seeding.py`` path).

Besides ``random`` imports, the rule flags every call in the
``UNSEEDED_RNG`` table of :mod:`repro.analysis.effects` (the one
``repro analyze`` infers from) — including seeding the global state
with ``random.seed`` / ``np.random.seed`` — and ``default_rng()`` /
``Random()`` without a seed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis.effects import UNSEEDED_RNG
from ...analysis.findings import Finding
from ..registry import FileContext, Rule, register
from ._util import iter_effect_calls

__all__ = ["DeterminismRule"]

@register
class DeterminismRule(Rule):
    code = "RPL001"
    name = "no-unseeded-rng"
    summary = (
        "randomness must come from explicitly seeded numpy Generators, "
        "never the stdlib random module or numpy's global RNG state"
    )
    hint = (
        "thread a seed or np.random.Generator through repro.types.as_rng "
        "(initial placement goes through sim/seeding.py)"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib 'random' module is unseeded global "
                            "state; it breaks bit-identical replay",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        ctx,
                        node,
                        "import from stdlib 'random' relies on unseeded "
                        "global state",
                    )
        for call, note in iter_effect_calls(tree, ctx, UNSEEDED_RNG):
            yield self.finding(
                ctx,
                call,
                f"{note}; seeded runs are no longer reproducible",
            )
