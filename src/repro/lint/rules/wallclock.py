"""RPL002 — no wall-clock time in simulation logic.

Simulated time is event time; reading the host clock inside the library
makes results depend on machine load and breaks replay (the reference-
equivalence tests compare event-by-event).  Timing is legitimate only in
the benchmark harness and the provenance shim: the ``benchmarks/`` tree,
the runner's timing shim ``experiments/benchmark.py``, and the telemetry
stopwatch ``obs/timing.py`` (whose measurements land in manifests, never
in simulation state) are exempt by path, as is the distributed
backend's clock seam ``dist/clock.py`` — the one sanctioned place the
host clock enters lease deadlines, and injectable precisely so tests
never touch it.  Everything else that wants a duration goes through
:class:`repro.obs.timing.Stopwatch`.

The clock calls are the ``WALL_CLOCK`` table of
:mod:`repro.analysis.effects`, the one ``repro analyze`` infers from.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...analysis.effects import WALL_CLOCK
from ...analysis.findings import Finding
from ..registry import FileContext, Rule, register
from ._util import iter_effect_calls

__all__ = ["WallClockRule"]

@register
class WallClockRule(Rule):
    code = "RPL002"
    name = "no-wall-clock"
    summary = (
        "simulation logic must be driven by event time, never the host "
        "clock (exempt: benchmarks/, experiments/benchmark.py, "
        "obs/timing.py, dist/clock.py)"
    )
    hint = (
        "use the simulation's event time; wall-clock timing belongs in "
        "benchmarks/, the experiments/benchmark.py shim, the "
        "obs/timing.py provenance stopwatch, or the dist/clock.py "
        "lease-clock seam"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.in_directory("benchmarks") or ctx.parts[:1] == ("benchmarks",):
            return False
        if ctx.matches("experiments", "benchmark.py"):
            return False
        if ctx.matches("dist", "clock.py"):
            return False
        return not ctx.matches("obs", "timing.py")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for call, note in iter_effect_calls(tree, ctx, WALL_CLOCK):
            yield self.finding(
                ctx,
                call,
                f"{note}; results become machine- and load-dependent",
            )
