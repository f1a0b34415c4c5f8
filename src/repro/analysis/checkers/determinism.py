"""RPA001 — nondeterminism must not reach a deterministic surface.

The paper's evaluation (and this repo's reference-equivalence tests,
simcache, and distributed sweep dedup) all assume a run is a pure
function of ``(trace, demand, config, seed)``.  This checker enforces
that assumption transitively: if any function reachable from a
declared-deterministic surface draws unseeded randomness, reads the
host clock, or observes set-iteration / directory order, the surface's
output can differ between bit-identical invocations — silently, because
nothing crashes.  ``DYNAMIC`` (an unresolvable call) is an error too:
a surface that calls through opaque indirection cannot be audited, so
it must either be restructured or carry an explicit suppression with a
justification.
"""

from __future__ import annotations

from typing import Dict, List

from ..callgraph import CallGraph
from ..effects import DICT_ORDER, DYNAMIC, UNSEEDED_RNG, WALL_CLOCK
from ..findings import AnalysisFinding, Finding
from ..inference import EffectSummary, witness_trace
from ..program import Program
from ..surfaces import collect_surfaces
from .common import path_suppressed

__all__ = ["CODE", "check_determinism"]

CODE = "RPA001"

_FORBIDDEN = (UNSEEDED_RNG, WALL_CLOCK, DICT_ORDER, DYNAMIC)

_EFFECT_PHRASES = {
    UNSEEDED_RNG: "unseeded randomness",
    WALL_CLOCK: "a host-clock read",
    DICT_ORDER: "hash-order-dependent iteration",
    DYNAMIC: "an unresolvable dynamic call",
}


def check_determinism(
    program: Program,
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> List[Finding]:
    findings: List[Finding] = []
    for surface in collect_surfaces(graph):
        summary = summaries.get(surface.qname)
        info = graph.functions.get(surface.qname)
        if summary is None or info is None:
            continue
        for effect in _FORBIDDEN:
            if effect not in summary.effects:
                continue
            trace = witness_trace(graph, summaries, surface.qname, effect)
            if path_suppressed(
                program,
                CODE,
                root_path=info.path,
                root_line=info.lineno,
                trace=trace,
            ):
                continue
            leaf_note = trace[-1].note if trace else effect
            findings.append(
                AnalysisFinding(
                    path=info.path,
                    line=info.lineno,
                    col=1,
                    code=CODE,
                    message=(
                        f"{_EFFECT_PHRASES[effect]} reaches "
                        f"deterministic surface {info.display} "
                        f"({surface.reason}): {leaf_note}"
                    ),
                    hint=(
                        "results must be a pure function of inputs + "
                        "seed; thread the dependency through an "
                        "explicit parameter, sort the iteration, or "
                        f"suppress at the leaf with # repro-lint: "
                        f"ignore[{CODE}] <why it is safe>"
                    ),
                    trace=trace,
                )
            )
    findings.sort()
    return findings
