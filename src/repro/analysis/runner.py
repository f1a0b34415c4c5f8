"""Analysis driver: parse, build the graph, infer, check, baseline.

:func:`run_analysis` is the programmatic entry point behind
``repro analyze``.  Output ordering is deterministic end to end —
modules parse in sorted order, the fixed point iterates sorted qnames,
findings sort by location — so CI diffs and SARIF artifacts are stable
across machines.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .baseline import load_baseline, split_by_baseline
from .callgraph import build_call_graph
from .checkers import check_determinism, check_durability, check_schema
from .findings import Finding
from .inference import infer_effects
from .program import Program
from .report import Report, select_codes

__all__ = ["CHECKS", "WARNING_CODES", "run_analysis"]

#: code -> (name, one-line description) — the check catalog.
CHECKS: Dict[str, Tuple[str, str]] = {
    "RPA001": (
        "determinism-boundary",
        "unseeded RNG, host-clock reads, hash-order iteration, and "
        "dynamic calls must not reach a declared-deterministic surface",
    ),
    "RPA002": (
        "durability",
        "raw filesystem writes reachable from repro.dist or the "
        "experiment checkpointer must go through repro.durable",
    ),
    "RPA003": (
        "schema-unknown-kind",
        "every emitted trace-event kind must exist in the "
        "repro.obs.events registry",
    ),
    "RPA004": (
        "schema-dead-entry",
        "every registry entry should be emitted somewhere (warning)",
    ),
}

#: Codes that report but never fail the run.
WARNING_CODES = frozenset({"RPA004"})


_CHECKERS = (
    check_determinism,
    check_durability,
    check_schema,
)


def run_analysis(
    root: str = "src/repro",
    *,
    package: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
    baseline_path: Optional[Path] = None,
    source_overrides: Optional[Mapping[str, str]] = None,
) -> Report:
    """Analyze the package tree at *root* and return the report.

    *select* restricts the run to the listed check codes; unknown codes
    raise :class:`~repro.errors.ConfigurationError`.
    *baseline_path*, when given and existing, partitions findings into
    new vs. baselined.  *source_overrides* substitutes module sources
    in memory (the seeded regression tests inject nondeterminism this
    way).
    """
    selected = select_codes(select, CHECKS, "check")
    program = Program.load(
        Path(root), package=package, source_overrides=source_overrides
    )
    graph = build_call_graph(program)
    summaries = infer_effects(graph)
    findings: List[Finding] = [
        finding
        for checker in _CHECKERS
        for finding in checker(program, graph, summaries)
        if selected is None or finding.code in selected
    ]
    findings.sort()
    baseline = (
        load_baseline(baseline_path) if baseline_path is not None else None
    )
    new, baselined = split_by_baseline(findings, baseline)
    return Report(
        tool="repro-analyze",
        catalog=CHECKS,
        findings=new,
        baselined=baselined,
        warning_codes=WARNING_CODES,
        n_files=len(program.modules),
        n_functions=len(graph.functions),
        parse_errors=list(program.parse_errors),
        graph=graph,
        summaries=summaries,
    )
