"""repro-lint: repo-specific per-file static analysis for the reproduction.

The reproduction's correctness claims — bit-identical seeded runs and
paper-faithful welfare numbers — depend on conventions no general
linter checks: all randomness seeded and threaded explicitly, no wall
clock in simulation logic, protocols mutating caches only through the
engine API, the stable fault -> request -> contact event merge, tolerant
float comparisons in the welfare math, no shared mutable state, no
swallowed loader errors, and fork-safe parallel work units.  This
package turns those conventions into machine-checked rules (``RPL001``…)
with a plugin registry.

Everything around the rules is shared with ``repro analyze``
(:mod:`repro.analysis`): files are parsed once by
:class:`~repro.analysis.program.Program`, suppressions and the
:class:`~repro.analysis.report.Report` (text, JSON, SARIF) are the
same, and RPL001/RPL002 classify each call, resolved through the
file's imports, against the effect tables in
:mod:`repro.analysis.effects`.

Run it as ``repro lint [paths]``; see docs/static_analysis.md for the
rule catalog.
"""

from __future__ import annotations

from ..analysis.findings import Finding
from ..analysis.report import Report
from .registry import FileContext, Rule, all_rules, register
from .runner import run_lint

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "Report",
    "all_rules",
    "register",
    "run_lint",
]
