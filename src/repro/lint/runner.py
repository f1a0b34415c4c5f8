"""Lint driver: walk paths, parse, run rules, apply suppressions.

The public entry points are :func:`run_lint` (programmatic) and
:func:`repro.lint.cli.cmd_lint` (the ``repro lint`` subcommand).  Files
are parsed by :meth:`repro.analysis.program.Program.from_files`, the
same parse ``repro analyze`` uses, and reported through the shared
:class:`~repro.analysis.report.Report`.  Output is deterministic: files
are visited in sorted order and findings sorted by location, so CI
diffs are stable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..analysis.program import Program
from ..analysis.report import JSON_VERSION, Report, select_codes
from ..errors import ConfigurationError
from .registry import FileContext, all_rules, rule_catalog

__all__ = ["JSON_VERSION", "run_lint"]


def _iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise ConfigurationError(f"no such file or directory: {path}")
    # Deduplicate while preserving sorted order per input path.
    unique: Dict[Path, Path] = {}
    for path in files:
        unique.setdefault(path.resolve(), path)
    return list(unique.values())


def run_lint(
    paths: Sequence[str],
    *,
    select: Optional[Sequence[str]] = None,
) -> Report:
    """Lint every ``.py`` file under *paths* with the registered rules.

    *select* restricts the run to the listed rule codes; unknown codes
    raise :class:`~repro.errors.ConfigurationError`.
    """
    catalog = rule_catalog()
    selected = select_codes(select, catalog, "rule")
    rules = [r for r in all_rules() if selected is None or r.code in selected]
    files = _iter_python_files([Path(p) for p in paths])
    program = Program.from_files(files)
    report = Report(
        tool="repro-lint",
        catalog=catalog,
        n_files=len(files),
        parse_errors=program.parse_errors,
    )
    for module in program.modules.values():
        if module.suppressions.skip_file:
            continue
        ctx = FileContext(module)
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(module.tree, ctx):
                if module.suppressions.is_suppressed(finding.line, finding.code):
                    report.n_suppressed += 1
                else:
                    report.findings.append(finding)
    report.findings.sort()
    return report
