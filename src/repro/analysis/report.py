"""The one report type behind ``repro lint`` and ``repro analyze``.

Both layers hand back a :class:`Report`: its findings (sorted, so
output is deterministic end to end), the files that failed to parse,
and the counters each layer fills in.  It renders as text, as JSON
(``version`` 1; the key set is the union of both layers' counters), or
as minimal SARIF 2.1.0 for code-scanning upload.  The ``tool`` field
(``repro-lint`` / ``repro-analyze``) names the producing layer.

:func:`select_codes` validates ``--select`` against a layer's full
catalog, so an unknown code is an error in both layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigurationError
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import CallGraph
    from .inference import EffectSummary

__all__ = ["Catalog", "JSON_VERSION", "Report", "select_codes"]

#: Schema version of the ``--format json`` payload.
JSON_VERSION = 1

#: code -> (name, one-line description).
Catalog = Mapping[str, Tuple[str, str]]


def select_codes(
    select: Optional[Sequence[str]], catalog: Catalog, noun: str
) -> Optional[FrozenSet[str]]:
    """The selected codes (None = all); unknown codes raise."""
    if not select:
        return None
    unknown = [code for code in select if code not in catalog]
    if unknown:
        raise ConfigurationError(
            f"unknown {noun} code(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(catalog))}"
        )
    return frozenset(select)


@dataclass
class Report:
    """Outcome of one lint or analysis run."""

    #: ``repro-lint`` or ``repro-analyze``.
    tool: str
    catalog: Catalog
    findings: List[Finding] = field(default_factory=list)
    #: Files that failed to parse: (path, error message).
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Files linted / modules analyzed.
    n_files: int = 0
    n_suppressed: int = 0
    n_functions: int = 0
    #: Findings accepted by the analysis baseline (never fail the run).
    baselined: List[Finding] = field(default_factory=list)
    #: Codes that report but never fail the run.
    warning_codes: FrozenSet[str] = frozenset()
    #: Kept for tests and tooling; never serialized.
    graph: Optional["CallGraph"] = None
    summaries: Optional[Dict[str, "EffectSummary"]] = None

    @property
    def n_modules(self) -> int:
        return self.n_files

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.code not in self.warning_codes]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.code in self.warning_codes]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.parse_errors

    def render(self, fmt: str) -> str:
        """``text``, ``json`` or ``sarif``."""
        return getattr(self, f"render_{fmt}")()

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.extend(
            f"{path}: parse error: {message}"
            for path, message in self.parse_errors
        )
        summary = f"{len(self.findings)} finding(s) in {self.n_files} file(s)"
        if self.n_functions:
            summary += f" / {self.n_functions} function(s)"
        summary += (
            f": {len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        if self.n_suppressed:
            summary += f", {self.n_suppressed} suppressed"
        if self.baselined:
            summary += f", {len(self.baselined)} baselined"
        if self.parse_errors:
            summary += f", {len(self.parse_errors)} parse error(s)"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        payload = {
            "version": JSON_VERSION,
            "tool": self.tool,
            "n_files": self.n_files,
            "n_modules": self.n_files,
            "n_functions": self.n_functions,
            "n_findings": len(self.findings),
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "n_suppressed": self.n_suppressed,
            "n_baselined": len(self.baselined),
            "parse_errors": [
                {"file": path, "message": message}
                for path, message in self.parse_errors
            ],
            "findings": [finding.to_dict() for finding in self.findings],
            "baselined": sorted(
                finding.fingerprint() for finding in self.baselined
            ),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_sarif(self) -> str:
        """Minimal SARIF 2.1.0 — what code-scanning upload endpoints need."""
        results = []
        for finding in self.findings:
            result: Dict[str, Any] = {
                "ruleId": finding.code,
                "level": (
                    "warning"
                    if finding.code in self.warning_codes
                    else "error"
                ),
                "message": {"text": finding.message},
                "locations": [
                    _location(finding.path, finding.line, finding.col)
                ],
                "partialFingerprints": {
                    "reproAnalyze/v1": finding.fingerprint()
                },
            }
            related = [
                dict(
                    _location(step.path, step.line),
                    message={"text": f"{step.symbol} — {step.note}"},
                )
                for step in getattr(finding, "trace", ())
            ]
            if related:
                result["relatedLocations"] = related
            results.append(result)
        rules = [
            {"id": code, "name": name, "shortDescription": {"text": text}}
            for code, (name, text) in sorted(self.catalog.items())
        ]
        payload = {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": self.tool,
                            "version": str(JSON_VERSION),
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _location(
    path: str, line: int, col: Optional[int] = None
) -> Dict[str, Any]:
    region: Dict[str, int] = {"startLine": max(line, 1)}
    if col is not None:
        region["startColumn"] = col
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path},
            "region": region,
        }
    }
