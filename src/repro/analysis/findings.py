"""Findings: one violation at a source location, optionally with a path.

A :class:`Finding` pins one violation to ``file:line:col`` (columns are
1-based, for both layers) and carries the code (``RPL001``…,
``RPA001``…), a message, and a fix hint.  Findings sort by (file, line,
column, code) so reports are stable across runs — the analyzers
themselves must be deterministic, for obvious reasons.

An :class:`AnalysisFinding` adds the whole-program *trace* — the chain
of call sites from the checked root down to the leaf operation that
introduced the effect.  Rendering prints the chain ``file:line`` by
``file:line`` so a reader can follow the taint without opening the
analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

__all__ = ["AnalysisFinding", "Finding", "PathStep"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def render(self) -> str:
        """The one-line text form: ``path:line:col: CODE message``."""
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form used by ``--format json``."""
        return {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }

    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline ratchet.

        Stable across unrelated edits to the same files: built from the
        code, the anchor file, and the message (which names the symbols
        involved, not their line numbers).
        """
        return f"{self.code}::{self.path}::{self.message}"


@dataclass(frozen=True, order=True)
class PathStep:
    """One hop of a propagation path."""

    path: str
    line: int
    symbol: str
    note: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.symbol} — {self.note}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "note": self.note,
        }


@dataclass(frozen=True, order=True)
class AnalysisFinding(Finding):
    """One checker violation, with its inter-procedural trace.

    ``trace[0]`` is the declared root (surface / durability root /
    emission site); the last step is the leaf operation.  Single-step
    findings (schema drift) carry a one-element trace.
    """

    trace: Tuple[PathStep, ...] = field(default=())

    def render(self) -> str:
        text = super().render()
        if len(self.trace) > 1:
            lines = [text, "    propagation path:"]
            lines.extend(f"      {step.render()}" for step in self.trace)
            text = "\n".join(lines)
        return text

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload["trace"] = [step.to_dict() for step in self.trace]
        return payload
