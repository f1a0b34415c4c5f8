"""Shared checker helpers."""

from __future__ import annotations

from typing import Dict, Sequence

from ..findings import PathStep
from ..program import Program
from ..suppressions import SuppressionMap

__all__ = ["path_suppressed"]


def path_suppressed(
    program: Program,
    code: str,
    *,
    root_path: str,
    root_line: int,
    trace: Sequence[PathStep],
) -> bool:
    """True when the root def line or the final leaf line suppresses *code*.

    Suppressing at the leaf silences every path through that operation
    (one justification next to the code that does the deed);
    suppressing at the root accepts the whole function.
    """
    by_path: Dict[str, SuppressionMap] = {
        module.path: module.suppressions
        for module in program.modules.values()
    }
    candidates = [(root_path, root_line)]
    if trace:
        leaf = trace[-1]
        candidates.append((leaf.path, leaf.line))
    for path, line in candidates:
        suppressions = by_path.get(path)
        if suppressions is None:
            continue
        if suppressions.is_suppressed(line, code):
            return True
    return False
