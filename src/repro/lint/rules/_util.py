"""Shared AST helpers for rule implementations."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ...analysis.effects import classify_external_call
from ...analysis.program import dotted_name
from ..registry import FileContext

__all__ = [
    "dotted_name",
    "call_name",
    "iter_calls",
    "iter_effect_calls",
    "is_name_constant",
]


def call_name(call: ast.Call) -> Optional[str]:
    """The dotted name of a call's callee, when statically resolvable."""
    return dotted_name(call.func)


def iter_calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every call in *tree* paired with its dotted callee name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node, call_name(node)


def iter_effect_calls(
    tree: ast.AST, ctx: FileContext, effect: str
) -> Iterator[Tuple[ast.Call, str]]:
    """Calls the effect tables classify as *effect*, with the table's note.

    Each callee is resolved through the file's imports first, so
    ``from time import perf_counter; perf_counter()`` is
    ``time.perf_counter`` just as it is for ``repro analyze``.
    """
    for call, name in iter_calls(tree):
        if name is None:
            continue
        classified = classify_external_call(ctx.module.resolve(name), call)
        if classified is not None and classified[0] == effect:
            yield call, classified[1]


def is_name_constant(node: ast.AST, *names: str) -> bool:
    """True when *node* is a bare name or attribute tail in *names*.

    Matches both ``Exception`` and e.g. ``builtins.Exception``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return False
    return dotted in names or dotted.rsplit(".", 1)[-1] in names
