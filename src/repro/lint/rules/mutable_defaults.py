"""RPL006 — mutable defaults and shared class-level containers.

A mutable default argument (or a bare list/dict/set class attribute) is
one object shared by every call and every instance.  In this codebase
the failure mode is concrete: a shared dict on a protocol or scenario
config couples *trials that must be independent*, so the paired
comparison leaks state across protocols and the parallel sweep diverges
from the serial one only under specific orderings — the worst kind of
nondeterminism.

Exemptions: ``ClassVar``-annotated attributes (explicitly shared),
dunder names, dataclass ``field(default_factory=...)``, and immutable
containers (tuples, frozensets).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ...analysis.findings import Finding
from ..registry import FileContext, Rule, register
from ._util import dotted_name

__all__ = ["MutableDefaultRule"]

_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
        "np.array",
        "np.zeros",
        "np.ones",
        "np.empty",
        "numpy.array",
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
    }
)

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


def _mutable_kind(node: Optional[ast.AST]) -> Optional[str]:
    """A short description when *node* evaluates to a shared mutable."""
    if node is None:
        return None
    if isinstance(node, _MUTABLE_LITERALS):
        return type(node).__name__.replace("Comp", " comprehension").lower()
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in _MUTABLE_CONSTRUCTORS:
            return f"{name}(...)"
    return None


def _is_classvar(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    return "ClassVar" in text or "Final" in text


@register
class MutableDefaultRule(Rule):
    code = "RPL006"
    name = "no-shared-mutables"
    summary = (
        "no mutable default arguments or bare mutable class attributes "
        "(shared state couples trials that must be independent)"
    )
    hint = (
        "default to None and build inside the function, or use "
        "dataclasses.field(default_factory=...); annotate intentional "
        "sharing with ClassVar"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(ctx, node)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class_body(ctx, node)

    def _check_defaults(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Finding]:
        args = func.args  # type: ignore[attr-defined]
        for default in [*args.defaults, *args.kw_defaults]:
            kind = _mutable_kind(default)
            if kind is not None:
                yield self.finding(
                    ctx,
                    default,
                    f"mutable default argument {kind} is shared by every "
                    f"call of '{func.name}'",  # type: ignore[attr-defined]
                )

    def _check_class_body(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value: Optional[ast.AST] = stmt.value
                annotation = None
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
                annotation = stmt.annotation
            else:
                continue
            if _is_classvar(annotation):
                continue
            if any(
                isinstance(t, ast.Name) and t.id.startswith("__")
                for t in targets
            ):
                continue
            kind = _mutable_kind(value)
            if kind is not None:
                yield self.finding(
                    ctx,
                    stmt,
                    f"class attribute {kind} on '{cls.name}' is one "
                    "object shared by every instance",
                )
