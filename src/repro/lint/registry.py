"""Rule plugin registry.

A rule is a subclass of :class:`Rule` registered with the
:func:`register` decorator.  The runner instantiates every registered
rule once per run and calls :meth:`Rule.check` per file with the
parsed module's AST and a :class:`FileContext` around its
:class:`~repro.analysis.program.ModuleInfo`.

Rules scope themselves by *logical path* — the path parts below the
package root (``src/repro/sim/engine.py`` → ``("sim", "engine.py")``).
Test fixtures mirror the package layout under ``tests/lint/fixtures/``,
so a fixture at ``fixtures/protocols/bad.py`` exercises the same scoping
as real code in ``src/repro/protocols/``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Type

from ..analysis.findings import Finding
from ..analysis.program import ModuleInfo
from ..analysis.report import Catalog
from ..errors import ConfigurationError

__all__ = ["FileContext", "Rule", "register", "all_rules", "rule_catalog"]

#: Anchors below which the logical path starts; ``repro`` covers the real
#: package, ``fixtures`` covers the lint test corpus.
_PATH_ANCHORS = ("repro", "fixtures")


def logical_parts(path: Path) -> Tuple[str, ...]:
    """Path parts below the last package anchor (``repro``/``fixtures``).

    The top-level ``benchmarks/`` tree has no package anchor above it;
    it anchors *inclusively* so rules can recognize it by its first
    part regardless of where the repository is checked out.
    """
    parts = path.parts
    for anchor in _PATH_ANCHORS:
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            return parts[index + 1 :]
    if "benchmarks" in parts:
        index = len(parts) - 1 - parts[::-1].index("benchmarks")
        return parts[index:]
    return parts[-1:]


class FileContext:
    """Everything a rule may know about the file under analysis."""

    def __init__(self, module: ModuleInfo) -> None:
        #: The parsed file: AST, import table, suppressions.
        self.module = module
        self.display_path = module.path
        self.parts = logical_parts(Path(module.path))

    def in_directory(self, name: str) -> bool:
        """True when the file sits (anywhere) under package dir *name*."""
        return name in self.parts[:-1]

    def matches(self, *suffix: str) -> bool:
        """True when the logical path ends with *suffix* parts."""
        return self.parts[-len(suffix) :] == suffix


class Rule:
    """Base class for lint rules."""

    #: Stable rule code, e.g. ``"RPL001"``.
    code: str = ""
    #: Short kebab-case name used in ``--list-rules``.
    name: str = ""
    #: One-line description of what the rule protects.
    summary: str = ""
    #: Default fix hint attached to findings.
    hint: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Path-level scoping; default is every file."""
        return True

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        hint: str = "",
    ) -> Finding:
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            hint=hint or self.hint,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding *rule_cls* to the global registry."""
    if not rule_cls.code:
        raise ConfigurationError(
            f"rule {rule_cls.__name__} must define a code"
        )
    existing = _REGISTRY.get(rule_cls.code)
    if existing is not None and existing is not rule_cls:
        raise ConfigurationError(
            f"duplicate rule code {rule_cls.code}: "
            f"{existing.__name__} vs {rule_cls.__name__}"
        )
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    from . import rules as _rules  # noqa: F401  (imports register plugins)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rule_catalog() -> Catalog:
    """code -> (name, summary) for every registered rule."""
    return {rule.code: (rule.name, rule.summary) for rule in all_rules()}
