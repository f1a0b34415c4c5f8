"""Module discovery and parsing — the one parse behind both layers.

A :class:`Program` is a set of parsed modules keyed by dotted module
name, each a :class:`ModuleInfo` carrying its AST, source, display
path, the shared ``# repro-lint: ignore[...]`` suppression map, and
its import table.  :meth:`Program.load` parses one package tree for
``repro analyze``; :meth:`Program.from_files` parses the loose files
``repro lint`` is pointed at.  Both go through :meth:`Program.add`, the
only place a file is parsed.

Tests analyze fixture packages and *mutated* copies of the real tree
without touching disk via ``source_overrides`` — the seeded regression
tests inject ``time.time()`` into a protocol hook this way and assert
the checker fires.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .suppressions import SuppressionMap, parse_suppressions

__all__ = ["ModuleInfo", "Program", "dotted_name"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve a ``Name``/``Attribute`` chain to ``a.b.c``, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed program."""

    name: str
    path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionMap = field(default_factory=SuppressionMap)

    @property
    def is_package(self) -> bool:
        return self.path.endswith("__init__.py") or (
            "/" not in self.name and "." not in self.path
        )

    def package_of(self, level: int) -> str:
        """The module's package walked up *level* steps (PEP 328)."""
        name = self.name
        if not self.is_package:
            name = name.rpartition(".")[0]
        for _ in range(max(level - 1, 0)):
            name = name.rpartition(".")[0]
        return name

    @cached_property
    def imports(self) -> Dict[str, Tuple[str, Optional[str]]]:
        """Local name -> ``(module, symbol | None)`` for every import.

        Function-level imports (used for cycle breaking all over the
        package) land in the same table; a same-name collision at module
        granularity is not observed in practice and would only widen
        resolution.
        """
        table: Dict[str, Tuple[str, Optional[str]]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    table[local] = (target, None)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    base = self.package_of(node.level)
                    module = f"{base}.{module}" if module else base
                for alias in node.names:
                    if alias.name != "*":
                        table[alias.asname or alias.name] = (module, alias.name)
        return table

    def resolve(self, dotted: str) -> str:
        """*dotted* with its head name resolved through the imports.

        ``np.random.seed`` under ``import numpy as np`` and ``seed``
        under ``from numpy.random import seed`` both resolve to
        ``numpy.random.seed``, the spelling the effect tables use.
        Names the module does not import come back unchanged.
        """
        head, dot, rest = dotted.partition(".")
        if head not in self.imports:
            return dotted
        module, symbol = self.imports[head]
        target = module if symbol is None else f"{module}.{symbol}"
        return target + dot + rest


def _module_name(parts: Sequence[str]) -> str:
    """Dotted module name of a path's parts (suffix already dropped)."""
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Program:
    """Every parsed module of one package tree (or one set of files).

    Parameters
    ----------
    modules:
        Dotted module name -> :class:`ModuleInfo`.
    package:
        The root package name (``"repro"`` for the real tree, the
        fixture package's name in tests, empty for loose files).
    """

    def __init__(self, modules: Dict[str, ModuleInfo], package: str) -> None:
        self.modules = modules
        self.package = package
        #: Files that failed to parse: (path, message).
        self.parse_errors: List[Tuple[str, str]] = []

    def get(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

    def is_internal(self, module: str) -> bool:
        """True when *module* belongs to the analyzed package."""
        return module == self.package or module.startswith(
            self.package + "."
        )

    @classmethod
    def load(
        cls,
        root: Path,
        *,
        package: Optional[str] = None,
        source_overrides: Optional[Mapping[str, str]] = None,
    ) -> "Program":
        """Parse every ``.py`` file under the package directory *root*.

        *root* is the package directory itself (``src/repro``); its
        basename is the package name unless *package* overrides it.
        *source_overrides* maps dotted module names to replacement
        source text (modules not on disk may be added this way).
        """
        root = Path(root)
        if not root.is_dir():
            raise ConfigurationError(
                f"analysis root {root} is not a directory"
            )
        pkg = package or root.name
        overrides = dict(source_overrides or {})
        program = cls({}, pkg)
        for file_path in sorted(root.rglob("*.py")):
            rel = file_path.relative_to(root).with_suffix("")
            name = _module_name((pkg,) + rel.parts)
            source = overrides.pop(name, None)
            if source is None:
                source = file_path.read_text(encoding="utf-8")
            program.add(name, str(file_path), source)
        for name, source in sorted(overrides.items()):
            # Synthetic modules injected by tests (no on-disk file).
            pseudo = "<override>/" + name.replace(".", "/") + ".py"
            program.add(name, pseudo, source)
        return program

    @classmethod
    def from_files(cls, paths: Sequence[Path]) -> "Program":
        """Parse loose files, each named after its absolute path."""
        program = cls({}, "")
        for path in paths:
            name = _module_name(path.resolve().with_suffix("").parts[1:])
            program.add(name, str(path), path.read_text(encoding="utf-8"))
        return program

    def add(self, name: str, path: str, source: str) -> None:
        """Parse one module; a syntax error is recorded, not raised."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            self.parse_errors.append(
                (path, f"line {error.lineno}: {error.msg}")
            )
            return
        self.modules[name] = ModuleInfo(
            name=name,
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )
