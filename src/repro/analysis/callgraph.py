"""AST-based, import-resolving call graph over a whole package.

The builder turns a :class:`~repro.analysis.program.Program` into one
:class:`FunctionInfo` node per function/method (nested functions
included; lambdas are folded into their enclosing function) and one
:class:`CallSite` per syntactic call, resolved to:

* *internal targets* — qualified names ``module:Class.method`` of every
  function the call may reach.  Resolution understands imports (incl.
  relative and re-exported names), ``self``/``cls``, attribute chains
  through annotated/inferred instance types, class-hierarchy dispatch
  (a call through a base-class receiver targets every override — this
  is how the engine's protocol-hook indirection is modeled),
  ``functools.partial``, ``super()``, and constructor calls;
* an *external* dotted name (``numpy.sort``, ``time.time``, ``open``)
  looked up in the effect tables of :mod:`repro.analysis.effects`; or
* *dynamic* — a call through a parameter, a container lookup, or
  anything else resolution cannot see through.  Dynamic calls fall back
  to the conservative TOP effect.

Functions passed as arguments (``pool.submit(f)``, ``key=f``,
``target=f``) contribute potential-call edges to every internal
callable they reference, so effects flow through callback plumbing.

Method calls on *untyped* receivers resolve by class-hierarchy name
matching — every method of that name defined anywhere in the program —
except for :data:`AMBIENT_METHOD_NAMES` (``get``, ``items``, ``pop``,
...), which overwhelmingly hit builtin containers and would otherwise
flood the graph with false edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .program import ModuleInfo, Program, dotted_name

__all__ = [
    "AMBIENT_METHOD_NAMES",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "build_call_graph",
    "own_body_nodes",
]

#: Method names never resolved by bare name matching: they are
#: overwhelmingly dict/list/set/str/file operations, and a name-based
#: edge to a same-named repo method would be noise, not analysis.
#: Typed receivers (annotations, constructor assignment) still resolve
#: these precisely.
AMBIENT_METHOD_NAMES: FrozenSet[str] = frozenset(
    {
        "add", "append", "astype", "clear", "close", "copy", "count",
        "decode", "difference", "discard", "encode", "endswith",
        "extend", "fileno", "fill", "flush", "format", "get", "index",
        "insert", "intersection", "isdigit", "issubset", "issuperset",
        "item", "items", "join", "keys", "lower", "lstrip", "max",
        "mean", "min", "nonzero", "pop", "popitem", "ravel", "read",
        "readline", "readlines", "remove", "replace", "reshape",
        "reverse", "rstrip", "rsplit", "search", "seek", "setdefault",
        "sort", "split", "startswith", "strip", "sum", "tell",
        "tolist", "union", "update", "upper", "values", "view",
        "write", "writelines",
    }
)

#: Decorator names the builder interprets (matched on the last dotted
#: component, so any import alias works).
_DECL_EFFECTS = "declared_effects"
_DET_SURFACE = "deterministic_surface"


def own_body_nodes(
    root: ast.AST, *, include_lambdas: bool = True
) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs.

    Lambda bodies belong to the enclosing function (a lambda is almost
    always invoked by the HOF it is passed to), nested ``def``/``class``
    bodies do not — they are separate call-graph nodes.  Nested
    ``FunctionDef`` nodes are yielded (the definition, not the body) so
    callers can register them.
    """
    assert isinstance(
        root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    )
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            continue
        if isinstance(node, ast.ClassDef):
            continue
        if isinstance(node, ast.Lambda):
            if include_lambdas:
                yield node
                stack.extend(ast.iter_child_nodes(node))
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class FunctionInfo:
    """One function/method node of the call graph."""

    qname: str
    module: str
    name: str
    cls: Optional[str]
    node: ast.AST
    path: str
    lineno: int
    decorators: Tuple[str, ...] = ()
    #: Effect names from ``@declared_effects`` (None = infer).
    declared: Optional[FrozenSet[str]] = None
    #: ``@deterministic_surface`` marker.
    surface_marked: bool = False

    @property
    def display(self) -> str:
        return self.qname.replace(":", ".", 1)


@dataclass
class ClassInfo:
    """One class definition with resolved hierarchy links."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    base_names: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Attribute name -> candidate class qnames (from annotations and
    #: constructor assignments).
    attr_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Resolved internal base-class qnames (direct).
    bases: Tuple[str, ...] = ()


@dataclass
class CallSite:
    """One syntactic call inside a function body."""

    line: int
    col: int
    node: ast.Call
    #: Internal function qnames the call may reach.
    targets: Tuple[str, ...] = ()
    #: Dotted external callee (effect-table key) when not internal.
    external: Optional[str] = None
    #: True when resolution gave up (parameter call, computed callee).
    dynamic: bool = False
    #: True for potential-call edges from function-valued arguments.
    via_argument: bool = False


# ---------------------------------------------------------------------------
# module symbol tables
# ---------------------------------------------------------------------------


class _ModuleSymbols:
    """Name-resolution view of one module (imports live on the module)."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: local alias -> dotted source expression (``A = B.c``)
        self.aliases: Dict[str, str] = {}
        #: module-level string constants (``RUN_START = "run_start"``)
        self.constants: Dict[str, str] = {}


def _collect_definitions(
    symbols: _ModuleSymbols, module: ModuleInfo
) -> List[FunctionInfo]:
    """Top-level functions, classes with methods, aliases, constants."""
    functions: List[FunctionInfo] = []
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _function_info(module, stmt, cls=None)
            symbols.functions[stmt.name] = info
            functions.append(info)
        elif isinstance(stmt, ast.ClassDef):
            cls_info = ClassInfo(
                qname=f"{module.name}:{stmt.name}",
                module=module.name,
                name=stmt.name,
                node=stmt,
                base_names=tuple(
                    name
                    for name in (dotted_name(base) for base in stmt.bases)
                    if name is not None
                ),
            )
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = _function_info(module, sub, cls=stmt.name)
                    cls_info.methods[sub.name] = method
                    functions.append(method)
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    cls_info.attr_types.setdefault(
                        sub.target.id, ()
                    )  # filled after hierarchy resolution
            symbols.classes[stmt.name] = cls_info
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(stmt.value, ast.Constant) and isinstance(
                stmt.value.value, str
            ):
                symbols.constants[target.id] = stmt.value.value
            else:
                source = dotted_name(stmt.value)
                if source is not None:
                    symbols.aliases[target.id] = source
    return functions


def _function_info(
    module: ModuleInfo,
    node: ast.AST,
    cls: Optional[str],
    parent: Optional[str] = None,
) -> FunctionInfo:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    if parent is not None:
        local = f"{parent}.<locals>.{node.name}"
    elif cls is not None:
        local = f"{cls}.{node.name}"
    else:
        local = node.name
    decorators = []
    declared: Optional[FrozenSet[str]] = None
    surface = False
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name is None:
            continue
        decorators.append(name)
        tail = name.rsplit(".", 1)[-1]
        if tail == _DECL_EFFECTS and isinstance(deco, ast.Call):
            names = [
                arg.value
                for arg in deco.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
            ]
            declared = frozenset(n for n in names if n != "PURE")
        elif tail == _DET_SURFACE:
            surface = True
    return FunctionInfo(
        qname=f"{module.name}:{local}",
        module=module.name,
        name=node.name,
        cls=cls,
        node=node,
        path=module.path,
        lineno=node.lineno,
        decorators=tuple(decorators),
        declared=declared,
        surface_marked=surface,
    )


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------


class CallGraph:
    """Resolved functions, classes, and per-function call sites."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.symbols: Dict[str, _ModuleSymbols] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        #: class qname -> direct internal subclass qnames
        self.subclasses: Dict[str, List[str]] = {}

    # -- hierarchy ----------------------------------------------------

    def ancestors(self, cls_qname: str) -> List[str]:
        """Transitive internal base classes, nearest first."""
        seen: List[str] = []
        stack = list(self.classes[cls_qname].bases)
        while stack:
            base = stack.pop(0)
            if base in seen or base not in self.classes:
                continue
            seen.append(base)
            stack.extend(self.classes[base].bases)
        return seen

    def descendants(self, cls_qname: str) -> List[str]:
        """Transitive internal subclasses, breadth-first."""
        seen: List[str] = []
        stack = list(self.subclasses.get(cls_qname, ()))
        while stack:
            sub = stack.pop(0)
            if sub in seen:
                continue
            seen.append(sub)
            stack.extend(self.subclasses.get(sub, ()))
        return seen

    def resolve_method(
        self, cls_qnames: Sequence[str], method: str
    ) -> Tuple[str, ...]:
        """Every definition *method* may dispatch to on these receivers.

        Includes the receiver classes themselves, their ancestors
        (inherited implementations), and every subclass override —
        receivers statically typed as a base class dispatch to
        subclass implementations at runtime.
        """
        targets: List[str] = []
        for cls in cls_qnames:
            if cls not in self.classes:
                continue
            family = [cls] + self.ancestors(cls) + self.descendants(cls)
            for member in family:
                info = self.classes[member].methods.get(method)
                if info is not None and info.qname not in targets:
                    targets.append(info.qname)
        return tuple(targets)

    def methods_named(self, method: str) -> Tuple[str, ...]:
        """Name-based CHA fallback: every method with this name."""
        if method in AMBIENT_METHOD_NAMES:
            return ()
        targets = [
            cls.methods[method].qname
            for cls in self.classes.values()
            if method in cls.methods
        ]
        return tuple(sorted(targets))

    # -- symbol resolution --------------------------------------------

    def resolve_symbol(
        self, module: str, symbol: str, _seen: Optional[Set[str]] = None
    ) -> Tuple[str, Optional[str]]:
        """Resolve *symbol* in *module* to ``(kind, value)``.

        Kinds: ``function`` / ``class`` / ``module`` (internal dotted
        module name), ``external`` (dotted name outside the program),
        ``constant`` (module-level string), or ``unknown``.
        """
        key = f"{module}:{symbol}"
        seen = _seen if _seen is not None else set()
        if key in seen:
            return ("unknown", None)
        seen.add(key)
        syms = self.symbols.get(module)
        if syms is None:
            return ("external", f"{module}.{symbol}")
        if symbol in syms.functions:
            return ("function", syms.functions[symbol].qname)
        if symbol in syms.classes:
            return ("class", syms.classes[symbol].qname)
        if symbol in syms.info.imports:
            target_module, target_symbol = syms.info.imports[symbol]
            if target_symbol is None:
                if self.program.is_internal(target_module):
                    return ("module", target_module)
                return ("external", target_module)
            if self.program.is_internal(target_module):
                resolved = self.resolve_symbol(
                    target_module, target_symbol, seen
                )
                if resolved[0] == "unknown":
                    # ``from package import module`` spelling.
                    candidate = f"{target_module}.{target_symbol}"
                    if candidate in self.symbols:
                        return ("module", candidate)
                return resolved
            return ("external", f"{target_module}.{target_symbol}")
        if symbol in syms.aliases:
            source = syms.aliases[symbol]
            head, _, rest = source.partition(".")
            kind, value = self.resolve_symbol(module, head, seen)
            if not rest:
                return (kind, value)
            if kind == "module" and value is not None:
                return self.resolve_symbol(value, rest, seen)
            if kind == "external" and value is not None:
                return ("external", f"{value}.{rest}")
            return ("unknown", None)
        if symbol in syms.constants:
            return ("constant", syms.constants[symbol])
        submodule = f"{module}.{symbol}"
        if submodule in self.symbols:
            return ("module", submodule)
        return ("unknown", None)

    def resolve_constant(self, module: str, dotted: str) -> Optional[str]:
        """A dotted name's module-level string value, if resolvable."""
        head, _, rest = dotted.partition(".")
        kind, value = self.resolve_symbol(module, head)
        while rest and kind == "module" and value is not None:
            head, _, rest = rest.partition(".")
            kind, value = self.resolve_symbol(value, head)
        if kind == "constant" and not rest:
            return value
        return None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def build_call_graph(program: Program) -> CallGraph:
    """Build the resolved call graph of *program*."""
    graph = CallGraph(program)
    all_functions: List[FunctionInfo] = []
    for name in sorted(program.modules):
        module = program.modules[name]
        syms = _ModuleSymbols(module)
        all_functions.extend(_collect_definitions(syms, module))
        graph.symbols[name] = syms
        for cls in syms.classes.values():
            graph.classes[cls.qname] = cls
    # Resolve the class hierarchy.
    for cls in graph.classes.values():
        bases: List[str] = []
        for base_name in cls.base_names:
            resolved = _resolve_dotted(graph, cls.module, base_name)
            if resolved[0] == "class" and resolved[1] is not None:
                bases.append(resolved[1])
        cls.bases = tuple(bases)
        for base in bases:
            graph.subclasses.setdefault(base, []).append(cls.qname)
    # Class attribute types (annotations + constructor assignments).
    for cls in graph.classes.values():
        _collect_attr_types(graph, cls)
    # Function bodies: nested defs become nodes, calls get resolved.
    for info in all_functions:
        _FunctionScanner(graph, info).scan()
    return graph


def _resolve_dotted(
    graph: CallGraph, module: str, dotted: str
) -> Tuple[str, Optional[str]]:
    head, _, rest = dotted.partition(".")
    kind, value = graph.resolve_symbol(module, head)
    while rest:
        head, _, rest = rest.partition(".")
        if kind == "module" and value is not None:
            kind, value = graph.resolve_symbol(value, head)
        elif kind == "external" and value is not None:
            value = f"{value}.{head}"
        elif kind == "class" and value is not None and not rest:
            method = graph.classes[value].methods.get(head)
            if method is not None:
                return ("function", method.qname)
            return ("unknown", None)
        else:
            return ("unknown", None)
    return (kind, value)


def _annotation_classes(
    graph: CallGraph, module: str, annotation: Optional[ast.AST]
) -> Tuple[str, ...]:
    """Internal class qnames referenced by an annotation expression."""
    if annotation is None:
        return ()
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return ()
    classes: List[str] = []
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                continue
            for name in _annotation_classes(graph, module, inner):
                if name not in classes:
                    classes.append(name)
        dotted = dotted_name(node)
        if dotted is None:
            continue
        kind, value = _resolve_dotted(graph, module, dotted)
        if kind == "class" and value is not None and value not in classes:
            classes.append(value)
    return tuple(classes)


def _collect_attr_types(graph: CallGraph, cls: ClassInfo) -> None:
    """``self.x`` types from class-body annotations and ``__init__``."""
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            types = _annotation_classes(graph, cls.module, stmt.annotation)
            if types:
                cls.attr_types[stmt.target.id] = types
    for method in cls.methods.values():
        node = method.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        param_types = _parameter_types(graph, cls.module, node)
        for sub in ast.walk(node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value, annotation = sub.target, sub.value, sub.annotation
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            types: Tuple[str, ...] = ()
            if annotation is not None:
                types = _annotation_classes(graph, cls.module, annotation)
            if not types and value is not None:
                types = _value_types(graph, cls.module, value, param_types)
            if types and target.attr not in cls.attr_types:
                cls.attr_types[target.attr] = types


def _parameter_types(
    graph: CallGraph,
    module: str,
    node: ast.AST,
) -> Dict[str, Tuple[str, ...]]:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    params: Dict[str, Tuple[str, ...]] = {}
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        types = _annotation_classes(graph, module, arg.annotation)
        if types:
            params[arg.arg] = types
    return params


def _value_types(
    graph: CallGraph,
    module: str,
    value: ast.AST,
    locals_types: Dict[str, Tuple[str, ...]],
) -> Tuple[str, ...]:
    """Candidate instance types of an assigned expression (shallow)."""
    if isinstance(value, ast.Name):
        return locals_types.get(value.id, ())
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        if dotted is not None:
            kind, resolved = _resolve_dotted(graph, module, dotted)
            if kind == "class" and resolved is not None:
                return (resolved,)
            if kind == "function" and resolved is not None:
                info = graph.functions.get(resolved)
                if info is None:
                    # Not scanned yet; look through module tables.
                    fmodule = resolved.partition(":")[0]
                    syms = graph.symbols.get(fmodule)
                    local = resolved.partition(":")[2]
                    if syms is not None:
                        cls_name, _, meth = local.partition(".")
                        if meth and cls_name in syms.classes:
                            info = syms.classes[cls_name].methods.get(meth)
                        else:
                            info = syms.functions.get(local)
                if info is not None and isinstance(
                    info.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    return _annotation_classes(
                        graph,
                        info.module,
                        info.node.returns,
                    )
    if isinstance(value, ast.IfExp):
        return tuple(
            dict.fromkeys(
                _value_types(graph, module, value.body, locals_types)
                + _value_types(graph, module, value.orelse, locals_types)
            )
        )
    return ()


# ---------------------------------------------------------------------------
# per-function scanning
# ---------------------------------------------------------------------------


class _FunctionScanner:
    """Resolve one function's body: nested defs, types, call sites.

    *enclosing* links a nested function back to its parent scope so
    closures resolve captured names (``self``, typed locals, sibling
    nested defs) through the chain.
    """

    def __init__(
        self,
        graph: CallGraph,
        info: FunctionInfo,
        enclosing: Optional["_FunctionScanner"] = None,
    ) -> None:
        self.graph = graph
        self.info = info
        self.enclosing = enclosing
        self.module = info.module
        self.syms = graph.symbols[info.module]
        self.cls = (
            graph.classes.get(f"{info.module}:{info.cls}")
            if info.cls
            else None
        )
        if self.cls is None and enclosing is not None:
            self.cls = enclosing.cls
        node = info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self.node = node
        self.params: Set[str] = set()
        args = node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.params.add(arg.arg)
        self.param_types = _parameter_types(graph, info.module, node)
        #: local variable -> candidate instance class qnames
        self.var_types: Dict[str, Tuple[str, ...]] = dict(self.param_types)
        #: local variable -> internal callable qnames (x = f; x = partial(f))
        self.var_funcs: Dict[str, Tuple[str, ...]] = {}
        #: locally defined nested functions
        self.local_defs: Dict[str, FunctionInfo] = {}
        self.sites: List[CallSite] = []

    # -- entry --------------------------------------------------------

    def scan(self) -> None:
        graph = self.graph
        graph.functions[self.info.qname] = self.info
        graph.calls[self.info.qname] = self.sites
        # Pass 1: shallow local type/value propagation.
        for stmt in self._own_nodes(self.node, include_lambdas=True):
            self._track_assignment(stmt)
        # Pass 2: nested function definitions become their own nodes.
        # Names are registered before bodies are scanned so mutually
        # recursive nested defs resolve each other.
        module_info = graph.program.modules[self.module]
        nested_defs: List[FunctionInfo] = []
        for stmt in self._own_nodes(self.node, include_lambdas=False):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = _function_info(
                    module_info, stmt, cls=None, parent=self._local_name()
                )
                self.local_defs[stmt.name] = nested
                nested_defs.append(nested)
        for nested in nested_defs:
            _FunctionScanner(graph, nested, enclosing=self).scan()
        # Pass 3: call sites.
        for stmt in self._own_nodes(self.node, include_lambdas=True):
            if isinstance(stmt, ast.Call):
                self._resolve_call(stmt)

    def _local_name(self) -> str:
        return self.info.qname.partition(":")[2]

    @staticmethod
    def _own_nodes(
        root: ast.AST, include_lambdas: bool
    ) -> Iterator[ast.AST]:
        return own_body_nodes(root, include_lambdas=include_lambdas)

    # -- local inference ----------------------------------------------

    def _track_assignment(self, stmt: ast.AST) -> None:
        target: Optional[ast.AST] = None
        value: Optional[ast.AST] = None
        annotation: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value, annotation = stmt.target, stmt.value, stmt.annotation
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if annotation is not None:
            types = _annotation_classes(self.graph, self.module, annotation)
            if types:
                self.var_types[name] = types
        if value is None:
            return
        callables = self._callable_value(value)
        if callables:
            self.var_funcs[name] = callables
            return
        types = self._instance_types(value)
        if types:
            self.var_types[name] = types

    def _callable_value(self, value: ast.AST) -> Tuple[str, ...]:
        """Internal callables an expression evaluates to, if any."""
        resolved = self._resolve_value(value)
        if resolved[0] in ("function", "callable"):
            return resolved[1]
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None and dotted.rsplit(".", 1)[-1] == "partial":
                if value.args:
                    inner = self._resolve_value(value.args[0])
                    if inner[0] in ("function", "callable"):
                        return inner[1]
        return ()

    def _instance_types(self, value: ast.AST) -> Tuple[str, ...]:
        resolved = self._resolve_value(value)
        if resolved[0] == "instance":
            return resolved[1]
        return ()

    # -- value resolution ---------------------------------------------

    def _resolve_value(
        self, expr: ast.AST
    ) -> Tuple[str, Tuple[str, ...]]:
        """Classify an expression for call resolution.

        Returns ``(kind, values)`` with kinds ``function`` /
        ``callable`` (internal callables), ``class``, ``instance``
        (candidate class qnames), ``module``, ``external`` (dotted
        name), ``dynamic``, or ``opaque``.
        """
        graph = self.graph
        if isinstance(expr, ast.Name):
            name = expr.id
            if name == "self" and self.cls is not None:
                return ("instance", (self.cls.qname,))
            if name == "cls" and self.cls is not None:
                return ("class", (self.cls.qname,))
            scope: Optional[_FunctionScanner] = self
            while scope is not None:
                if name in scope.local_defs:
                    return ("function", (scope.local_defs[name].qname,))
                if name in scope.var_funcs:
                    return ("callable", scope.var_funcs[name])
                if name in scope.var_types:
                    return ("instance", scope.var_types[name])
                if name in scope.params:
                    return ("dynamic", ())
                scope = scope.enclosing
            kind, value = graph.resolve_symbol(self.module, name)
            if kind == "function" and value is not None:
                return ("function", (value,))
            if kind == "class" and value is not None:
                return ("class", (value,))
            if kind == "module" and value is not None:
                return ("module", (value,))
            if kind == "external" and value is not None:
                return ("external", (value,))
            # Unresolved bare name: builtin (len, sorted, open, ...).
            return ("external", (name,))
        if isinstance(expr, ast.Attribute):
            return self._resolve_attribute(expr)
        if isinstance(expr, ast.Call):
            func = self._resolve_value(expr.func)
            if func[0] == "class" and func[1]:
                return ("instance", func[1])
            if func[0] == "function" and func[1]:
                returns: List[str] = []
                for qname in func[1]:
                    info = graph.functions.get(qname)
                    if info is not None and isinstance(
                        info.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        for cls_name in _annotation_classes(
                            graph, info.module, info.node.returns
                        ):
                            if cls_name not in returns:
                                returns.append(cls_name)
                if returns:
                    return ("instance", tuple(returns))
                return ("opaque", ())
            if func[0] == "external" and func[1]:
                dotted = func[1][0]
                if dotted == "super" and self.cls is not None:
                    return ("instance", tuple(graph.ancestors(self.cls.qname)) or (self.cls.qname,))
                if dotted.rsplit(".", 1)[-1] == "partial" and expr.args:
                    inner = self._resolve_value(expr.args[0])
                    if inner[0] in ("function", "callable"):
                        return ("callable", inner[1])
            return ("opaque", ())
        if isinstance(expr, ast.Lambda):
            # Lambdas are folded into the enclosing function.
            return ("opaque", ())
        if isinstance(expr, ast.IfExp):
            first = self._resolve_value(expr.body)
            second = self._resolve_value(expr.orelse)
            if first[0] == second[0] and first[0] in (
                "instance",
                "callable",
                "function",
            ):
                merged = tuple(dict.fromkeys(first[1] + second[1]))
                return (first[0], merged)
            return first if first[0] != "opaque" else second
        return ("opaque", ())

    def _resolve_attribute(
        self, expr: ast.Attribute
    ) -> Tuple[str, Tuple[str, ...]]:
        graph = self.graph
        base = self._resolve_value(expr.value)
        attr = expr.attr
        if base[0] == "module" and base[1]:
            kind, value = graph.resolve_symbol(base[1][0], attr)
            if kind == "function" and value is not None:
                return ("function", (value,))
            if kind == "class" and value is not None:
                return ("class", (value,))
            if kind == "module" and value is not None:
                return ("module", (value,))
            if kind == "external" and value is not None:
                return ("external", (value,))
            return ("opaque", ())
        if base[0] == "external" and base[1]:
            return ("external", (f"{base[1][0]}.{attr}",))
        if base[0] == "class" and base[1]:
            methods = graph.resolve_method(base[1], attr)
            if methods:
                return ("function", methods)
            return ("opaque", ())
        if base[0] == "instance" and base[1]:
            methods = graph.resolve_method(base[1], attr)
            if methods:
                return ("callable", methods)
            attr_types: List[str] = []
            for cls_qname in base[1]:
                cls = graph.classes.get(cls_qname)
                if cls is None:
                    continue
                for family in [cls_qname] + graph.ancestors(cls_qname):
                    family_cls = graph.classes.get(family)
                    if family_cls is None:
                        continue
                    for t in family_cls.attr_types.get(attr, ()):
                        if t not in attr_types:
                            attr_types.append(t)
            if attr_types:
                return ("instance", tuple(attr_types))
            return ("opaque", ())
        # Attribute on a dynamic/opaque receiver: the *method name* is
        # still known, so the call can fall back to name-based CHA or
        # the external-method tables instead of conservative TOP —
        # ``param.sum(axis=1)`` on an unannotated array is not the same
        # hazard as calling ``param`` itself.
        return ("opaque", ())

    # -- call classification ------------------------------------------

    def _resolve_call(self, call: ast.Call) -> None:
        resolved = self._resolve_value(call.func)
        site = CallSite(line=call.lineno, col=call.col_offset, node=call)
        if resolved[0] in ("function", "callable") and resolved[1]:
            site.targets = resolved[1]
        elif resolved[0] == "class" and resolved[1]:
            site.targets = self.graph.resolve_method(resolved[1], "__init__")
        elif resolved[0] == "instance" and resolved[1]:
            # Calling an instance dispatches to __call__ overrides.
            targets = self.graph.resolve_method(resolved[1], "__call__")
            if targets:
                site.targets = targets
            else:
                site.dynamic = True
        elif resolved[0] == "external" and resolved[1]:
            site.external = resolved[1][0]
            tail = site.external.rsplit(".", 1)[-1]
            if tail == "partial" and call.args:
                inner = self._resolve_value(call.args[0])
                if inner[0] in ("function", "callable") and inner[1]:
                    site.targets = inner[1]
        elif resolved[0] == "dynamic":
            site.dynamic = True
        else:
            # Attribute call on an opaque receiver: class-hierarchy
            # fallback by method name, else an external method.
            if isinstance(call.func, ast.Attribute):
                attr = call.func.attr
                methods = self.graph.methods_named(attr)
                if methods:
                    site.targets = methods
                else:
                    site.external = f"<receiver>.{attr}"
            else:
                site.dynamic = True
        self.sites.append(site)
        self._argument_edges(call)

    def _argument_edges(self, call: ast.Call) -> None:
        """Potential-call edges for function-valued arguments."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, (ast.Call, ast.Lambda)):
                continue
            resolved = self._resolve_value(arg)
            if resolved[0] in ("function", "callable") and resolved[1]:
                self.sites.append(
                    CallSite(
                        line=arg.lineno,
                        col=arg.col_offset,
                        node=call,
                        targets=resolved[1],
                        via_argument=True,
                    )
                )
