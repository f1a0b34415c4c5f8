"""The effect lattice and per-function leaf-effect extraction.

Effects are plain strings; a function's summary is a ``frozenset`` of
them, so the lattice join is set union — finite and monotone, which is
what lets :mod:`repro.analysis.inference` run a fixed point.

* ``SEEDED_RNG`` — randomness drawn from explicit, seeded state
  (``random.Random(seed)``, ``numpy.random.default_rng(seed)``,
  ``Generator`` / ``SeedSequence`` / ``PCG64``).  Deterministic by
  construction; recorded so the boundary is visible.
* ``UNSEEDED_RNG`` — global/OS entropy: the stdlib ``random`` module
  functions and numpy's legacy ``numpy.random.*`` globals — including
  *seeding* them (``random.seed``, ``numpy.random.seed``), because
  global state is shared across the protocols of a trial and differs
  between the serial walk and forked workers — argless
  ``default_rng()`` / ``Random()``, ``secrets``, ``uuid.uuid4``,
  ``os.urandom``.  RPL001 flags these per file.
* ``WALL_CLOCK`` — host-clock reads.  RPL002 flags the same table per
  file.
* ``DICT_ORDER`` — observable iteration order of a ``set`` (string
  hashing is randomized per process) or an unsorted directory listing.
* ``FS_WRITE`` — raw filesystem mutation: ``open`` with a writing (or
  statically unknown) mode, ``json.dump``/``pickle.dump``,
  ``os.rename``/``os.replace``, ``shutil`` transfers.  The durability
  checker requires these to live in :mod:`repro.durable`.
* ``FS_WRITE_ATOMIC`` — single-syscall metadata mutations
  (``os.remove``/``unlink``/``link``/``mkdir``/``makedirs``) and
  everything defined inside :mod:`repro.durable` itself, whose whole
  purpose is to package raw writes behind an atomic protocol.
* ``FORK`` — process creation.
* ``ENV_READ`` — host-environment reads (``os.environ``, ``platform``,
  hostname).
* ``DYNAMIC`` — conservative TOP marker: the function makes a call the
  graph could not resolve (call through a parameter, computed callee),
  so *any* effect may hide behind it.  The determinism checker treats
  it as an error at surfaces; the durability checker ignores it (raw
  write primitives are syntactically visible, so ``FS_WRITE`` never
  hides exclusively behind a dynamic call).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionInfo, own_body_nodes
from .program import dotted_name

__all__ = [
    "ALL_EFFECTS",
    "DICT_ORDER",
    "DYNAMIC",
    "ENV_READ",
    "FORK",
    "FS_WRITE",
    "FS_WRITE_ATOMIC",
    "Leaf",
    "PURE",
    "SEEDED_RNG",
    "UNSEEDED_RNG",
    "WALL_CLOCK",
    "function_leaf_effects",
]

SEEDED_RNG = "SEEDED_RNG"
UNSEEDED_RNG = "UNSEEDED_RNG"
WALL_CLOCK = "WALL_CLOCK"
DICT_ORDER = "DICT_ORDER"
FS_WRITE = "FS_WRITE"
FS_WRITE_ATOMIC = "FS_WRITE_ATOMIC"
FORK = "FORK"
ENV_READ = "ENV_READ"
DYNAMIC = "DYNAMIC"

#: The bottom of the lattice: no effects.
PURE: FrozenSet[str] = frozenset()

ALL_EFFECTS: FrozenSet[str] = frozenset(
    {
        SEEDED_RNG,
        UNSEEDED_RNG,
        WALL_CLOCK,
        DICT_ORDER,
        FS_WRITE,
        FS_WRITE_ATOMIC,
        FORK,
        ENV_READ,
        DYNAMIC,
    }
)


@dataclass(frozen=True)
class Leaf:
    """One leaf operation introducing an effect into a function."""

    effect: str
    line: int
    note: str


# ---------------------------------------------------------------------------
# external-callee tables
# ---------------------------------------------------------------------------

#: Host-clock reads.  ``time.sleep`` is absent on purpose: the retry
#: backoff waits, it never *reads* time.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Module-level global-RNG / OS-entropy callees.  ``default_rng``,
#: ``SeedSequence``, ``Generator`` and the bit generators are numpy's
#: sanctioned, explicit-state API.
_UNSEEDED_CALLS = frozenset(
    {
        "random.seed",
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "random.normalvariate",
        "random.expovariate",
        "random.betavariate",
        "random.getrandbits",
        "random.SystemRandom",
        "numpy.random.seed",
        "numpy.random.get_state",
        "numpy.random.set_state",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.ranf",
        "numpy.random.sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.standard_normal",
        "numpy.random.binomial",
        "numpy.random.exponential",
        "numpy.random.poisson",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
    }
)

#: Explicit RNG state — deterministic by construction, tracked so the
#: seeded/unseeded boundary shows up in summaries.
_SEEDED_CALLS = frozenset(
    {
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.SeedSequence",
    }
)

#: Raw filesystem mutations (exact dotted names).
_FS_WRITE_CALLS = frozenset(
    {
        "json.dump",
        "pickle.dump",
        "marshal.dump",
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
        "numpy.savetxt",
        "os.rename",
        "os.replace",
        "os.truncate",
        "os.ftruncate",
        "os.write",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
        "tempfile.mkstemp",
        "tempfile.NamedTemporaryFile",
    }
)

#: Single-syscall atomic metadata mutations.  ``os.link`` is here on
#: purpose: the lease lockfile protocol *depends* on link's atomicity,
#: and classifying it raw would force a suppression onto the one
#: pattern that is correct by design.
_FS_ATOMIC_CALLS = frozenset(
    {
        "os.remove",
        "os.unlink",
        "os.link",
        "os.symlink",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.removedirs",
        "os.utime",
        "os.chmod",
        # Scratch-dir creation is an atomic mkdir; the content written
        # into it is visible to analysis at its own write sites.
        "tempfile.mkdtemp",
        "tempfile.TemporaryDirectory",
    }
)

#: Receiver-method tails (``path.write_text(...)`` on an untyped
#: receiver) that are filesystem mutations.
_FS_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
_FS_ATOMIC_METHODS = frozenset(
    {"mkdir", "rmdir", "touch", "unlink", "hardlink_to", "symlink_to"}
)
#: ``Path.rename``/``Path.replace`` are raw like their os counterparts,
#: but only when the receiver is opaque — internal methods named
#: ``rename`` resolve through the call graph first.
_FS_WRITE_RENAME_METHODS = frozenset({"rename", "replace"})

_FORK_CALLS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.Process",
        "multiprocessing.get_context",
        "os.fork",
        "os.forkpty",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

_ENV_CALLS = frozenset(
    {
        "os.getenv",
        "os.environ.get",
        "os.environ.items",
        "os.environ.keys",
        "os.environ.copy",
        "os.getcwd",
        "os.uname",
        "os.cpu_count",
        "platform.platform",
        "platform.node",
        "platform.system",
        "platform.release",
        "platform.machine",
        "platform.python_version",
        "platform.python_implementation",
        "socket.gethostname",
        "getpass.getuser",
    }
)

#: Directory listings with filesystem-dependent order.  Flagged only
#: when not directly wrapped in ``sorted(...)`` — see the syntactic
#: pass below, which owns these so it can check the wrapper.
_LISTING_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Mode strings passed to ``open`` that mutate the filesystem.
_WRITE_MODE_CHARS = frozenset("wax+")

#: Callables whose call consumes an iterable in order (iterating a set
#: through one of these leaks hash order).
_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "iter", "enumerate"})


def _open_effect(call: ast.Call) -> Optional[str]:
    """Effect of an ``open``-family call, from its mode argument."""
    mode_node: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    else:
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode_node = keyword.value
                break
    if mode_node is None:
        return None  # default "r"
    if isinstance(mode_node, ast.Constant) and isinstance(
        mode_node.value, str
    ):
        if any(ch in _WRITE_MODE_CHARS for ch in mode_node.value):
            return FS_WRITE
        return None
    # Statically unknown mode: assume the worst.
    return FS_WRITE


def _os_open_effect(call: ast.Call) -> Optional[str]:
    """``os.open`` writes when its flags name a writing O_ constant."""
    writing = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}
    for node in ast.walk(call):
        if isinstance(node, ast.Attribute) and node.attr in writing:
            return FS_WRITE
        if isinstance(node, ast.Name) and node.id in writing:
            return FS_WRITE
    return None


def classify_external_call(
    dotted: str, call: ast.Call
) -> Optional[Tuple[str, str]]:
    """Effect of a call to an external (non-program) callee.

    Returns ``(effect, note)`` or None for effect-free callees.  The
    closed-world assumption — unknown external calls are pure — is
    deliberate: the tables cover the stdlib/numpy surface the repo
    uses, and anything beyond that is visible in review as a new
    import.
    """
    tail = dotted.rsplit(".", 1)[-1]
    if dotted in _CLOCK_CALLS:
        return (WALL_CLOCK, f"'{dotted}' reads the host clock")
    if dotted in _UNSEEDED_CALLS:
        return (
            UNSEEDED_RNG, f"'{dotted}' uses global or OS-entropy RNG state"
        )
    if dotted in _SEEDED_CALLS:
        return (SEEDED_RNG, f"'{dotted}' builds explicit RNG state")
    if tail == "default_rng" or dotted == "numpy.random.default_rng":
        if call.args or call.keywords:
            return (SEEDED_RNG, f"'{dotted}(seed)' constructs a seeded generator")
        return (UNSEEDED_RNG, f"argless '{dotted}()' seeds from OS entropy")
    if dotted in ("random.Random",) or dotted.endswith(".Random"):
        if call.args or call.keywords:
            return (SEEDED_RNG, f"'{dotted}(seed)' constructs a seeded RNG")
        return (UNSEEDED_RNG, f"argless '{dotted}()' seeds from OS entropy")
    if dotted in ("open", "io.open", "gzip.open", "bz2.open", "lzma.open"):
        effect = _open_effect(call)
        if effect is not None:
            return (effect, f"'{dotted}' opened with a writing mode")
        return None
    if dotted == "os.open":
        effect = _os_open_effect(call)
        if effect is not None:
            return (effect, "'os.open' with writing flags")
        return None
    if dotted in _FS_WRITE_CALLS:
        return (FS_WRITE, f"'{dotted}' mutates the filesystem")
    if dotted in _FS_ATOMIC_CALLS:
        return (
            FS_WRITE_ATOMIC,
            f"'{dotted}' is a single-syscall atomic metadata mutation",
        )
    if dotted in _FORK_CALLS:
        return (FORK, f"'{dotted}' spawns a process")
    if dotted in _ENV_CALLS or dotted.startswith("os.environ."):
        return (ENV_READ, f"'{dotted}' reads the host environment")
    if dotted.startswith("<receiver>."):
        if tail in _FS_WRITE_METHODS or tail in _FS_WRITE_RENAME_METHODS:
            return (FS_WRITE, f"'.{tail}(...)' mutates the filesystem")
        if tail in _FS_ATOMIC_METHODS:
            return (
                FS_WRITE_ATOMIC,
                f"'.{tail}(...)' is an atomic metadata mutation",
            )
    return None


# ---------------------------------------------------------------------------
# per-function extraction
# ---------------------------------------------------------------------------


def function_leaf_effects(
    graph: CallGraph, info: FunctionInfo
) -> List[Leaf]:
    """Leaf effects introduced directly inside *info*'s body.

    Combines the resolved call sites (external-table classification,
    dynamic-call TOP) with a syntactic pass for the effects that are
    not calls: ``os.environ`` reads and set-order-dependent iteration.
    Everything defined in ``<package>.durable`` has raw ``FS_WRITE``
    relabeled ``FS_WRITE_ATOMIC`` — that module *is* the blessed
    channel the durability checker steers writes into.
    """
    leaves: List[Leaf] = []
    for site in graph.calls.get(info.qname, ()):
        if site.dynamic:
            leaves.append(
                Leaf(
                    DYNAMIC,
                    site.line,
                    "dynamic call — callee not statically resolvable",
                )
            )
        elif site.external is not None:
            dotted = site.external
            tail = dotted.rsplit(".", 1)[-1]
            if dotted in _LISTING_CALLS or (
                dotted.startswith("<receiver>.") and tail in _LISTING_METHODS
            ):
                continue  # handled by the syntactic pass (sorted() check)
            classified = classify_external_call(dotted, site.node)
            if classified is not None:
                leaves.append(Leaf(classified[0], site.line, classified[1]))
    leaves.extend(_syntactic_leaves(graph, info))
    durable_module = graph.program.package + ".durable"
    if info.module == durable_module:
        leaves = [
            Leaf(FS_WRITE_ATOMIC, leaf.line, leaf.note + " (inside the durable channel)")
            if leaf.effect == FS_WRITE
            else leaf
            for leaf in leaves
        ]
    deduped: Dict[Tuple[str, int], Leaf] = {}
    for leaf in leaves:
        deduped.setdefault((leaf.effect, leaf.line), leaf)
    return [deduped[key] for key in sorted(deduped)]


def _syntactic_leaves(graph: CallGraph, info: FunctionInfo) -> List[Leaf]:
    node = info.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    leaves: List[Leaf] = []
    parents: Dict[int, ast.AST] = {}
    body_nodes = list(own_body_nodes(node))
    for parent in body_nodes:
        for child in ast.iter_child_nodes(parent):
            parents.setdefault(id(child), parent)
    set_vars = _set_typed_locals(node, body_nodes)

    def is_set_expr(expr: ast.AST) -> bool:
        return _is_set_expr(expr, set_vars)

    for item in body_nodes:
        # os.environ reads that are not call-shaped (subscript, `in`).
        if isinstance(item, ast.Attribute):
            dotted = dotted_name(item)
            if dotted == "os.environ" and not _is_environ_call(
                item, parents
            ):
                leaves.append(
                    Leaf(
                        ENV_READ,
                        item.lineno,
                        "'os.environ' reads the host environment",
                    )
                )
        if isinstance(item, ast.For) and is_set_expr(item.iter):
            leaves.append(
                Leaf(
                    DICT_ORDER,
                    item.iter.lineno,
                    "iteration over a set — order depends on hash "
                    "randomization",
                )
            )
        if isinstance(item, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in item.generators:
                if is_set_expr(gen.iter):
                    leaves.append(
                        Leaf(
                            DICT_ORDER,
                            gen.iter.lineno,
                            "comprehension over a set — order depends "
                            "on hash randomization",
                        )
                    )
        if isinstance(item, ast.Call):
            callee = _call_tail(item)
            if (
                callee in _ORDER_SENSITIVE_WRAPPERS
                and item.args
                and is_set_expr(item.args[0])
            ):
                leaves.append(
                    Leaf(
                        DICT_ORDER,
                        item.lineno,
                        f"'{callee}(...)' materializes a set in hash order",
                    )
                )
            if callee == "join" and item.args and is_set_expr(item.args[0]):
                leaves.append(
                    Leaf(
                        DICT_ORDER,
                        item.lineno,
                        "'.join(...)' over a set concatenates in hash order",
                    )
                )
            if _is_unsorted_listing(item, parents):
                leaves.append(
                    Leaf(
                        DICT_ORDER,
                        item.lineno,
                        "unsorted directory listing — order is "
                        "filesystem-dependent",
                    )
                )
    return leaves


def _is_environ_call(node: ast.Attribute, parents: Dict[int, ast.AST]) -> bool:
    """True when this ``os.environ`` is the base of a method call.

    ``os.environ.get(...)`` is classified through the external-call
    table; counting the attribute read too would double-report.
    """
    parent = parents.get(id(node))
    if isinstance(parent, ast.Attribute):
        grand = parents.get(id(parent))
        return isinstance(grand, ast.Call) and grand.func is parent
    return False


def _call_tail(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_unsorted_listing(
    call: ast.Call, parents: Dict[int, ast.AST]
) -> bool:
    dotted = None
    if isinstance(call.func, ast.Attribute):
        dotted = dotted_name(call.func)
        tail = call.func.attr
    elif isinstance(call.func, ast.Name):
        dotted = call.func.id
        tail = call.func.id
    else:
        return False
    is_listing = (
        dotted in _LISTING_CALLS if dotted else False
    ) or tail in _LISTING_METHODS
    if not is_listing:
        return False
    parent = parents.get(id(call))
    if (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "sorted"
        and parent.args
        and parent.args[0] is call
    ):
        return False
    return True


def _set_typed_locals(
    func: ast.AST, body_nodes: List[ast.AST]
) -> Set[str]:
    """Names of locals that (may) hold a set, by forward propagation."""
    set_vars: Set[str] = set()
    # Two passes so ``a = b & c`` after ``b = set()`` resolves even when
    # ast.walk order is surprising; the set only grows, so this is a
    # tiny fixed point.
    for _ in range(2):
        for item in body_nodes:
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(item, ast.Assign) and len(item.targets) == 1:
                target, value = item.targets[0], item.value
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                target, value = item.target, item.value
            elif isinstance(item, ast.AugAssign):
                target, value = item.target, item.value
                if isinstance(target, ast.Name) and target.id in set_vars:
                    continue  # |= on a set stays a set
            if (
                target is not None
                and isinstance(target, ast.Name)
                and value is not None
                and _is_set_expr(value, set_vars)
            ):
                set_vars.add(target.id)
    return set_vars


def _is_set_expr(expr: ast.AST, set_vars: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in set_vars
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name) and expr.func.id in (
            "set",
            "frozenset",
        ):
            return True
        if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(expr.func.value, set_vars)
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(expr.left, set_vars) or _is_set_expr(
            expr.right, set_vars
        )
    return False
