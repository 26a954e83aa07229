"""The lint rules: repo-specific determinism and contract checks.

Each rule encodes one discipline the MVCom reproduction depends on:

* **MV001** all randomness flows through ``repro.sim.rng`` (named streams),
  never through ``np.random.default_rng`` / ``random.*`` / ``np.random.seed``
  directly — stream isolation is what keeps Figs. 8-14 ablations comparable.
* **MV003** a parameter named ``rng`` must be annotated
  ``np.random.Generator`` (and never be a ``*rng``/``**rng`` pack), so a
  stream is what actually flows in.
* **MV004** no mutable default arguments.
* **MV005** no bare ``except:`` and no ``except Exception: pass`` silently
  swallowing errors.
* **MV006** public functions in ``repro.core`` whose signatures touch
  ``Solution``/``EpochInstance`` must carry docstrings referencing the
  paper's units or constraints (``N_min``, ``Ĉ``, eq. numbers, ...), so the
  code-to-paper mapping stays auditable.
* **MV007** replayable packages never construct their own telemetry hub or
  sinks (``Telemetry``/``JsonlSink``/``RingBufferSink``): the hub — and with
  it any clock — must arrive as a parameter, defaulting to the inert
  ``NULL_TELEMETRY``.  Only the harness owns wall clocks and trace files.
* **MV009** no builtin ``hash()`` inside ``repro/{chain,sim}``: ``str``/
  ``bytes`` hashing is salted by ``PYTHONHASHSEED``, so any simulated
  quantity derived from it (addresses, bucket picks, tie-breaks) silently
  changes between interpreter launches even under a fixed seed.  Derive
  identifiers from explicit counters or ``hashlib`` digests instead.
* **MV102** replayable code never reads a wall clock (``time.time``,
  ``datetime.now``, ...) or OS entropy (``os.urandom``, ``uuid.uuid4``,
  ``secrets.*``); each such call is reported at its call site, module
  bodies and default arguments included.  Thread the simulation clock and
  a named stream instead.

Whether a telemetry emission stays off the ``NullTelemetry`` path is not
a lint rule: ``tests/test_obs_telemetry.py`` runs SE solves and chain
epochs through a counting disabled hub and requires zero emissions.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import FileContext, Rule, register_rule

#: Packages whose code must be replayable under a fixed seed.
REPLAY_PACKAGES = (
    "repro/core/",
    "repro/sim/",
    "repro/chain/",
    "repro/baselines/",
    "repro/faultinject/",
)

#: The one module allowed to construct raw generators.
RNG_MODULE = "repro/sim/rng.py"


def _scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s descendants without entering nested function scopes.

    ``ast.walk`` descends into nested ``def``s and lambdas, which makes
    scope-sensitive rules (MV009's shadow tracking) blame the outer
    function for the inner one's code.
    Class bodies ARE entered (they execute in the enclosing scope), but the
    methods inside them are not.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def attribute_chain(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")``; ``None`` unless the base is a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


# ---------------------------------------------------------------------- #
# import tracking shared by MV001 and MV102
# ---------------------------------------------------------------------- #
class _ImportMap:
    """Local names bound to the modules/objects the RNG/clock rules watch."""

    def __init__(self, tree: ast.AST) -> None:
        self.random_modules: Set[str] = set()  # import random [as r]
        self.numpy_modules: Set[str] = set()  # import numpy [as np]
        self.numpy_random_modules: Set[str] = set()  # from numpy import random / import numpy.random as nr
        self.time_modules: Set[str] = set()  # import time [as t]
        self.datetime_modules: Set[str] = set()  # import datetime [as dt]
        self.datetime_classes: Set[str] = set()  # from datetime import datetime [as dt]
        self.date_classes: Set[str] = set()  # from datetime import date
        self.time_functions: Dict[str, str] = {}  # from time import time -> local name
        self.random_imports: List[ast.ImportFrom] = []  # from random import ...
        self.numpy_random_imports: List[Tuple[ast.ImportFrom, str]] = []  # from numpy.random import ...

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(local)
                    elif alias.name == "numpy":
                        self.numpy_modules.add(local)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.numpy_random_modules.add(alias.asname)
                        else:
                            self.numpy_modules.add("numpy")
                    elif alias.name == "time":
                        self.time_modules.add(local)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    self.random_imports.append(node)
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self.numpy_random_imports.append((node, alias.name))
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random_modules.add(alias.asname or "random")
                elif node.module == "time":
                    for alias in node.names:
                        self.time_functions[alias.asname or alias.name] = alias.name
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name == "datetime":
                            self.datetime_classes.add(alias.asname or "datetime")
                        elif alias.name == "date":
                            self.date_classes.add(alias.asname or "date")


def _global_rng_call(node: ast.Call, imports: _ImportMap) -> Optional[str]:
    """Describe a raw global-RNG call, or None if the call is clean."""
    chain = attribute_chain(node.func)
    if chain is None:
        if isinstance(node.func, ast.Name):
            for from_node, name in imports.numpy_random_imports:
                local = next(
                    (a.asname or a.name for a in from_node.names if a.name == name), name
                )
                if node.func.id == local:
                    return f"numpy.random.{name}"
        return None
    root, rest = chain[0], chain[1:]
    if root in imports.random_modules and rest:
        return "random." + ".".join(rest)
    if root in imports.numpy_modules and len(rest) >= 2 and rest[0] == "random":
        return "numpy." + ".".join(rest)
    if root in imports.numpy_random_modules and rest:
        return "numpy.random." + ".".join(rest)
    return None


_WALL_CLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}
_WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: Sink descriptions for the entropy modules MV102 watches.
_ENTROPY_MODULE_ATTRS = {
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
}
_ENTROPY_MODULES = {"secrets"}  # every attribute is entropy


def _wall_clock_call(node: ast.Call, imports: _ImportMap) -> Optional[str]:
    """Describe a wall-clock read (``time.time``, ``datetime.now``, ...)."""
    if isinstance(node.func, ast.Name):
        original = imports.time_functions.get(node.func.id)
        if original in _WALL_CLOCK_TIME_ATTRS:
            return f"time.{original}"
        return None
    chain = attribute_chain(node.func)
    if chain is None:
        return None
    root, rest = chain[0], chain[1:]
    if root in imports.time_modules and len(rest) == 1 and rest[0] in _WALL_CLOCK_TIME_ATTRS:
        return f"time.{rest[0]}"
    if (
        root in imports.datetime_modules
        and len(rest) == 2
        and rest[0] in ("datetime", "date")
        and rest[1] in _WALL_CLOCK_DATETIME_ATTRS
    ):
        return f"datetime.{rest[0]}.{rest[1]}"
    if root in imports.datetime_classes and len(rest) == 1 and rest[0] in _WALL_CLOCK_DATETIME_ATTRS:
        return f"datetime.datetime.{rest[0]}"
    if root in imports.date_classes and len(rest) == 1 and rest[0] == "today":
        return "datetime.date.today"
    return None


def _entropy_imports(tree: ast.AST) -> Dict[str, str]:
    """Local aliases of the entropy modules/functions MV102 watches."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _ENTROPY_MODULE_ATTRS or root in _ENTROPY_MODULES:
                    aliases[alias.asname or root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = (node.module or "").split(".")[0]
            if module in _ENTROPY_MODULE_ATTRS:
                for alias in node.names:
                    if alias.name in _ENTROPY_MODULE_ATTRS[module]:
                        aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
            elif module in _ENTROPY_MODULES:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
    return aliases


def _entropy_call(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Describe an OS-entropy read (``os.urandom``, ``uuid.uuid4``, ``secrets.*``)."""
    func = node.func
    if isinstance(func, ast.Name):
        target = aliases.get(func.id)
        if target is not None and "." in target:
            return target
        return None
    chain = attribute_chain(func)
    if chain is None or len(chain) < 2:
        return None
    root = aliases.get(chain[0])
    if root is None:
        return None
    if root in _ENTROPY_MODULES:
        return f"{root}." + ".".join(chain[1:])
    if root in _ENTROPY_MODULE_ATTRS and chain[1] in _ENTROPY_MODULE_ATTRS[root]:
        return f"{root}." + ".".join(chain[1:])
    return None


# ---------------------------------------------------------------------- #
# MV001
# ---------------------------------------------------------------------- #
@register_rule
class RawRngRule(Rule):
    """MV001: raw RNG construction/draws outside ``repro/sim/rng.py``."""

    rule_id = "MV001"
    description = (
        "randomness must flow through repro.sim.rng (spawn_rng/RandomStreams); "
        "no direct np.random.default_rng / np.random.seed / random.* calls"
    )

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Diagnostic]:
        if context.in_package(RNG_MODULE):
            return
        imports = _ImportMap(tree)
        for from_node in imports.random_imports:
            names = ", ".join(alias.name for alias in from_node.names)
            yield self.diagnostic(
                context,
                from_node,
                f"'from random import {names}' bypasses the named-stream "
                "discipline; use repro.sim.rng.spawn_rng/spawn_fast_rng",
            )
        for from_node, name in imports.numpy_random_imports:
            if name == "Generator":
                continue  # the annotation type, not a draw
            yield self.diagnostic(
                context,
                from_node,
                f"'from numpy.random import {name}' bypasses the named-stream "
                "discipline; use repro.sim.rng.spawn_rng",
            )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            described = _global_rng_call(node, imports)
            if described is None:
                continue
            if described.startswith("numpy.random.") and described.endswith(".Generator"):
                continue  # constructing/annotating the type alias is fine
            yield self.diagnostic(
                context,
                node,
                f"direct call to {described}(); derive a named stream via "
                "repro.sim.rng.spawn_rng/RandomStreams instead",
            )


# ---------------------------------------------------------------------- #
# MV003
# ---------------------------------------------------------------------- #
@register_rule
class RngParameterRule(Rule):
    """MV003: ``rng`` parameters must be typed Generators fed by named streams."""

    rule_id = "MV003"
    description = (
        "a parameter named 'rng' must be annotated np.random.Generator "
        "(never a *rng/**rng pack)"
    )

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for packed in (node.args.vararg, node.args.kwarg):
                # ``*rng`` / ``**rng`` pack tuples/dicts, never a Generator;
                # flag the naming instead of demanding an impossible annotation.
                if packed is not None and packed.arg == "rng":
                    star = "**" if packed is node.args.kwarg else "*"
                    yield self.diagnostic(
                        context,
                        packed,
                        f"parameter '{star}rng' of {node.name}() packs "
                        "arguments and can never be a Generator stream; "
                        "rename it or take 'rng: np.random.Generator'",
                    )
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                if arg.arg != "rng":
                    continue
                annotation = self._annotation_text(arg)
                if annotation is None:
                    yield self.diagnostic(
                        context,
                        arg,
                        f"parameter 'rng' of {node.name}() lacks an annotation; "
                        "annotate it np.random.Generator",
                    )
                elif "Generator" not in annotation:
                    yield self.diagnostic(
                        context,
                        arg,
                        f"parameter 'rng' of {node.name}() is annotated "
                        f"{annotation!r}, not np.random.Generator",
                    )

    @staticmethod
    def _annotation_text(arg: ast.arg) -> Optional[str]:
        if arg.annotation is None:
            return None
        text = ast.unparse(arg.annotation)
        return text.strip("\"'")


# ---------------------------------------------------------------------- #
# MV004
# ---------------------------------------------------------------------- #
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}


@register_rule
class MutableDefaultRule(Rule):
    """MV004: mutable default arguments are shared across calls."""

    rule_id = "MV004"
    description = "no mutable default arguments ([], {}, set(), ...)"

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = node.args.posonlyargs + node.args.args
            for arg, default in zip(positional[len(positional) - len(node.args.defaults):], node.args.defaults):
                if self._mutable(default):
                    yield self._finding(context, node, arg, default)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None and self._mutable(default):
                    yield self._finding(context, node, arg, default)

    def _finding(self, context: FileContext, func: ast.AST, arg: ast.arg, default: ast.expr) -> Diagnostic:
        return self.diagnostic(
            context,
            default,
            f"mutable default {ast.unparse(default)!r} for parameter "
            f"'{arg.arg}' of {func.name}() is shared across calls; default to "
            "None and construct inside",
        )

    @staticmethod
    def _mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in _MUTABLE_CALLS
        return False


# ---------------------------------------------------------------------- #
# MV005
# ---------------------------------------------------------------------- #
@register_rule
class SilentExceptRule(Rule):
    """MV005: bare/broad exception handlers that swallow errors."""

    rule_id = "MV005"
    description = "no bare 'except:' and no 'except Exception: pass' swallowing"

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.diagnostic(
                    context,
                    node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                    "name the exception type",
                )
            elif self._broad(node.type) and self._swallows(node.body):
                yield self.diagnostic(
                    context,
                    node,
                    "'except Exception' with a pass-only body swallows errors "
                    "silently; handle, log or re-raise",
                )

    @staticmethod
    def _broad(annotation: ast.expr) -> bool:
        names = []
        if isinstance(annotation, ast.Tuple):
            names = [e.id for e in annotation.elts if isinstance(e, ast.Name)]
        elif isinstance(annotation, ast.Name):
            names = [annotation.id]
        return any(name in ("Exception", "BaseException") for name in names)

    @staticmethod
    def _swallows(body: List[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
                continue  # docstring or bare Ellipsis
            return False
        return True


# ---------------------------------------------------------------------- #
# MV006
# ---------------------------------------------------------------------- #
_PAPER_TOKENS = re.compile(
    r"(\bN_?min\b|Ĉ|\bC_?hat\b|\bcapacit\w*|\bconstraint\w*|\bconst\.|\bcons\.|"
    r"\butilit\w*|\beq\.|\bTXs?\b|\bfeasib\w*|\bDDL\b|\bcardinalit\w*|:math:)",
    re.IGNORECASE,
)

_CORE_TYPES = ("Solution", "EpochInstance")


@register_rule
class PaperContractDocRule(Rule):
    """MV006: core API touching Solution/EpochInstance must cite the paper contract."""

    rule_id = "MV006"
    description = (
        "public repro.core functions touching Solution/EpochInstance need "
        "docstrings referencing their units or constraint (N_min, Ĉ, eq. ...)"
    )

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Diagnostic]:
        if not context.in_package("repro/core/"):
            return
        for node in self._public_functions(tree):
            if not self._touches_core_types(node):
                continue
            docstring = ast.get_docstring(node)
            if docstring is None:
                yield self.diagnostic(
                    context,
                    node,
                    f"public core function {node.name}() touches "
                    "Solution/EpochInstance but has no docstring",
                )
            elif not _PAPER_TOKENS.search(docstring):
                yield self.diagnostic(
                    context,
                    node,
                    f"docstring of {node.name}() does not reference the paper "
                    "contract (N_min, Ĉ, capacity, utility, eq. ...); the "
                    "paper mapping must stay auditable",
                )

    @staticmethod
    def _public_functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
        def walk(body: Iterable[ast.stmt], class_public: bool = True) -> Iterator[ast.FunctionDef]:
            for statement in body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if class_public and not statement.name.startswith("_"):
                        yield statement
                elif isinstance(statement, ast.ClassDef):
                    yield from walk(statement.body, class_public=not statement.name.startswith("_"))

        if isinstance(tree, ast.Module):
            yield from walk(tree.body)

    @staticmethod
    def _touches_core_types(node: ast.FunctionDef) -> bool:
        annotations = [
            arg.annotation
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if arg.annotation is not None
        ]
        if node.returns is not None:
            annotations.append(node.returns)
        for annotation in annotations:
            text = ast.unparse(annotation)
            if any(core_type in text for core_type in _CORE_TYPES):
                return True
        return False


# ---------------------------------------------------------------------- #
# MV007
# ---------------------------------------------------------------------- #
#: Live observability objects a replayable package must receive, not build.
#: ``NullTelemetry`` is deliberately absent: constructing the inert default
#: is always safe.
_LIVE_OBS_NAMES = ("Telemetry", "JsonlSink", "RingBufferSink")


@register_rule
class InjectedTelemetryRule(Rule):
    """MV007: replayable packages receive their telemetry hub, never build one."""

    rule_id = "MV007"
    description = (
        "no Telemetry/JsonlSink/RingBufferSink construction inside "
        "repro/{core,sim,chain,baselines}; accept a telemetry parameter "
        "(default NULL_TELEMETRY) so clocks and sinks stay injected"
    )

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Diagnostic]:
        if not context.in_package(*REPLAY_PACKAGES):
            return
        local_names: Dict[str, str] = {}  # local name -> qualified obs name
        obs_modules: Set[str] = set()  # local aliases of repro.obs[.x] modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module and node.module.startswith("repro.obs"):
                    for alias in node.names:
                        if alias.name in _LIVE_OBS_NAMES:
                            local_names[alias.asname or alias.name] = (
                                f"{node.module}.{alias.name}"
                            )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.obs" or alias.name.startswith("repro.obs."):
                        obs_modules.add(alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            described = self._live_construction(node, local_names, obs_modules)
            if described is not None:
                yield self.diagnostic(
                    context,
                    node,
                    f"replayable code constructs {described}(); take a "
                    "'telemetry' parameter (default NULL_TELEMETRY) instead — "
                    "only the harness may own hubs, clocks and sinks",
                )

    @staticmethod
    def _live_construction(
        node: ast.Call, local_names: Dict[str, str], obs_modules: Set[str]
    ) -> Optional[str]:
        if isinstance(node.func, ast.Name):
            return local_names.get(node.func.id)
        chain = attribute_chain(node.func)
        if chain is None:
            return None
        if chain[0] in obs_modules and chain[-1] in _LIVE_OBS_NAMES:
            return ".".join(chain)
        return None


# ---------------------------------------------------------------------- #
# MV009
# ---------------------------------------------------------------------- #
#: Packages whose simulated quantities must survive interpreter restarts.
_HASHSEED_PACKAGES = ("repro/chain/", "repro/sim/")


@register_rule
class BuiltinHashRule(Rule):
    """MV009: builtin ``hash()`` output depends on PYTHONHASHSEED."""

    rule_id = "MV009"
    description = (
        "no builtin hash() inside repro/{chain,sim}: str/bytes hashing is "
        "salted per interpreter launch, breaking cross-run determinism; use "
        "explicit counters or hashlib digests"
    )

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Diagnostic]:
        if not context.in_package(*_HASHSEED_PACKAGES):
            return
        # Scope-aware shadowing: a function-local ``hash = ...`` used to be
        # collected by a whole-tree walk and silenced the rule module-wide;
        # shadows now apply only inside the scope that binds them.
        yield from self._check_scope(tree, context, self._scope_bindings(tree))

    def _check_scope(
        self, scope: ast.AST, context: FileContext, shadowed: Set[str]
    ) -> Iterator[Diagnostic]:
        for node in _scope_walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = shadowed | self._scope_bindings(node)
                inner |= {
                    arg.arg
                    for arg in (
                        node.args.posonlyargs
                        + node.args.args
                        + node.args.kwonlyargs
                        + [a for a in (node.args.vararg, node.args.kwarg) if a]
                    )
                }
                yield from self._check_scope(node, context, inner)
                continue
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "hash" and "hash" not in shadowed:
                yield self.diagnostic(
                    context,
                    node,
                    "builtin hash() is salted by PYTHONHASHSEED and changes "
                    "between interpreter launches; derive the value from an "
                    "explicit counter or a hashlib digest",
                )

    @staticmethod
    def _scope_bindings(scope: ast.AST) -> Set[str]:
        """Names bound directly in ``scope`` (defs, imports, assignments)."""
        names: Set[str] = set()
        for node in _scope_walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    names.add(alias.asname or alias.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names


# ---------------------------------------------------------------------- #
# MV102
# ---------------------------------------------------------------------- #
@register_rule
class WallClockRule(Rule):
    """MV102: replayable code reading a wall clock or OS entropy."""

    rule_id = "MV102"
    description = (
        "repro/{core,sim,chain,baselines,faultinject} code must not call "
        "time.time/datetime.now/os.urandom/secrets/uuid4; thread the virtual "
        "clock and named streams instead"
    )

    def check(self, tree: ast.AST, context: FileContext) -> Iterator[Diagnostic]:
        if not context.in_package(*REPLAY_PACKAGES):
            return
        imports = _ImportMap(tree)
        entropy = _entropy_imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            clock = _wall_clock_call(node, imports)
            described = clock or _entropy_call(node, entropy)
            if described is None:
                continue
            remedy = (
                "thread the simulation clock (or an injectable clock)"
                if clock
                else "draw from a named repro.sim.rng stream"
            )
            yield self.diagnostic(
                context,
                node,
                f"{'wall-clock' if clock else 'entropy'} call {described}() "
                f"breaks replayability; {remedy} instead",
            )
