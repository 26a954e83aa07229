"""Named-stream key extraction and pattern unification for rule MV101.

The SE convergence guarantees (Theorem 2) assume every replica/thread
consumes an *independent* named random stream.  All stream names in this
repo funnel through four primitives::

    streams.get(name)                  # repro.sim.rng.RandomStreams
    streams.fork(name)                 # child registry (separate key space)
    spawn_rng(seed, name)  /  spawn_fast_rng(seed, name)
    derive_seed(seed, name)

This module statically extracts every such *key site*, turns the key
expression into a :class:`KeyPattern` (literal text with wildcard holes for
interpolated values, e.g. ``f"replica-{replica_id}-leave"`` ->
``replica-<*>-leave``), propagates keys that arrive via function parameters
back to the caller's argument expression through the project call graph,
and decides whether two patterns *can unify* — i.e. whether two call paths
could consume the same stream.

Two documented approximations keep the analysis precise enough to gate CI:

* **Holes are dash-free.**  Stream names use ``-`` as the field separator
  (``replica-3-init``); an interpolated hole is assumed never to contain a
  ``-``.  Without this, ``replica-<*>-n<*>`` and ``replica-<*>-dyn-n<*>``
  would spuriously unify by smuggling ``-dyn`` into the first hole.
* **Registry hints.**  Keys only collide when drawn against the same root
  seed.  Each site carries a *registry hint* — the receiver expression for
  ``.get``/``.fork`` (``streams``, ``self.streams``) or the seed argument
  with a trailing ``.seed`` stripped for the spawn/derive forms — and only
  sites with the same hint are compared.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.graph import (
    MODULE_BODY,
    CallSite,
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    attribute_chain,
)

#: The module whose internals are exempt (it *implements* the primitives).
RNG_MODULE_SUFFIX = "repro/sim/rng.py"

#: spawn-style primitives: ``f(seed, name)``.
SPAWN_CALLEES = ("spawn_rng", "spawn_fast_rng", "derive_seed")

#: Registry method names: ``streams.get(name)`` / ``streams.fork(name)``.
REGISTRY_METHODS = ("get", "fork")

#: Receiver name suffixes accepted as a stream registry for ``.get``/``.fork``
#: (the repo convention: registries are called ``streams``/``*_streams``).
REGISTRY_NAME_HINTS = ("streams", "stream")

#: Maximum caller-argument propagation depth for parametric keys.
MAX_PROPAGATION_DEPTH = 8


class Hole:
    """A wildcard segment of a key pattern (one interpolated expression)."""

    __slots__ = ("expr",)

    def __init__(self, expr: str) -> None:
        self.expr = expr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Hole({self.expr!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hole)  # holes unify regardless of expression

    def __hash__(self) -> int:
        return 0


Token = Union[str, Hole]


@dataclass(frozen=True)
class KeyPattern:
    """A stream key as literal text with wildcard holes."""

    tokens: Tuple[Token, ...]

    @property
    def is_literal(self) -> bool:
        return all(isinstance(t, str) for t in self.tokens)

    @property
    def is_opaque(self) -> bool:
        """True when there is no literal text at all (pure wildcard)."""
        return not any(isinstance(t, str) and t for t in self.tokens)

    def hole_exprs(self) -> Tuple[str, ...]:
        return tuple(t.expr for t in self.tokens if isinstance(t, Hole))

    def display(self) -> str:
        parts = []
        for token in self.tokens:
            if isinstance(token, Hole):
                parts.append("{" + token.expr + "}")
            else:
                parts.append(token)
        return "".join(parts)


def pattern_from_expr(node: ast.expr) -> KeyPattern:
    """Best-effort :class:`KeyPattern` for a key expression."""
    tokens: List[Token] = []

    def emit(sub: ast.expr) -> None:
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            tokens.append(sub.value)
        elif isinstance(sub, ast.JoinedStr):
            for value in sub.values:
                emit(value)
        elif isinstance(sub, ast.FormattedValue):
            tokens.append(Hole(_expr_text(sub.value)))
        elif isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add):
            emit(sub.left)
            emit(sub.right)
        else:
            tokens.append(Hole(_expr_text(sub)))

    emit(node)
    return KeyPattern(tokens=_merge_literals(tokens))


def _merge_literals(tokens: Sequence[Token]) -> Tuple[Token, ...]:
    merged: List[Token] = []
    for token in tokens:
        if isinstance(token, str) and merged and isinstance(merged[-1], str):
            merged[-1] = merged[-1] + token
        else:
            merged.append(token)
    return tuple(merged)


def _expr_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover
        return "<expr>"


# ---------------------------------------------------------------------- #
# pattern unification
# ---------------------------------------------------------------------- #
#: Character a hole can never produce (the stream-name field separator).
HOLE_EXCLUDED = "-"


def _units(pattern: KeyPattern) -> Tuple[Optional[str], ...]:
    """Flatten to single characters; ``None`` marks a wildcard hole."""
    units: List[Optional[str]] = []
    for token in pattern.tokens:
        if isinstance(token, Hole):
            units.append(None)
        else:
            units.extend(token)
    return tuple(units)


def patterns_can_unify(first: KeyPattern, second: KeyPattern) -> bool:
    """Can the two patterns produce the same concrete stream name?

    Holes match any (possibly empty) string not containing ``-`` (see the
    module docstring).  Implemented as a reachability DP over the two
    pattern positions.
    """
    a, b = _units(first), _units(second)
    seen: Set[Tuple[int, int]] = set()
    stack: List[Tuple[int, int]] = [(0, 0)]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        if i == len(a) and j == len(b):
            return True
        moves: List[Tuple[int, int]] = []
        ca = a[i] if i < len(a) else False  # False = exhausted
        cb = b[j] if j < len(b) else False
        if ca is None:  # hole on the left
            moves.append((i + 1, j))  # hole emits nothing more
            if cb is None:
                moves.append((i, j + 1))
            elif cb is not False and cb != HOLE_EXCLUDED:
                moves.append((i, j + 1))  # left hole emits cb
        if cb is None:  # hole on the right
            moves.append((i, j + 1))
            if ca is not None and ca is not False and ca != HOLE_EXCLUDED:
                moves.append((i + 1, j))  # right hole emits ca
        if ca is not None and cb is not None and ca is not False and cb is not False:
            if ca == cb:
                moves.append((i + 1, j + 1))
        for move in moves:
            if move not in seen:
                stack.append(move)
    return False


# ---------------------------------------------------------------------- #
# key-site collection
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class KeySite:
    """One statically-extracted named-stream key site."""

    path: str
    line: int
    col: int
    function: str  # qualified name of the enclosing function
    family: str  # "get" | "fork" | "spawn_rng" | "spawn_fast_rng" | "derive_seed"
    registry: str  # normalized registry hint (see module docstring)
    pattern: KeyPattern
    in_loop: bool
    loop_vars: Tuple[str, ...] = ()
    registry_is_param: bool = False  # registry/seed arrives as a parameter
    registry_loop_local: bool = False  # registry name is (re)bound inside the loop
    registry_local_ctor: bool = False  # registry constructed inside the function

    @property
    def key_space(self) -> str:
        """``fork`` keys live in their own namespace; the rest share one."""
        return "fork" if self.family == "fork" else "stream"


def collect_key_sites(graph: ProjectGraph) -> List[KeySite]:
    """Every stream key site in the project, parametric keys propagated."""
    sites: List[KeySite] = []
    for function in graph.iter_functions():
        module = graph.modules[function.module]
        if module.normalized.endswith(RNG_MODULE_SUFFIX):
            continue  # the primitives' own implementation
        loop_locals_cache: Dict[int, Set[str]] = {}
        for site in function.calls:
            extracted = _extract_site(graph, module, function, site, loop_locals_cache)
            if extracted is not None:
                sites.extend(extracted)
    sites.sort(key=lambda s: (s.path, s.line, s.col, s.family, s.pattern.display()))
    return sites


def _extract_site(
    graph: ProjectGraph,
    module: ModuleInfo,
    function: FunctionInfo,
    site: CallSite,
    loop_locals_cache: Dict[int, Set[str]],
) -> Optional[List[KeySite]]:
    call = site.node
    func = call.func
    family: Optional[str] = None
    key_expr: Optional[ast.expr] = None
    registry_expr: Optional[ast.expr] = None

    if isinstance(func, ast.Attribute) and func.attr in REGISTRY_METHODS:
        chain = attribute_chain(func)
        receiver = chain[:-1] if chain else None
        if receiver and _is_registry_name(receiver[-1]):
            family = func.attr
            key_expr = _argument(call, 0, "name")
            registry_expr = func.value
    elif isinstance(func, ast.Name) and func.id in SPAWN_CALLEES:
        family = func.id
        key_expr = _argument(call, 1, "name")
        registry_expr = _argument(call, 0, "root_seed") or _argument(call, 0, "seed")
    else:
        # spawn primitives reached through a module alias, e.g. rng.spawn_rng
        chain = attribute_chain(func)
        if chain and chain[-1] in SPAWN_CALLEES:
            family = chain[-1]
            key_expr = _argument(call, 1, "name")
            registry_expr = _argument(call, 0, "root_seed") or _argument(call, 0, "seed")

    if family is None or key_expr is None:
        return None

    registry = _registry_hint(registry_expr)
    registry_root = _root_name(registry_expr)
    # ``self``/``cls`` are formally parameters but a ``self.streams`` registry
    # belongs to the instance — callers looping over fresh instances get fresh
    # key spaces, so the interprocedural loop-shared check must not treat the
    # receiver as caller-supplied.
    registry_is_param = (
        registry_root is not None
        and registry_root in function.params
        and registry_root not in ("self", "cls")
    )
    registry_loop_local = False
    effective_loop_vars = site.loop_vars
    if site.in_loop:
        loop_locals = _loop_local_names(function, site, loop_locals_cache)
        # Names (re)bound inside the loop body vary per iteration just like
        # the loop targets (``replica_id = replica.replica_id``).
        effective_loop_vars = tuple(
            sorted(set(site.loop_vars) | loop_locals)
        )
        if registry_root is not None:
            registry_loop_local = registry_root in effective_loop_vars

    base = KeySite(
        path=function.path,
        line=site.line,
        col=site.col,
        function=function.qualname,
        family=family,
        registry=registry,
        pattern=pattern_from_expr(key_expr),
        in_loop=site.in_loop,
        loop_vars=effective_loop_vars,
        registry_is_param=registry_is_param,
        registry_loop_local=registry_loop_local,
        registry_local_ctor=_is_local_ctor(function, registry_root),
    )
    return _propagate(graph, function, base, key_expr, depth=0)


def _propagate(
    graph: ProjectGraph,
    function: FunctionInfo,
    base: KeySite,
    key_expr: ast.expr,
    depth: int,
) -> List[KeySite]:
    """Rewrite a parameter-valued key into the callers' argument patterns.

    ``spawn_fast_rng(root_seed, name)`` inside a wrapper like
    ``_ThreadRng.__init__`` says nothing about the key; the callers'
    ``f"replica-{replica_id}-n{cardinality}"`` arguments do.  When the key
    expression is exactly a parameter name, each resolved caller contributes
    one derived site anchored at the caller's call expression.
    """
    if depth >= MAX_PROPAGATION_DEPTH:
        return [base]
    if not isinstance(key_expr, ast.Name) or key_expr.id not in function.params:
        return [base]
    param = key_expr.id
    index = function.params.index(param)
    if function.params and function.params[0] in ("self", "cls"):
        index -= 1  # callers do not pass self
    derived: List[KeySite] = []
    for caller_name, caller_site in graph.callers_of(function.qualname):
        caller = graph.functions[caller_name]
        arg = _argument(caller_site.node, index, param)
        if arg is None:
            continue
        candidate = replace(
            base,
            path=caller.path,
            line=caller_site.line,
            col=caller_site.col,
            function=caller.qualname,
            pattern=pattern_from_expr(arg),
            in_loop=caller_site.in_loop,
            loop_vars=caller_site.loop_vars,
        )
        derived.extend(_propagate(graph, caller, candidate, arg, depth + 1))
    return derived if derived else [base]


def _argument(call: ast.Call, index: int, keyword: str) -> Optional[ast.expr]:
    if 0 <= index < len(call.args):
        arg = call.args[index]
        if isinstance(arg, ast.Starred):
            return None
        return arg
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _is_registry_name(name: str) -> bool:
    lowered = name.lower()
    return any(
        lowered == hint or lowered.endswith("_" + hint) or lowered.endswith(hint)
        for hint in REGISTRY_NAME_HINTS
    )


def _registry_hint(registry_expr: Optional[ast.expr]) -> str:
    if registry_expr is None:
        return "<unknown>"
    text = _expr_text(registry_expr)
    if text.endswith(".seed"):
        text = text[: -len(".seed")]
    return text


def _root_name(expr: Optional[ast.expr]) -> Optional[str]:
    if expr is None:
        return None
    chain = attribute_chain(expr)
    if chain:
        return chain[0]
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_local_ctor(function: FunctionInfo, registry_root: Optional[str]) -> bool:
    """Was the registry constructed inside this function?

    A locally-built ``RandomStreams(...)`` (or ``.fork(...)`` child) is a
    key space scoped to the function, so its keys can only collide with
    keys drawn in the same function — MV101 narrows the comparison group
    accordingly instead of comparing every ``streams``-named registry in
    the program against every other.
    """
    if registry_root is None or registry_root in function.params:
        return False
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == registry_root for t in node.targets
        ):
            continue
        value = node.value
        callee = value.func if isinstance(value, ast.Call) else None
        if callee is None:
            continue
        chain = attribute_chain(callee)
        if chain and (chain[-1] in ("RandomStreams", "fork") or "RandomStreams" in chain):
            return True
        # RandomStreams(seed).fork(name): the .fork receiver is a Call, so
        # attribute_chain is None — look one level down.
        if isinstance(callee, ast.Attribute) and callee.attr in ("fork", "RandomStreams"):
            return True
    return False


def _loop_local_names(
    function: FunctionInfo, site: CallSite, cache: Dict[int, Set[str]]
) -> Set[str]:
    """Names (re)bound inside the innermost loop containing ``site``.

    A registry constructed inside the loop body (``epoch_streams =
    RandomStreams(seed).fork(f"epoch-{e}")``) is a *fresh* key space per
    iteration, so a constant key drawn from it is not shared.
    """
    loop = _innermost_loop(function.node, site.node)
    if loop is None:
        return set()
    key = id(loop)
    if key not in cache:
        names: Set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                for sub in ast.walk(node.optional_vars):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        cache[key] = names
    return cache[key]


def _innermost_loop(root: ast.AST, target: ast.AST) -> Optional[ast.AST]:
    """The innermost For/While whose subtree contains ``target``."""
    result: List[Optional[ast.AST]] = [None]

    def descend(node: ast.AST, loop: Optional[ast.AST]) -> bool:
        if node is target:
            result[0] = loop
            return True
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, (ast.For, ast.AsyncFor, ast.While)) else None
            if descend(child, inner or loop):
                return True
        return False

    descend(root, None)
    return result[0]
