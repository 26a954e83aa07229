"""The MV1xx rule family: whole-program, flow-aware determinism checks.

Where the MV00x rules inspect one file at a time, these rules run over the
:class:`repro.analysis.graph.ProjectGraph` built once per lint run:

* **MV102 wall-clock/entropy taint** — replayable-package code must not
  read ``time.time``, ``datetime.now``, ``os.urandom``, ``uuid.uuid4`` or
  ``secrets.*``, directly or through the project call graph.  A direct
  call is reported at its call site (module bodies included); a function
  that *transitively* reaches such a call, or a global/unseeded RNG, is
  reported at the call starting the chain, with the chain spelled out.
  A direct global-RNG call is MV001's alone.
* **MV104 telemetry-guard flow** — telemetry emission inside a loop body
  must sit behind a dominating ``telemetry.enabled`` guard (directly, via a
  hoisted alias such as ``self.traced = telemetry.enabled``, or via an
  early ``if not telemetry.enabled: return/continue``), so the NullTelemetry
  fast path stays near-zero-cost in hot loops.

Intentional exceptions are expressed inline (``# repro: ignore[MV1xx]``).
Named-stream isolation is not a lint rule: ``repro.sim.rng`` checks it at
run time, where every stream is derived (``REPRO_CONTRACTS=1``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import ProjectRule, in_package, register_rule
from repro.analysis.graph import (
    MODULE_BODY,
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    attribute_chain,
)
from repro.analysis.rules import (
    REPLAY_PACKAGES,
    RNG_MODULE,
    _ImportMap,
    _global_rng_call,
)


def _project_diagnostic(
    rule, module_path: str, line: int, col: int, message: str
) -> Diagnostic:
    return Diagnostic(
        path=module_path,
        line=line,
        column=col,
        rule_id=rule.rule_id,
        message=message,
    )


# ---------------------------------------------------------------------- #
# MV102
# ---------------------------------------------------------------------- #
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


@register_rule
class WallClockTaintRule(ProjectRule):
    """MV102: replayable code reaching wall clocks / entropy, directly or not."""

    rule_id = "MV102"
    description = (
        "repro/{core,sim,chain,baselines,faultinject} code must not call "
        "time.time/datetime.now/os.urandom/secrets/uuid4, directly or "
        "transitively (a global RNG counts too) through the call graph; "
        "thread the virtual clock and named streams instead"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Diagnostic]:
        sinks: Dict[str, str] = {}  # qualname -> first sink it calls directly
        for module_name in sorted(graph.modules):
            module = graph.modules[module_name]
            imports = _ImportMap(module.tree)
            entropy = _entropy_imports(module.tree)
            replayable = in_package(module.normalized, *REPLAY_PACKAGES)
            seeded = module.normalized.endswith(RNG_MODULE)
            for qualname in sorted(module.functions):
                function = module.functions[qualname]
                for site in function.calls:
                    clock = _wall_clock_call(site.node, imports)
                    described = clock or _entropy_call(site.node, entropy)
                    if described is not None:
                        sinks.setdefault(qualname, described)
                        if replayable:
                            remedy = (
                                "thread the simulation clock (or an injectable clock)"
                                if clock
                                else "draw from a named repro.sim.rng stream"
                            )
                            yield _project_diagnostic(
                                self,
                                function.path,
                                site.line,
                                site.col,
                                f"{'wall-clock' if clock else 'entropy'} call "
                                f"{described}() breaks replayability; {remedy} instead",
                            )
                    elif not seeded:
                        # rng.py's constructors are seeded, not entropy; any
                        # other direct global-RNG call is MV001's finding and
                        # only taints this function's callers here.
                        described = _global_rng_call(site.node, imports)
                        if described is not None and not described.endswith(".Generator"):
                            sinks.setdefault(qualname, described)

        # BFS from sinks through the caller index; first (shortest) chain
        # wins, ties broken by sorted caller order for determinism.
        chains: Dict[str, Tuple[str, ...]] = {
            qualname: (qualname,) for qualname in sorted(sinks)
        }
        frontier = sorted(sinks)
        while frontier:
            next_frontier: List[str] = []
            for qualname in frontier:
                for caller, _site in sorted(
                    graph.callers_of(qualname), key=lambda c: c[0]
                ):
                    if caller in chains:
                        continue
                    chains[caller] = (caller,) + chains[qualname]
                    next_frontier.append(caller)
            frontier = sorted(set(next_frontier))

        for function in graph.iter_functions():
            qualname = function.qualname
            chain = chains.get(qualname)
            if chain is None or qualname in sinks:
                continue  # clean, or a direct sink (reported at the call)
            module = graph.modules[function.module]
            if not in_package(module.normalized, *REPLAY_PACKAGES):
                continue
            sink = sinks[chain[-1]]
            # anchor at the call that starts the chain
            line, col = function.line, 0
            for site in function.calls:
                if site.target == chain[1]:
                    line, col = site.line, site.col
                    break
            yield _project_diagnostic(
                self,
                function.path,
                line,
                col,
                f"{function.display()}() transitively reaches {sink}() via "
                f"{graph.render_path(chain)}; replayable code must take the "
                "virtual clock / a named stream as a parameter",
            )


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
# MV104
# ---------------------------------------------------------------------- #
#: Telemetry hub methods that emit records (see repro.obs.telemetry).
_EMISSION_METHODS = {
    "event", "event_rows", "count", "gauge", "observe", "span", "record_span"
}


@register_rule
class TelemetryGuardRule(ProjectRule):
    """MV104: loop-body telemetry emission needs a dominating enabled-guard."""

    rule_id = "MV104"
    description = (
        "telemetry emission inside a loop body in replayable packages must "
        "sit behind a dominating telemetry.enabled guard (directly or via a "
        "hoisted alias) so the NullTelemetry fast path stays free"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Diagnostic]:
        guard_attrs = _guard_attributes(graph)
        for module_name in sorted(graph.modules):
            module = graph.modules[module_name]
            if not in_package(module.normalized, *REPLAY_PACKAGES):
                continue
            class_aliases = _class_guard_aliases(module, guard_attrs)
            for qualname in sorted(module.functions):
                function = module.functions[qualname]
                if function.name == MODULE_BODY:
                    continue
                aliases = set(class_aliases.get(function.class_name or "", ()))
                aliases |= _function_guard_aliases(function, guard_attrs)
                self._guard_attrs = guard_attrs
                yield from self._scan_block(
                    function, function.node.body, aliases, guarded=False, in_loop=False
                )

    def _scan_block(
        self,
        function: FunctionInfo,
        statements: Sequence[ast.stmt],
        aliases: Set[str],
        guarded: bool,
        in_loop: bool,
    ) -> Iterator[Diagnostic]:
        block_guarded = guarded
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes are scanned as their own functions
            if isinstance(statement, ast.If):
                test_guards = _test_mentions_guard(
                    statement.test, aliases, self._guard_attrs
                )
                yield from self._scan_block(
                    function, statement.body, aliases, block_guarded or test_guards, in_loop
                )
                yield from self._scan_block(
                    function, statement.orelse, aliases, block_guarded, in_loop
                )
                if _is_negated_guard(
                    statement.test, aliases, self._guard_attrs
                ) and _always_exits(statement.body):
                    block_guarded = True  # if not enabled: return/continue
                continue
            if isinstance(statement, (ast.For, ast.AsyncFor, ast.While)):
                yield from self._scan_block(
                    function, statement.body, aliases, block_guarded, in_loop=True
                )
                yield from self._scan_block(
                    function, statement.orelse, aliases, block_guarded, in_loop
                )
                continue
            if isinstance(statement, ast.Try):
                for part in (statement.body, statement.orelse, statement.finalbody):
                    yield from self._scan_block(
                        function, part, aliases, block_guarded, in_loop
                    )
                for handler in statement.handlers:
                    yield from self._scan_block(
                        function, handler.body, aliases, block_guarded, in_loop
                    )
                continue
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                if in_loop and not block_guarded:
                    for item in statement.items:
                        yield from self._flag_emissions(function, item.context_expr)
                yield from self._scan_block(
                    function, statement.body, aliases, block_guarded, in_loop
                )
                continue
            if in_loop and not block_guarded:
                yield from self._flag_emissions(function, statement)

    def _flag_emissions(
        self, function: FunctionInfo, node: ast.AST
    ) -> Iterator[Diagnostic]:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            chain = attribute_chain(sub.func)
            if (
                chain is not None
                and len(chain) >= 2
                and chain[-1] in _EMISSION_METHODS
                and chain[-2] == "telemetry"
            ):
                yield _project_diagnostic(
                    self,
                    function.path,
                    sub.lineno,
                    sub.col_offset,
                    f"telemetry emission {'.'.join(chain)}() inside a loop "
                    "body has no dominating telemetry.enabled guard; hoist "
                    "'if telemetry.enabled:' so the NullTelemetry path stays "
                    "free",
                )


def _guard_attributes(graph: ProjectGraph) -> Set[str]:
    """Attribute names that carry a hoisted ``telemetry.enabled`` value.

    Seeded with ``enabled`` itself, then closed transitively over attribute
    assignments anywhere in the project: ``self.traced = telemetry.enabled``
    makes ``traced`` a guard attribute, so ``traced = run.traced`` in another
    module is recognized as a guard alias too.  Broadening guard recognition
    only ever *suppresses* findings, so the over-approximation is safe.
    """
    guard_attrs: Set[str] = {"enabled"}
    assignments: List[Tuple[ast.expr, List[str]]] = []
    for module_name in sorted(graph.modules):
        for node in ast.walk(graph.modules[module_name].tree):
            if not isinstance(node, ast.Assign):
                continue
            attrs = [t.attr for t in node.targets if isinstance(t, ast.Attribute)]
            if attrs:
                assignments.append((node.value, attrs))
    for _ in range(len(assignments) + 1):  # fixpoint, bounded
        added = False
        for value, attrs in assignments:
            if _mentions_guard(value, set(), guard_attrs):
                for attr in attrs:
                    if attr not in guard_attrs:
                        guard_attrs.add(attr)
                        added = True
        if not added:
            break
    return guard_attrs


def _class_guard_aliases(module: ModuleInfo, guard_attrs: Set[str]) -> Dict[str, Set[str]]:
    """``self.X`` attributes assigned from a guard expression, per class."""
    aliases: Dict[str, Set[str]] = {}
    for qualname in sorted(module.functions):
        function = module.functions[qualname]
        if function.class_name is None:
            continue
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Assign):
                continue
            if not _mentions_guard(node.value, set(), guard_attrs):
                continue
            for target in node.targets:
                chain = attribute_chain(target)
                if chain and chain[0] == "self" and len(chain) == 2:
                    aliases.setdefault(function.class_name, set()).add(
                        f"self.{chain[1]}"
                    )
    return aliases


def _function_guard_aliases(function: FunctionInfo, guard_attrs: Set[str]) -> Set[str]:
    """Local names assigned from a guard expression (``traced = run.traced``)."""
    aliases: Set[str] = set()
    for _ in range(4):  # small local fixpoint: t = traced; u = t
        added = False
        for node in ast.walk(function.node):
            if isinstance(node, ast.Assign) and _mentions_guard(
                node.value, aliases, guard_attrs
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in aliases:
                        aliases.add(target.id)
                        added = True
        if not added:
            break
    return aliases


def _mentions_guard(node: ast.AST, aliases: Set[str], guard_attrs: Set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in guard_attrs:
            return True
        if isinstance(sub, ast.Name) and sub.id in aliases:
            return True
    return False


def _test_mentions_guard(
    test: ast.expr, aliases: Set[str], guard_attrs: Set[str]
) -> bool:
    if _mentions_guard(test, aliases, guard_attrs):
        return True
    for sub in ast.walk(test):
        chain = attribute_chain(sub) if isinstance(sub, ast.Attribute) else None
        if chain is not None and ".".join(chain) in aliases:
            return True
    return False


def _is_negated_guard(test: ast.expr, aliases: Set[str], guard_attrs: Set[str]) -> bool:
    return (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and _test_mentions_guard(test.operand, aliases, guard_attrs)
    )


def _always_exits(body: Sequence[ast.stmt]) -> bool:
    if not body:
        return False
    last = body[-1]
    return isinstance(last, (ast.Return, ast.Continue, ast.Break, ast.Raise))
