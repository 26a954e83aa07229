"""Whole-program module / import / call graph for the MV1xx rule family.

The MV00x rules are per-file AST walks; the MV1xx family (wall-clock/
entropy taint, telemetry-guard flow) needs to reason *across* files: which
function calls which.  This module builds that picture once per lint run:

* :class:`ModuleInfo` — one parsed source file: module name, AST, an import
  map (local name -> dotted target) and every function/method defined in it.
* :class:`FunctionInfo` — one function/method/nested function with its
  resolved call sites (:class:`CallSite`).
* :class:`ProjectGraph` — the project: modules by name/path, functions by
  qualified name and a reverse caller index.

Resolution is deliberately *conservative-precise*: an edge is only added
when the callee is confidently identified (module-level function in scope,
imported project function, ``self.method`` on the enclosing class, project
class construction, ``Class.method`` / ``mod.func`` attribute chains).
Attribute calls on unknown objects produce **no** edge, so the flow rules
built on top err toward missing an exotic path rather than inventing one.

Everything is stdlib-only and iteration order is explicitly sorted, so the
diagnostics derived from the graph are byte-deterministic across
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Path roots stripped when deriving a dotted module name from a file path.
_SOURCE_ROOTS = ("src/",)


def module_name_for_path(normalized: str) -> str:
    """``src/repro/core/se.py`` -> ``repro.core.se`` (posix-normalized input)."""
    name = normalized
    for root in _SOURCE_ROOTS:
        if name.startswith(root):
            name = name[len(root):]
            break
    if name.endswith(".py"):
        name = name[: -len(".py")]
    if name.endswith("/__init__"):
        name = name[: -len("/__init__")]
    return name.replace("/", ".")


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


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    line: int
    col: int
    raw: str  # textual callee
    target: Optional[str] = None  # resolved project qualname, if confident


@dataclass
class FunctionInfo:
    """One function / method / nested function in the project."""

    qualname: str  # "repro.core.se.SEScheduler._apply_leave"
    name: str
    module: str
    path: str  # as given to the engine (for diagnostics)
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    line: int
    class_name: Optional[str] = None  # enclosing class simple name, if method
    parent: Optional[str] = None  # enclosing function qualname, if nested
    params: Tuple[str, ...] = ()  # positional+kwonly parameter names, in order
    calls: List[CallSite] = field(default_factory=list)

    @property
    def is_nested(self) -> bool:
        return self.parent is not None

    def display(self) -> str:
        """Short human form used in diagnostics: drop the module prefix."""
        prefix = self.module + "."
        if self.qualname.startswith(prefix):
            return self.qualname[len(prefix):]
        return self.qualname


#: Pseudo-function name holding a module's top-level statements.
MODULE_BODY = "<module>"


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str  # dotted module name
    path: str
    normalized: str
    source: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)  # local -> dotted target
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)  # qualname ->
    classes: Dict[str, List[str]] = field(default_factory=dict)  # class -> method names


class _FunctionCollector(ast.NodeVisitor):
    """Walk one module, recording functions, methods and their call sites."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.class_stack: List[str] = []
        self.func_stack: List[FunctionInfo] = []

    # ---------------------------------------------------------------- #
    # scope bookkeeping
    # ---------------------------------------------------------------- #
    def _qualify(self, name: str) -> str:
        parts = [self.module.name]
        parts.extend(self.class_stack)
        parts.extend(f.name for f in self.func_stack)
        parts.append(name)
        return ".".join(parts)

    def _current_function(self) -> FunctionInfo:
        if self.func_stack:
            return self.func_stack[-1]
        return self.module.functions[f"{self.module.name}.{MODULE_BODY}"]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.func_stack:
            self.module.classes.setdefault(node.name, [])
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        # Decorators and defaults run in the enclosing scope, at def time.
        for expr in node.decorator_list + node.args.defaults + node.args.kw_defaults:
            if expr is not None:
                self.visit(expr)
        qualname = self._qualify(node.name)
        if self.class_stack and not self.func_stack:
            self.module.classes.setdefault(self.class_stack[-1], []).append(node.name)
        args = node.args
        params = tuple(
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        )
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            module=self.module.name,
            path=self.module.path,
            node=node,
            line=node.lineno,
            class_name=self.class_stack[-1] if self.class_stack else None,
            parent=self.func_stack[-1].qualname if self.func_stack else None,
            params=params,
        )
        self.module.functions[qualname] = info
        self.func_stack.append(info)
        for child in node.body:
            self.visit(child)
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # ---------------------------------------------------------------- #
    # calls
    # ---------------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        self._current_function().calls.append(
            CallSite(
                node=node,
                line=node.lineno,
                col=node.col_offset,
                raw=_callee_text(node.func),
            )
        )
        self.generic_visit(node)


def _callee_text(func: ast.expr) -> str:
    chain = attribute_chain(func)
    if chain is not None:
        return ".".join(chain)
    try:
        return ast.unparse(func)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return "<expr>"


def _collect_imports(module: ModuleInfo) -> None:
    """Fill ``module.imports``: local name -> dotted target."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    module.imports.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.name.split(".")
                # level 1 = current package for modules, strip one extra for
                # each additional level.
                anchor = parts[: len(parts) - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base else alias.name


class ProjectGraph:
    """The whole-program view the MV1xx rules run on."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # dotted name -> info
        self.by_path: Dict[str, ModuleInfo] = {}  # normalized path -> info
        self.functions: Dict[str, FunctionInfo] = {}  # qualname -> info
        self.callers: Dict[str, List[Tuple[str, CallSite]]] = {}

    # ---------------------------------------------------------------- #
    # construction
    # ---------------------------------------------------------------- #
    @classmethod
    def build(cls, sources: Dict[str, Tuple[str, str, ast.Module]]) -> "ProjectGraph":
        """Build from ``{path: (normalized, source, tree)}`` (pre-parsed files)."""
        graph = cls()
        for path in sorted(sources):
            normalized, source, tree = sources[path]
            name = module_name_for_path(normalized)
            module = ModuleInfo(
                name=name, path=path, normalized=normalized, source=source, tree=tree
            )
            # Pseudo-function for module-level statements (call-graph root).
            body = FunctionInfo(
                qualname=f"{name}.{MODULE_BODY}",
                name=MODULE_BODY,
                module=name,
                path=path,
                node=tree,
                line=1,
            )
            module.functions[body.qualname] = body
            _collect_imports(module)
            _FunctionCollector(module).visit(tree)
            graph.modules[name] = module
            graph.by_path[normalized] = module
        for module in graph.modules.values():
            graph.functions.update(module.functions)
        graph._resolve_calls()
        graph._index_callers()
        return graph

    # ---------------------------------------------------------------- #
    # call resolution
    # ---------------------------------------------------------------- #
    def _resolve_calls(self) -> None:
        for module_name in sorted(self.modules):
            module = self.modules[module_name]
            for qualname in sorted(module.functions):
                function = module.functions[qualname]
                for site in function.calls:
                    site.target = self._resolve_site(module, function, site)

    def _resolve_site(
        self, module: ModuleInfo, function: FunctionInfo, site: CallSite
    ) -> Optional[str]:
        func = site.node.func
        if isinstance(func, ast.Name):
            return self._resolve_name(module, function, func.id)
        chain = attribute_chain(func)
        if chain is None:
            return None
        return self._resolve_chain(module, function, chain)

    def _resolve_name(
        self, module: ModuleInfo, function: FunctionInfo, name: str
    ) -> Optional[str]:
        # nested function defined in an enclosing function of this scope
        scope: Optional[FunctionInfo] = function
        while scope is not None:
            candidate = f"{scope.qualname}.{name}"
            if candidate in module.functions:
                return candidate
            scope = module.functions.get(scope.parent) if scope.parent else None
        # module-level function in the same module
        candidate = f"{module.name}.{name}"
        if candidate in module.functions:
            return candidate
        # module-level class in the same module -> its __init__ if defined
        if name in module.classes:
            return self._class_target(module.name, name)
        # imported object
        dotted = module.imports.get(name)
        if dotted is not None:
            return self._resolve_dotted(dotted)
        return None

    def _resolve_chain(
        self, module: ModuleInfo, function: FunctionInfo, chain: Tuple[str, ...]
    ) -> Optional[str]:
        root, rest = chain[0], chain[1:]
        if root in ("self", "cls") and function.class_name is not None and len(rest) == 1:
            method = rest[0]
            if method in module.classes.get(function.class_name, ()):
                return f"{module.name}.{function.class_name}.{method}"
            return None
        if root in module.classes and len(rest) == 1:
            if rest[0] in module.classes[root]:
                return f"{module.name}.{root}.{rest[0]}"
            return None
        dotted = module.imports.get(root)
        if dotted is not None:
            return self._resolve_dotted(".".join((dotted,) + rest))
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        """Resolve a fully-dotted target against project modules/classes."""
        if dotted in self.functions:
            return dotted
        # longest module prefix match, then walk the remainder
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:cut])
            module = self.modules.get(module_name)
            if module is None:
                continue
            remainder = parts[cut:]
            if len(remainder) == 1:
                candidate = f"{module_name}.{remainder[0]}"
                if candidate in module.functions:
                    return candidate
                if remainder[0] in module.classes:
                    return self._class_target(module_name, remainder[0])
            elif len(remainder) == 2:
                candidate = f"{module_name}.{remainder[0]}.{remainder[1]}"
                if candidate in module.functions:
                    return candidate
            return None
        return None

    def _class_target(self, module_name: str, class_name: str) -> Optional[str]:
        init = f"{module_name}.{class_name}.__init__"
        if init in self.functions:
            return init
        return None

    def _index_callers(self) -> None:
        self.callers = {}
        for qualname in sorted(self.functions):
            function = self.functions[qualname]
            for site in function.calls:
                if site.target is not None:
                    self.callers.setdefault(site.target, []).append((qualname, site))

    # ---------------------------------------------------------------- #
    # queries
    # ---------------------------------------------------------------- #
    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    def callers_of(self, qualname: str) -> List[Tuple[str, CallSite]]:
        return self.callers.get(qualname, [])

    def render_path(self, path: Sequence[str]) -> str:
        """Human form of a call path: strip module prefixes, arrow-join."""
        shown = []
        for qualname in path:
            function = self.functions.get(qualname)
            shown.append(function.display() if function else qualname)
        return " -> ".join(shown)


def build_graph_from_sources(sources: Dict[str, Tuple[str, str]]) -> ProjectGraph:
    """Build from ``{path: (normalized, source)}``, parsing as needed.

    Files that fail to parse are skipped (the per-file pass already reports
    the MV000 syntax error).
    """
    parsed: Dict[str, Tuple[str, str, ast.Module]] = {}
    for path in sorted(sources):
        normalized, source = sources[path]
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        parsed[path] = (normalized, source, tree)
    return ProjectGraph.build(parsed)
