"""Rule registry and file walker for the :mod:`repro.analysis` linter.

A rule is a class with a ``rule_id``, a one-line ``description`` and a
``check(tree, context)`` method yielding :class:`Diagnostic` records.  Rules
register themselves via :func:`register_rule`; the engine parses each file
once and fans the AST out to every registered rule.  Every rule is
per-file: :meth:`LintEngine.lint_paths` (the CLI path) runs them file by
file, and :meth:`LintEngine.lint_source` (the test-fixture entry point)
runs them over one source string.

Findings are suppressed only inline, with a ``# repro: ignore[MVxxx]``
pragma on the flagged line (or on a comment-only line immediately above
it); ``MVxxx`` may be a comma-separated list.  There is no configuration
file.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Type

from repro.analysis.diagnostics import Diagnostic, sort_diagnostics


def normalize_path(path: str) -> str:
    """Posix separators, no leading ``./`` — the form rules match against."""
    return path.replace(os.sep, "/").lstrip("./")


@dataclass(frozen=True)
class FileContext:
    """What a rule may know about the file under analysis."""

    path: str  # as given on the command line / test fixture
    normalized: str  # posix separators, no leading ./
    source: str

    def in_package(self, *suffixes: str) -> bool:
        """Does the file live under any of the given path suffixes?

        ``suffixes`` use posix form, e.g. ``"repro/core/"`` (package) or
        ``"repro/sim/rng.py"`` (single module).
        """
        for suffix in suffixes:
            if suffix.endswith("/"):
                if f"/{suffix}" in f"/{self.normalized}":
                    return True
            elif self.normalized == suffix or self.normalized.endswith("/" + suffix):
                return True
        return False


class Rule:
    """Base class for per-file lint rules."""

    rule_id: str = "MV000"
    description: str = ""

    def check(self, tree: ast.AST, context: FileContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, context: FileContext, node: ast.AST, message: str) -> Diagnostic:
        """Convenience constructor anchoring a finding to an AST node."""
        return Diagnostic(
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule_id = rule_class.rule_id
    if rule_id in _REGISTRY and _REGISTRY[rule_id] is not rule_class:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def registered_rules() -> Dict[str, Type[Rule]]:
    """Snapshot of the registry (importing the rule modules populates it)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return dict(sorted(_REGISTRY.items()))


# ---------------------------------------------------------------------- #
# inline suppression pragmas
# ---------------------------------------------------------------------- #
_PRAGMA_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


def pragma_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids suppressed there by ``# repro: ignore[...]``.

    A pragma trailing a statement applies to its own line; a pragma on a
    comment-only line applies to the next line (so long messages can carry
    the pragma above the flagged statement).
    """
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        target = lineno + 1 if line.lstrip().startswith("#") else lineno
        suppressions.setdefault(target, set()).update(rules)
    return suppressions


class LintEngine:
    """Parse each file once, run every registered rule, collect diagnostics."""

    def __init__(self) -> None:
        self.rules: List[Rule] = [rule_class() for rule_class in registered_rules().values()]

    def lint_paths(self, paths: Sequence[str]) -> List[Diagnostic]:
        """Lint files and/or directory trees (``.py`` files only), file by file."""
        diagnostics: List[Diagnostic] = []
        for path in _walk_python_files(paths):
            with open(path, "r", encoding="utf-8") as handle:
                diagnostics.extend(self.lint_source(handle.read(), path))
        return sort_diagnostics(diagnostics)

    def lint_source(self, source: str, path: str = "<string>") -> List[Diagnostic]:
        """Lint one source string (the test-fixture entry point), pragmas applied."""
        suppressed = pragma_suppressions(source)
        return sort_diagnostics(
            [
                diagnostic
                for diagnostic in self._file_diagnostics(source, path)
                if diagnostic.rule_id not in suppressed.get(diagnostic.line, ())
            ]
        )

    def _file_diagnostics(self, source: str, path: str) -> List[Diagnostic]:
        context = FileContext(path=path, normalized=normalize_path(path), source=source)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [
                Diagnostic(
                    path=path,
                    line=error.lineno or 1,
                    column=(error.offset or 1) - 1,
                    rule_id="MV000",
                    message=f"syntax error: {error.msg}",
                )
            ]
        diagnostics: List[Diagnostic] = []
        for rule in self.rules:
            diagnostics.extend(rule.check(tree, context))
        return diagnostics


def _walk_python_files(paths: Sequence[str]) -> Iterator[str]:
    seen = set()
    for path in paths:
        if os.path.isdir(path):
            for directory, subdirs, files in os.walk(path):
                subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
                for name in sorted(files):
                    if name.endswith(".py"):
                        full = os.path.join(directory, name)
                        if full not in seen:
                            seen.add(full)
                            yield full
        elif path.endswith(".py") and os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path


def run_analysis(paths: Sequence[str]) -> List[Diagnostic]:
    """One-call API used by the CLI, ``__main__`` and the tests."""
    return LintEngine().lint_paths(paths)
