"""Diagnostic records and reports for the :mod:`repro.analysis` linter.

A diagnostic pins one finding to a ``path:line`` location together with the
rule id (``MV001`` ...) and a human-readable message.  Every finding is an
error: the linter exits non-zero on any of them.  The records are plain
frozen dataclasses so rules stay trivially testable and the reports can
sort/format them without knowing anything about the rules.

Both reports are byte-deterministic: they iterate in sorted order and
nothing depends on hash ordering, so the same tree prints the same bytes
under any ``PYTHONHASHSEED`` (a subprocess test asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding at ``path:line``."""

    path: str
    line: int
    rule_id: str
    message: str = field(compare=False)
    column: int = field(default=0, compare=False)

    def format(self) -> str:
        """GCC-style one-line rendering: ``path:line:col: MVxxx message``."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule_id} {self.message}"


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Stable ordering for reports: by path, then line, then rule id."""
    return sorted(diagnostics)


def render_report(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line report plus a one-line summary (empty string when clean)."""
    if not diagnostics:
        return ""
    lines = [diagnostic.format() for diagnostic in sort_diagnostics(diagnostics)]
    lines.append(f"{len(diagnostics)} finding(s)")
    return "\n".join(lines)


def render_annotations(diagnostics: Sequence[Diagnostic]) -> str:
    """``::error file=...`` workflow commands; GitHub turns these into PR
    annotations without needing the code-scanning upload permission."""
    lines = []
    for d in sort_diagnostics(diagnostics):
        path = d.path.replace("\\", "/").lstrip("./")
        message = d.message.replace("%", "%25").replace("\n", "%0A")
        lines.append(
            f"::error file={path},line={d.line},"
            f"col={d.column + 1},title={d.rule_id}::{message}"
        )
    return "\n".join(lines)
