"""Configuration for the lint engine: ``[tool.repro.analysis]`` in pyproject.

Supported keys::

    [tool.repro.analysis]
    disable = ["MV006"]            # rule ids switched off everywhere
    enable  = ["MV001"]            # explicit allow-list (optional; default: all)
    ignore  = ["src/repro/_gen/*"] # fnmatch path patterns skipped entirely

    [tool.repro.analysis.per-rule-ignore]
    MV002 = ["repro/chain/measurement.py"]   # rule id -> path patterns

Python 3.11+ parses with :mod:`tomllib`; on 3.9/3.10 (no tomllib, and the
repo adds no third-party deps) a minimal line-oriented TOML-subset parser
covers exactly the shapes above: tables, string/bool/int keys and string
arrays, including multi-line arrays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    _toml = None

CONFIG_SECTION = ("tool", "repro", "analysis")


@dataclass
class AnalysisConfig:
    """Effective lint configuration after reading pyproject.toml."""

    disabled_rules: frozenset = frozenset()
    enabled_rules: Optional[frozenset] = None  # None -> every registered rule
    ignore_paths: List[str] = field(default_factory=list)
    per_rule_ignores: Dict[str, List[str]] = field(default_factory=dict)
    source: Optional[str] = None  # pyproject path the config came from

    def rule_enabled(self, rule_id: str) -> bool:
        """Is ``rule_id`` globally switched on?"""
        if rule_id in self.disabled_rules:
            return False
        if self.enabled_rules is not None:
            return rule_id in self.enabled_rules
        return True

    def path_ignored(self, path: str, rule_id: Optional[str] = None) -> bool:
        """Is ``path`` excluded — entirely, or for one specific rule?"""
        normalized = _normalize(path)
        for pattern in self.ignore_paths:
            if _match(normalized, pattern):
                return True
        if rule_id is not None:
            for pattern in self.per_rule_ignores.get(rule_id, ()):
                if _match(normalized, pattern):
                    return True
        return False


def _normalize(path: str) -> str:
    return path.replace(os.sep, "/").lstrip("./")


def _match(path: str, pattern: str) -> bool:
    pattern = pattern.replace(os.sep, "/").lstrip("./")
    return fnmatch(path, pattern) or fnmatch(path, "*/" + pattern)


def find_pyproject(start: Optional[str] = None) -> Optional[str]:
    """Walk up from ``start`` (default: cwd) to the nearest pyproject.toml."""
    directory = os.path.abspath(start or os.getcwd())
    while True:
        candidate = os.path.join(directory, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def load_config(pyproject_path: Optional[str] = None, start: Optional[str] = None) -> AnalysisConfig:
    """Read ``[tool.repro.analysis]``; missing file/section yields defaults."""
    path = pyproject_path or find_pyproject(start)
    if path is None or not os.path.isfile(path):
        return AnalysisConfig()
    with open(path, "rb") as handle:
        raw = handle.read().decode("utf-8")
    table = _parse_toml(raw)
    section = table
    for key in CONFIG_SECTION:
        section = section.get(key, {})
        if not isinstance(section, dict):
            return AnalysisConfig(source=path)
    return config_from_section(section, source=path)


def config_from_section(section: dict, source: Optional[str] = None) -> AnalysisConfig:
    """Build an :class:`AnalysisConfig` from the decoded TOML section."""
    disable = frozenset(str(r).upper() for r in section.get("disable", ()))
    enable = section.get("enable")
    enabled = None if enable is None else frozenset(str(r).upper() for r in enable)
    ignore = [str(p) for p in section.get("ignore", ())]
    per_rule = {}
    for rule_id, patterns in (section.get("per-rule-ignore") or {}).items():
        if isinstance(patterns, str):
            patterns = [patterns]
        per_rule[str(rule_id).upper()] = [str(p) for p in patterns]
    return AnalysisConfig(
        disabled_rules=disable,
        enabled_rules=enabled,
        ignore_paths=ignore,
        per_rule_ignores=per_rule,
        source=source,
    )


def parse_toml(text: str) -> dict:
    """Decode TOML text: :mod:`tomllib` when available, the subset parser
    below otherwise.  Public so other config consumers (e.g. the SLO specs
    in :mod:`repro.obs.slo`) share one 3.9-safe parser instead of growing
    their own."""
    return _parse_toml(text)


def _parse_toml(text: str) -> dict:
    if _toml is not None:
        return _toml.loads(text)
    return _parse_toml_subset(text)


def _parse_toml_subset(text: str) -> dict:
    """TOML-subset fallback for Pythons without :mod:`tomllib`.

    Handles ``[dotted.table.headers]``, ``key = value`` with string / bool /
    int / float values and (possibly multi-line) arrays of strings — the
    full shape of ``[tool.repro.analysis]``.  Unrelated constructs it cannot
    decode are skipped rather than fatal, so an exotic pyproject elsewhere
    in the file never breaks linting.
    """
    root: dict = {}
    current = root
    pending_key: Optional[str] = None
    pending_value = ""

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if pending_key is not None:
            pending_value += " " + line
            if _brackets_balanced(pending_value):
                current[pending_key] = _parse_value(pending_value)
                pending_key, pending_value = None, ""
            continue
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = root
            header = line[1:-1].strip()
            for part in _split_header(header):
                current = current.setdefault(part, {})
                if not isinstance(current, dict):  # scalar/table clash; bail out
                    current = {}
            continue
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = _unquote(key.strip())
        value = _strip_comment(value.strip())
        if value.startswith("[") and not _brackets_balanced(value):
            pending_key, pending_value = key, value
            continue
        current[key] = _parse_value(value)
    return root


def _split_header(header: str) -> List[str]:
    parts, buffer, quote = [], "", ""
    for char in header:
        if quote:
            if char == quote:
                quote = ""
            else:
                buffer += char
        elif char in "\"'":
            quote = char
        elif char == ".":
            parts.append(buffer.strip())
            buffer = ""
        else:
            buffer += char
    parts.append(buffer.strip())
    return [p for p in parts if p]


def _brackets_balanced(value: str) -> bool:
    depth, quote = 0, ""
    for char in value:
        if quote:
            if char == quote:
                quote = ""
        elif char in "\"'":
            quote = char
        elif char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
    return depth <= 0


def _strip_comment(value: str) -> str:
    quote = ""
    for position, char in enumerate(value):
        if quote:
            if char == quote:
                quote = ""
        elif char in "\"'":
            quote = char
        elif char == "#":
            return value[:position].strip()
    return value


def _parse_value(value: str):
    value = value.strip()
    if value.startswith("[") and value.endswith("]"):
        return [_parse_value(item) for item in _split_array(value[1:-1])]
    if value in ("true", "false"):
        return value == "true"
    if value and (value[0] in "\"'"):
        return _unquote(value)
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _split_array(body: str) -> List[str]:
    items, buffer, quote, depth = [], "", "", 0
    for char in body:
        if quote:
            buffer += char
            if char == quote:
                quote = ""
        elif char in "\"'":
            quote = char
            buffer += char
        elif char == "[":
            depth += 1
            buffer += char
        elif char == "]":
            depth -= 1
            buffer += char
        elif char == "," and depth == 0:
            if buffer.strip():
                items.append(buffer.strip())
            buffer = ""
        else:
            buffer += char
    if buffer.strip():
        items.append(buffer.strip())
    return items


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value
