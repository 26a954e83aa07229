"""pyproject.toml loading shared by the repo's TOML consumers.

:mod:`repro.obs.slo` reads its ``[tool.repro.obs.slo.*]`` specs through
:func:`find_pyproject` and :func:`parse_toml`.  The linter itself reads no
configuration: findings are suppressed only by inline
``# repro: ignore[MVxxx]`` pragmas.

Python 3.11+ parses with :mod:`tomllib`; on 3.9/3.10 (no tomllib, and the
repo adds no third-party deps) a minimal line-oriented TOML-subset parser
covers the shapes the repo uses: tables, string/bool/int/float keys and
string arrays, including multi-line arrays.
"""

from __future__ import annotations

import os
from typing import List, Optional

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    _toml = None


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


def parse_toml(text: str) -> dict:
    """Decode TOML text: :mod:`tomllib` when available, the subset parser
    below otherwise, so every consumer shares one 3.9-safe parser."""
    if _toml is not None:
        return _toml.loads(text)
    return _parse_toml_subset(text)


def _parse_toml_subset(text: str) -> dict:
    """TOML-subset fallback for Pythons without :mod:`tomllib`.

    Handles ``[dotted.table.headers]``, ``key = value`` with string / bool /
    int / float values and (possibly multi-line) arrays of strings — the
    full shape of the ``[tool.repro.obs.slo.*]`` tables.  Unrelated
    constructs it cannot decode are skipped rather than fatal, so an exotic
    pyproject elsewhere in the file never breaks its readers.
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
