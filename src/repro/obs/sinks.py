"""Telemetry sinks: a JSONL stream and an in-memory ring buffer.

Sinks are deliberately dumb -- an ``emit(record)`` method and optional
``flush()``/``close()`` -- so the hub stays agnostic about where records
land.  The JSONL format is one JSON object per line with the reserved keys
described in :mod:`repro.obs.telemetry`; ``mvcom trace summary`` and the CI
smoke check both consume it.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterator, List, Optional

import numpy as np


class TraceDecodeError(ValueError):
    """Raised when a JSONL trace file contains an unparseable line."""


class _RecordEncoder(json.JSONEncoder):
    """JSON encoder tolerating numpy scalars/arrays and sets.

    Telemetry must never crash the run it observes, so anything else
    unknown falls back to ``str`` instead of raising.
    """

    def default(self, value):
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (set, frozenset)):
            return sorted(value)
        return str(value)


class RingBufferSink:
    """Keep the most recent ``capacity`` rows in memory.

    Capacity counts logical rows, not records: a columnar record
    (``rows: n``, see :meth:`repro.obs.telemetry.Telemetry.event_rows`)
    weighs ``n``, so the ring holds the same history whichever form the
    records arrive in.  Whole records are evicted, oldest first, until the
    rows held fit the capacity again.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buffer: deque = deque()
        self._rows = 0

    def emit(self, record: dict) -> None:
        """Append one record, evicting the oldest while over capacity."""
        self._buffer.append(record)
        self._rows += record.get("rows", 1)
        while self._rows > self.capacity:
            self._rows -= self._buffer.popleft().get("rows", 1)

    @property
    def records(self) -> List[dict]:
        """The buffered records, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        """Drop everything buffered so far."""
        self._buffer.clear()
        self._rows = 0

    def __len__(self) -> int:
        """Rows held (a columnar record counts its ``rows``)."""
        return self._rows


class JsonlSink:
    """Stream records to a JSON-lines file (or any writable file object)."""

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
            self.path: Optional[str] = getattr(target, "name", None)
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True
            self.path = str(target)
        self._closed = False

    def emit(self, record: dict) -> None:
        """Write one record as a JSON line."""
        if self._closed:
            raise ValueError("emit() on a closed JsonlSink")
        self._handle.write(json.dumps(record, cls=_RecordEncoder))
        self._handle.write("\n")

    def flush(self) -> None:
        """Flush the underlying handle."""
        if not self._closed:
            self._handle.flush()

    def close(self) -> None:
        """Flush, and close the handle if this sink opened it."""
        if self._closed:
            return
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()
        self._closed = True

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def iter_jsonl(path) -> Iterator[dict]:
    """Stream a JSONL trace one record dict at a time.

    This is the bounded-memory form ``summary``/``metrics``/``diff`` build
    on: the file is never materialised as a list, so Eth2-scale traces
    (millions of records) aggregate in O(1) memory.  Blank lines are
    skipped; a malformed line raises :class:`TraceDecodeError` naming its
    line number, exactly as :func:`read_jsonl` does.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                yield json.loads(stripped)
            except json.JSONDecodeError as error:
                raise TraceDecodeError(
                    f"{path}:{line_number}: invalid JSONL record: {error}"
                ) from error


def read_jsonl(path) -> List[dict]:
    """Load a JSONL trace back into a list of record dicts.

    Thin list wrapper over :func:`iter_jsonl`; prefer the iterator form
    for anything that only needs one pass.
    """
    return list(iter_jsonl(path))
