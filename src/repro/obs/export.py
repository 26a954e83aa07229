"""Byte-deterministic trace exporters: Perfetto trace-event JSON and
OpenMetrics textfile exposition.

Two interchange formats so the pipeline's traces plug into standard
tooling without bespoke viewers:

* :func:`write_perfetto` streams telemetry records into Chrome/Perfetto
  ``trace_event`` JSON (the ``chrome://tracing`` / https://ui.perfetto.dev
  format): spans become complete (``"ph": "X"``) events on the
  deterministic clock, counters become ``"C"`` counter tracks, events and
  histogram observations become instants.  One row in, one event out (a
  columnar record expands to one instant per row at ``t + i``) — the
  writer is single-pass and never materialises the trace.
* :func:`openmetrics_text` renders a
  :class:`~repro.obs.metrics.MetricsAggregator` snapshot as a
  Prometheus/OpenMetrics textfile (node-exporter textfile-collector
  compatible): sketch series become summaries with p50/p90/p99 quantile
  samples, counters become ``_total`` counters, gauges gauges.

Both outputs are **byte-deterministic**: records carry the deterministic
``t``/``seq`` stamps, every dict is serialised with sorted keys, series
iterate in sorted order, and floats render via ``repr`` (shortest
round-trip form, hash-seed independent).  CI hashes two exports of the
same run and across ``PYTHONHASHSEED`` values and requires equality.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional, TextIO, Union

from repro.obs.metrics import MetricsAggregator
from repro.obs.sinks import _RecordEncoder
from repro.obs.telemetry import iter_rows

#: Microseconds per deterministic time unit: ``t`` is seconds for
#: sim-time spans and an emission index otherwise; either way one unit
#: maps to 1e6 trace-event microseconds so nesting stays visible.
_US_PER_T = 1e6

#: Record fields not copied into trace-event ``args`` (already encoded in
#: the event envelope).
_ENVELOPE_KEYS = frozenset(
    {"seq", "t", "wall", "type", "name", "rows", "t0", "t1", "dt", "depth", "wall_dt"}
)


def _args_of(record: Mapping) -> dict:
    return {
        key: value for key, value in record.items() if key not in _ENVELOPE_KEYS
    }


def trace_event(record: Mapping) -> Optional[dict]:
    """Map one telemetry record to one trace-event dict (or ``None``).

    Spans map to complete events (``X``) spanning ``t0..t1``; counters to
    counter samples (``C``) carrying the running total; gauges likewise;
    events and histogram observations to thread-scoped instants (``i``).
    """
    kind = record.get("type")
    name = record.get("name", "?")
    if kind == "span":
        t0 = float(record.get("t0", record.get("t", 0.0)))
        t1 = float(record.get("t1", t0))
        return {
            "name": name,
            "cat": "span",
            "ph": "X",
            "ts": t0 * _US_PER_T,
            "dur": (t1 - t0) * _US_PER_T,
            "pid": 0,
            "tid": int(record.get("depth", 0)),
            "args": _args_of(record),
        }
    if kind == "counter":
        return {
            "name": name,
            "cat": "counter",
            "ph": "C",
            "ts": float(record.get("t", 0.0)) * _US_PER_T,
            "pid": 0,
            "tid": 0,
            "args": {name: record.get("total", record.get("inc", 1))},
        }
    if kind == "gauge":
        return {
            "name": name,
            "cat": "gauge",
            "ph": "C",
            "ts": float(record.get("t", 0.0)) * _US_PER_T,
            "pid": 0,
            "tid": 0,
            "args": {name: record.get("value", 0.0)},
        }
    if kind in ("event", "hist"):
        args = _args_of(record)
        if kind == "hist":
            args["value"] = record.get("value", 0.0)
        return {
            "name": name,
            "cat": kind,
            "ph": "i",
            "s": "t",
            "ts": float(record.get("t", 0.0)) * _US_PER_T,
            "pid": 0,
            "tid": 0,
            "args": args,
        }
    return None


def write_perfetto(records: Iterable[Mapping], target: Union[str, TextIO]) -> int:
    """Stream records to a ``trace_event`` JSON file; returns event count.

    Single-pass and allocation-light: each record's event is serialised
    (sorted keys, compact separators) and written immediately, so an
    Eth2-scale trace exports in bounded memory.
    """
    handle: TextIO
    if hasattr(target, "write"):
        handle = target  # type: ignore[assignment]
        owns = False
    else:
        handle = open(target, "w", encoding="utf-8")
        owns = True
    try:
        handle.write('{"displayTimeUnit": "ms", "traceEvents": [')
        written = 0
        for row in (row for record in records for row in iter_rows(record)):
            event = trace_event(row)
            if event is None:
                continue
            if written:
                handle.write(",\n ")
            else:
                handle.write("\n ")
            handle.write(
                json.dumps(event, cls=_RecordEncoder, sort_keys=True, separators=(", ", ": "))
            )
            written += 1
        handle.write("\n]}\n")
        return written
    finally:
        if owns:
            handle.close()


# ---------------------------------------------------------------------- #
# OpenMetrics / Prometheus textfile exposition
# ---------------------------------------------------------------------- #

_METRIC_SAFE = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _sanitize(name: str) -> str:
    cleaned = "".join(ch if ch in _METRIC_SAFE else "_" for ch in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    # repr() is the shortest round-trip form and hash-seed independent;
    # integers render bare so counters read naturally.
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels(tag: str, extra: Optional[Mapping[str, str]] = None) -> str:
    pairs = []
    if tag:
        field, _, value = tag.partition("=")
        pairs.append((field or "tag", value))
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    body = ",".join(f'{_sanitize(k)}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


#: Snapshot kinds mapped to (metric suffix, OpenMetrics type).
_KIND_FAMILIES = {
    "span": ("span_dt", "summary"),
    "span.wall": ("span_wall_seconds", "summary"),
    "hist": ("value", "summary"),
    "field": ("value", "summary"),
    "gauge": ("gauge", "gauge"),
    "counter": ("total", "counter"),
    "event": ("records", "counter"),
}

_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def openmetrics_text(aggregator: MetricsAggregator, prefix: str = "mvcom") -> str:
    """Render the aggregator state as OpenMetrics textfile exposition.

    One metric family per (kind, metric-name) pair — e.g. the
    ``chain.pbft.round`` span series becomes
    ``mvcom_chain_pbft_round_span_dt{...}`` summary samples with
    p50/p90/p99 quantiles plus ``_sum``/``_count`` — with tagged series
    distinguished by labels.  Output is byte-deterministic: families and
    labels render in sorted order with ``repr`` floats.
    """
    snapshot = aggregator.snapshot()
    lines = []
    emitted_headers = set()
    for key in sorted(snapshot["series"]):
        kind, _, rest = key.partition("|")
        name, _, tag = rest.partition("|")
        family_suffix, om_type = _KIND_FAMILIES.get(kind, ("records", "counter"))
        family = f"{prefix}_{_sanitize(name)}_{family_suffix}"
        stats = snapshot["series"][key]
        if family not in emitted_headers:
            emitted_headers.add(family)
            lines.append(f"# TYPE {family} {om_type}")
            lines.append(f"# HELP {family} {kind} series {name} from the mvcom telemetry stream")
        labels = _labels(tag)
        if om_type == "summary":
            for quantile, stat in _QUANTILES:
                if stat in stats:
                    q_labels = _labels(tag, {"quantile": quantile})
                    lines.append(f"{family}{q_labels} {_format_value(stats[stat])}")
            if "sum" in stats:
                lines.append(f"{family}_sum{labels} {_format_value(stats['sum'])}")
            lines.append(f"{family}_count{labels} {_format_value(stats['count'])}")
        elif om_type == "gauge":
            lines.append(f"{family}{labels} {_format_value(stats.get('last', 0.0))}")
        else:  # counter
            total = stats.get("total", stats["count"])
            lines.append(f"{family}{labels} {_format_value(total)}")
    lines.append(f"# TYPE {prefix}_trace_records counter")
    lines.append(f"# HELP {prefix}_trace_records telemetry records aggregated")
    lines.append(f"{prefix}_trace_records {snapshot['records']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    aggregator: MetricsAggregator, target: Union[str, TextIO], prefix: str = "mvcom"
) -> str:
    """Write :func:`openmetrics_text` to a path or handle; returns the text."""
    text = openmetrics_text(aggregator, prefix=prefix)
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
