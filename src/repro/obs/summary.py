"""Text reports over telemetry traces (``mvcom trace summary``).

Consumes the JSONL record stream (or a ring buffer's record list) and
renders the three views a scheduling run is diagnosed with: where the time
went (top spans by cumulative duration), what happened (record counts by
type and name), and how the search moved (the SE utility trace as a
sparkline plus its summary statistics).  Profiling hotspot events, when
present, get their own table.

The span and record-count tables are read off one
:class:`~repro.obs.metrics.MetricsAggregator` snapshot: its untagged
``span|<name>`` and ``span.wall|<name>`` series carry each span's count
and summed durations, and its untagged per-kind series count the records.
Only the ordered ``se.round`` utilities and the hotspot records are kept
on the side, because the report prints them as they are.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.harness.report import render_table
from repro.harness.textplot import sparkline
from repro.metrics.traces import trace_statistics
from repro.obs.metrics import MetricsAggregator
from repro.obs.sinks import iter_jsonl

#: Series kinds that are record types (``field`` and ``span.wall`` are
#: derived series, not records).
_RECORD_KINDS = ("counter", "event", "gauge", "hist", "span")


def utility_trace(records: Iterable[dict]) -> List[float]:
    """Best-utility series carried by the ``se.round`` trace points."""
    return [
        float(record["best_utility"])
        for record in records
        if record.get("name") == "se.round" and "best_utility" in record
    ]


def _span_rows(series: dict) -> List[dict]:
    """Per-span count and summed ``dt``/``wall_dt``, largest total first."""
    rows = []
    for key, stats in series.items():
        kind, _, name = key.partition("|")
        if kind == "span" and "|" not in name:
            wall = series.get(f"span.wall|{name}", {})
            rows.append(
                {
                    "span": name,
                    "count": stats["count"],
                    "total_dt": stats["sum"],
                    "total_wall_s": wall.get("sum", 0.0),
                }
            )
    rows.sort(key=lambda row: (-row["total_dt"], row["span"]))
    for row in rows:
        row["total_dt"] = round(row["total_dt"], 6)
        row["mean_dt"] = round(row["total_dt"] / row["count"], 6)
        row["total_wall_s"] = round(row["total_wall_s"], 6)
    return rows


def _record_count_rows(series: dict) -> List[dict]:
    """Records per (type, name), most frequent first."""
    counts = {}
    for key, stats in series.items():
        kind, _, name = key.partition("|")
        if kind in _RECORD_KINDS and "|" not in name:
            counts[(kind, name)] = stats["count"]
    return [
        {"type": kind, "name": name, "records": count}
        for (kind, name), count in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
    ]


def summarize_records(records: Iterable[dict], top_spans: int = 10) -> str:
    """Render the full text report from any record iterable (one pass)."""
    aggregator = MetricsAggregator()
    utility: List[float] = []
    hotspots: List[dict] = []
    for record in records:
        aggregator.emit(record)
        name = record.get("name")
        if name == "se.round" and "best_utility" in record:
            utility.append(float(record["best_utility"]))
        elif name == "profile.hotspots":
            hotspots.append(record)
    if not aggregator.records:
        return "empty trace: no telemetry records"
    series = aggregator.snapshot()["series"]
    sections: List[str] = [f"telemetry trace: {aggregator.records} records"]

    span_rows = _span_rows(series)
    if span_rows:
        sections.append(
            render_table(span_rows[:top_spans], title="Top spans by cumulative time")
        )

    sections.append(
        render_table(_record_count_rows(series), title="Record counts by name")
    )

    if utility:
        stats = trace_statistics(utility)
        stats_rows = [{"statistic": key, "value": value} for key, value in stats.items()]
        sections.append(
            "SE utility trace: " + sparkline(utility) + "\n" + render_table(stats_rows)
        )

    for record in hotspots:
        rows = record.get("hotspots") or []
        if rows:
            sections.append(
                render_table(rows, title=f"Profile hotspots: {record.get('target', '?')}")
            )

    return "\n\n".join(sections)


def summarize_file(path, top_spans: int = 10) -> str:
    """Stream a JSONL trace from disk and render its text report."""
    return summarize_records(iter_jsonl(path), top_spans=top_spans)
