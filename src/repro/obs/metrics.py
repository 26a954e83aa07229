"""Streaming metric aggregation over the telemetry record stream.

:mod:`repro.obs.telemetry` gives the pipeline a raw event stream;
``mvcom serve``-style steady-state operation (ROADMAP item 3), bandit
parameter control (item 5) and the eth2-scale path (the ``eth2scale``
preset drives ``2**10``-shard epochs through
:meth:`repro.chain.elastico.ElasticoSimulation.run_epoch`) all
need the *aggregated* view — solves/s, p50/p99 decision latency,
per-committee round latency — computed incrementally, because the raw
trace is either unbounded (a long-running service) or too large to hold:
at 1024 shards the reference DES emits 10^6+ per-message records per
epoch, and even the batched fastpath's one-span-per-committee stream is
unbounded across a serve loop.  This module provides that layer:

* :class:`LogHistogram` — a fixed-bin log-histogram quantile sketch
  (DDSketch-style): values land in geometrically-spaced bins so p50/p90/p99
  carry a *bounded relative error* (``relative_accuracy``, default 1%),
  sketches from different runs/shards **merge associatively** by adding bin
  counts, and everything is deterministic pure-python integer arithmetic —
  no sampling, no hashing, no numpy arrays on the hot path.
* :class:`MetricsAggregator` — consumes telemetry records one at a time
  (attach it to a hub as a sink, or feed it from
  :func:`repro.obs.sinks.iter_jsonl`) and maintains, keyed by metric name
  and tag: counters with overall + windowed rates, gauges with windowed
  means, and duration/value sketches for spans and histograms.
* :func:`diff_snapshots` — per-metric deltas between two aggregate
  snapshots with configurable regression thresholds; the engine behind
  ``mvcom trace diff`` and the CI trace-regression gate.

Determinism is load-bearing: snapshots iterate series in sorted order and
sketch state serialises as sorted ``[bin, count]`` pairs, so two runs of
the same seed produce byte-identical aggregate JSON regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.telemetry import iter_rows

#: Version marker for aggregate-snapshot JSON files (``mvcom trace
#: metrics --out``); ``trace diff`` accepts these interchangeably with
#: raw JSONL traces.
AGGREGATE_FORMAT = "mvcom-trace-aggregate-v1"

#: Relative error bound of every series' quantile sketch.
RELATIVE_ACCURACY = 0.01

#: Values in each sketched series' recent window (``window_mean``).
WINDOW = 256

#: Record fields promoted to the series tag, first match wins.  ``tag``
#: carries the committee/round identity on ``chain.pbft.round`` spans,
#: ``epoch`` scopes the final-consensus stream, ``kind`` splits
#: ``se.dynamic`` into JOIN/LEAVE series.
TAG_FIELDS = ("tag", "epoch", "kind")

#: Numeric event fields aggregated into derived ``field`` series
#: (``<event>.<field>``), giving the per-round aggregate context the
#: bandit controller consumes without histogramming every event payload.
EVENT_FIELDS: Mapping[str, Tuple[str, ...]] = {
    "se.round": ("best_utility", "current_utility", "transitions"),
    "sim.run": ("events", "pending"),
}


class LogHistogram:
    """Mergeable fixed-bin log-histogram quantile sketch.

    Bin ``i`` covers ``(gamma**(i-1), gamma**i]`` with
    ``gamma = (1 + a) / (1 - a)`` for relative accuracy ``a``; the bin
    midpoint estimate ``2 * gamma**i / (gamma + 1)`` is then within a
    relative error of ``a`` of any value in the bin.  Zeros (and values
    below ``min_positive``) get an exact zero bucket, negatives a mirrored
    store, so the sketch is total over the reals while staying exact about
    sign.  Merging adds bin counts, hence is associative and commutative.
    """

    __slots__ = (
        "relative_accuracy",
        "_log_gamma",
        "_gamma",
        "min_positive",
        "count",
        "total",
        "minimum",
        "maximum",
        "zero_count",
        "_bins",
        "_neg_bins",
    )

    def __init__(self, relative_accuracy: float = 0.01, min_positive: float = 1e-12) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self.min_positive = min_positive
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.zero_count = 0
        self._bins: Dict[int, int] = {}
        self._neg_bins: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def _index(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _estimate(self, index: int) -> float:
        return 2.0 * self._gamma**index / (self._gamma + 1.0)

    def add(self, value: float, count: int = 1) -> None:
        """Fold ``count`` observations of ``value`` into the sketch."""
        value = float(value)
        self.count += count
        self.total += value * count
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if abs(value) < self.min_positive:
            self.zero_count += count
        elif value > 0:
            index = self._index(value)
            self._bins[index] = self._bins.get(index, 0) + count
        else:
            index = self._index(-value)
            self._neg_bins[index] = self._neg_bins.get(index, 0) + count

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this sketch (associative, commutative)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different accuracies: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}"
            )
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.zero_count += other.zero_count
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        for index, count in other._neg_bins.items():
            self._neg_bins[index] = self._neg_bins.get(index, 0) + count

    # ------------------------------------------------------------------ #
    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of what was added.

        Walks negative bins from most- to least-negative, then the zero
        bucket, then positive bins — i.e. cumulative counts in value
        order.  The returned estimate is exact for the zero bucket and for
        the empirical min/max at the extremes, and within
        ``relative_accuracy`` elsewhere.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile fraction must be in [0, 1]")
        if self.count == 0:
            raise ValueError("quantile of an empty sketch")
        rank = q * (self.count - 1)
        target = math.floor(rank) + 1  # 1-based rank of the lower value
        cumulative = 0
        for index in sorted(self._neg_bins, reverse=True):
            cumulative += self._neg_bins[index]
            if cumulative >= target:
                return max(-self._estimate(index), self.minimum)
        cumulative += self.zero_count
        if cumulative >= target:
            return 0.0
        for index in sorted(self._bins):
            cumulative += self._bins[index]
            if cumulative >= target:
                estimate = self._estimate(index)
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum  # floating slack on the last bin

    def quantiles(self, fractions: Sequence[float]) -> List[float]:
        """Vector form of :meth:`quantile`."""
        return [self.quantile(q) for q in fractions]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Deterministic JSON-ready state (bins as sorted pairs)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "zero_count": self.zero_count,
            "bins": [[index, self._bins[index]] for index in sorted(self._bins)],
            "neg_bins": [[index, self._neg_bins[index]] for index in sorted(self._neg_bins)],
        }

    @classmethod
    def from_dict(cls, state: dict) -> "LogHistogram":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sketch = cls(relative_accuracy=state["relative_accuracy"])
        sketch.count = int(state["count"])
        sketch.total = float(state["total"])
        if sketch.count:
            sketch.minimum = float(state["min"])
            sketch.maximum = float(state["max"])
        sketch.zero_count = int(state["zero_count"])
        sketch._bins = {int(i): int(c) for i, c in state["bins"]}
        sketch._neg_bins = {int(i): int(c) for i, c in state["neg_bins"]}
        return sketch


class _Window:
    """Fixed-capacity window with an O(1) running mean."""

    __slots__ = ("_values", "_total")

    def __init__(self, capacity: int) -> None:
        self._values: deque = deque(maxlen=capacity)
        self._total = 0.0

    def add(self, value: float) -> None:
        if len(self._values) == self._values.maxlen:
            self._total -= self._values[0]
        self._values.append(value)
        self._total += value

    @property
    def mean(self) -> Optional[float]:
        if not self._values:
            return None
        return self._total / len(self._values)


class _Series:
    """One (kind, name, tag) stream's running aggregate."""

    __slots__ = ("kind", "name", "tag", "count", "sketch", "window",
                 "first_t", "last_t", "total", "last_value")

    def __init__(self, kind: str, name: str, tag: str) -> None:
        self.kind = kind
        self.name = name
        self.tag = tag
        self.count = 0
        self.sketch = LogHistogram(RELATIVE_ACCURACY) if kind in _SKETCHED_KINDS else None
        self.window = _Window(WINDOW) if self.sketch is not None else None
        self.first_t: Optional[float] = None
        self.last_t: Optional[float] = None
        self.total = 0.0  # counters: sum of increments
        self.last_value: Optional[float] = None

    @property
    def rate(self) -> Optional[float]:
        """Counter increments (or record arrivals) per unit deterministic t."""
        if self.first_t is None or self.last_t is None or self.last_t <= self.first_t:
            return None
        numerator = self.total if self.kind == "counter" else float(self.count)
        return numerator / (self.last_t - self.first_t)

    def stats(self) -> dict:
        """The snapshot row ``mvcom trace metrics``/``diff`` consume."""
        row: Dict[str, object] = {"count": self.count}
        if self.sketch is not None and self.sketch.count:
            sketch = self.sketch
            row.update(
                sum=sketch.total,
                mean=sketch.mean,
                min=sketch.minimum,
                max=sketch.maximum,
                p50=sketch.quantile(0.50),
                p90=sketch.quantile(0.90),
                p99=sketch.quantile(0.99),
            )
            window_mean = self.window.mean
            if window_mean is not None:
                row["window_mean"] = window_mean
        if self.kind == "counter":
            row["total"] = self.total
        if self.kind == "gauge" and self.last_value is not None:
            row["last"] = self.last_value
        rate = self.rate
        if rate is not None:
            row["rate"] = rate
        return row


#: Series kinds that maintain a quantile sketch + window.
_SKETCHED_KINDS = frozenset({"span", "span.wall", "hist", "gauge", "field"})

#: Every series kind the aggregator creates: one per record type, plus
#: the derived ``span.wall`` and ``field`` series.
SERIES_KINDS = ("counter", "event", "field", "gauge", "hist", "span", "span.wall")


def series_key(kind: str, name: str, tag: str = "") -> str:
    """Canonical flat key: ``kind|name`` or ``kind|name|tag``."""
    return f"{kind}|{name}|{tag}" if tag else f"{kind}|{name}"


class MetricsAggregator:
    """Incrementally aggregate telemetry records into keyed metric series.

    Implements the sink protocol (``emit(record)``), so a live hub streams
    straight into it::

        aggregator = MetricsAggregator()
        telemetry = Telemetry(sinks=[JsonlSink(path), aggregator])

    or feed a stored trace without materialising it::

        aggregator = MetricsAggregator.from_jsonl("run.jsonl")

    Series are keyed by record kind, metric name, and a tag promoted from
    the record's fields (:data:`TAG_FIELDS`, first present wins) — e.g. the
    per-committee ``chain.pbft.round`` spans split by their ``tag`` field
    and ``chain.mempool.age_s`` observations by ``epoch``.  Every tagged
    series *also* folds into the untagged parent series, so the cross-tag
    aggregate stays one lookup away.
    """

    def __init__(self) -> None:
        self.records = 0
        self._series: Dict[str, _Series] = {}
        # (type, name, tag) -> compiled record handler; the hub's stream
        # repeats a handful of shapes millions of times, so emit() pays
        # one tuple lookup + one specialised closure per record instead
        # of re-deriving keys and dispatch every time.
        self._handlers: Dict[Tuple, Callable[[dict], None]] = {}

    # ------------------------------------------------------------------ #
    def _get(self, kind: str, name: str, tag: str) -> _Series:
        key = series_key(kind, name, tag)
        series = self._series.get(key)
        if series is None:
            series = _Series(kind, name, tag)
            self._series[key] = series
        return series

    def _targets(self, kind: str, name: str, tag: str) -> Tuple[_Series, ...]:
        if tag:
            return (self._get(kind, name, ""), self._get(kind, name, tag))
        return (self._get(kind, name, ""),)

    def _build_handler(self, kind, name: str, tag: str) -> Callable[[dict], None]:
        """Compile the per-record work for one (type, name, tag) shape."""

        def touch(series: _Series, t, rows: int = 1) -> None:
            series.count += rows
            if t is not None:
                if series.first_t is None:
                    series.first_t = float(t)
                series.last_t = float(t) + (rows - 1)

        if kind == "span":
            spans = self._targets("span", name, tag)
            # Wall series materialise on the first wall_dt: sim-time spans
            # (record_span) never carry one, and a count-0 series would
            # pollute snapshots and diffs.
            walls: List[Tuple[_Series, ...]] = []

            def handle(record: dict) -> None:
                t = record.get("t")
                dt = float(record.get("dt", 0.0))
                for series in spans:
                    touch(series, t)
                    series.sketch.add(dt)
                    series.window.add(dt)
                wall_dt = record.get("wall_dt")
                if wall_dt is not None:
                    if not walls:
                        walls.append(self._targets("span.wall", name, tag))
                    wall_dt = float(wall_dt)
                    for series in walls[0]:
                        touch(series, t)
                        series.sketch.add(wall_dt)
                        series.window.add(wall_dt)

        elif kind in ("hist", "gauge"):
            values = self._targets(kind, name, tag)

            def handle(record: dict) -> None:
                t = record.get("t")
                value = float(record.get("value", 0.0))
                for series in values:
                    touch(series, t)
                    series.sketch.add(value)
                    series.window.add(value)
                    series.last_value = value

        elif kind == "counter":
            counters = self._targets("counter", name, tag)

            def handle(record: dict) -> None:
                t = record.get("t")
                inc = float(record.get("inc", 1.0))
                for series in counters:
                    touch(series, t)
                    series.total += inc

        else:  # event (and anything future-shaped)
            events = self._targets("event", name, tag)
            field_targets = tuple(
                (field, self._targets("field", f"{name}.{field}", tag))
                for field in EVENT_FIELDS.get(name, ())
            )

            def handle(record: dict) -> None:
                t = record.get("t")
                for series in events:
                    touch(series, t, record.get("rows", 1))
                if not field_targets:
                    return
                for row in iter_rows(record):
                    t = row.get("t")
                    for field, targets in field_targets:
                        value = row.get(field)
                        if isinstance(value, (int, float)) and not isinstance(value, bool):
                            value = float(value)
                            for series in targets:
                                touch(series, t)
                                series.sketch.add(value)
                                series.window.add(value)

        return handle

    # ------------------------------------------------------------------ #
    def emit(self, record: dict) -> None:
        """Sink protocol: fold one telemetry record into the aggregate.

        A columnar record (``rows: n``) folds in as its ``n`` rows: it adds
        ``n`` to :attr:`records` and to its series' counts, and its rows
        span ``t .. t + n - 1`` on the deterministic clock.
        """
        self.records += record.get("rows", 1)
        get = record.get
        kind = get("type")
        name = get("name", "?")
        tag = ""
        for field in TAG_FIELDS:
            value = get(field)
            if value is not None:
                tag = f"{field}={value}"
                break
        key = (kind, name, tag)
        handler = self._handlers.get(key)
        if handler is None:
            handler = self._build_handler(kind, name, tag)
            self._handlers[key] = handler
        handler(record)

    def consume(self, records: Iterable[dict]) -> "MetricsAggregator":
        """Fold an iterable of records (one pass, bounded memory)."""
        for record in records:
            self.emit(record)
        return self

    @classmethod
    def from_jsonl(cls, path) -> "MetricsAggregator":
        """Aggregate a stored JSONL trace without loading it whole."""
        from repro.obs.sinks import iter_jsonl

        return cls().consume(iter_jsonl(path))

    # ------------------------------------------------------------------ #
    def series(self, kind: str, name: str, tag: str = "") -> Optional[_Series]:
        """Look up one series; ``None`` when nothing matched it yet."""
        return self._series.get(series_key(kind, name, tag))

    def find_series(self, name: str, tag: str = "") -> List[_Series]:
        """All series for a metric name (any kind), optionally one tag."""
        return [
            series
            for key in sorted(self._series)
            for series in (self._series[key],)
            if series.name == name and (not tag or series.tag == tag)
        ]

    def snapshot(self) -> dict:
        """Deterministic aggregate view: sorted series keys -> stat rows."""
        return {
            "format": AGGREGATE_FORMAT,
            "records": self.records,
            "relative_accuracy": RELATIVE_ACCURACY,
            "series": {
                key: self._series[key].stats() for key in sorted(self._series)
            },
        }

    def write_snapshot(self, path) -> dict:
        """Write the snapshot as canonical aggregate JSON; returns it."""
        snapshot = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return snapshot


# ---------------------------------------------------------------------- #
# cross-run comparison (``mvcom trace diff``)
# ---------------------------------------------------------------------- #

#: Series name prefixes whose *values* are machine-dependent and therefore
#: excluded from regression comparison (their record counts still gate
#: through the untagged ``event`` series totals).
DIFF_EXCLUDE = ("obs.resources", "profile.")

#: Stats compared per series, in report order.
DIFF_STATS = ("count", "total", "sum", "mean", "p50", "p90", "p99", "rate")


def load_aggregate(path) -> dict:
    """Load either an aggregate snapshot JSON or a raw JSONL trace.

    ``.jsonl`` paths stream through :class:`MetricsAggregator`; anything
    else is first tried as a single aggregate-JSON document (recognised by
    its ``format`` marker) before falling back to JSONL streaming.
    """
    text_path = str(path)
    if not text_path.endswith(".jsonl"):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError):
            document = None
        if isinstance(document, dict) and document.get("format") == AGGREGATE_FORMAT:
            return document
    return MetricsAggregator.from_jsonl(path).snapshot()


def diff_snapshots(
    baseline: dict,
    candidate: dict,
    threshold: float = 0.0,
    include_wall: bool = False,
) -> Tuple[List[dict], List[dict]]:
    """Per-metric deltas between two aggregate snapshots.

    Returns ``(rows, breaches)``: every compared stat as a row
    (``series``/``stat``/``baseline``/``candidate``/``delta_pct``), and the
    subset whose relative delta exceeds ``threshold`` (percent) — plus a
    breach row for any series present on only one side.  Wall-clock series
    (``span.wall``) are skipped unless ``include_wall`` asks for them, and
    :data:`DIFF_EXCLUDE`-prefixed names always are, so identical-seed runs
    on different machines still diff clean.
    """
    a_series: Mapping[str, dict] = baseline.get("series", {})
    b_series: Mapping[str, dict] = candidate.get("series", {})
    rows: List[dict] = []
    breaches: List[dict] = []

    def comparable(key: str) -> bool:
        kind, _, rest = key.partition("|")
        name = rest.partition("|")[0]
        if not include_wall and kind == "span.wall":
            return False
        return not name.startswith(DIFF_EXCLUDE)

    for key in sorted(set(a_series) | set(b_series)):
        if not comparable(key):
            continue
        left, right = a_series.get(key), b_series.get(key)
        if left is None or right is None:
            row = {
                "series": key,
                "stat": "presence",
                "baseline": "present" if left is not None else "missing",
                "candidate": "present" if right is not None else "missing",
                "delta_pct": math.inf,
            }
            rows.append(row)
            breaches.append(row)
            continue
        for stat in DIFF_STATS:
            if stat not in left and stat not in right:
                continue
            a_value = float(left.get(stat, 0.0))
            b_value = float(right.get(stat, 0.0))
            scale = max(abs(a_value), abs(b_value))
            delta_pct = 0.0 if scale == 0.0 else 100.0 * abs(b_value - a_value) / scale
            row = {
                "series": key,
                "stat": stat,
                "baseline": a_value,
                "candidate": b_value,
                "delta_pct": delta_pct,
            }
            rows.append(row)
            if delta_pct > threshold:
                breaches.append(row)
    return rows, breaches
