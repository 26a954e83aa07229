"""``repro.obs`` -- runtime observability for the MVCom reproduction.

* :mod:`repro.obs.telemetry` -- the hub: counters, gauges, histograms and
  nested spans stamped with the emission sequence (plus an injectable wall
  clock), with a no-op :data:`~repro.obs.telemetry.NULL_TELEMETRY`
  default; it fans records out and keeps no aggregate of its own;
* :mod:`repro.obs.sinks` -- JSONL stream + in-memory ring buffer, with
  streaming (:func:`~repro.obs.sinks.iter_jsonl`) and list
  (:func:`~repro.obs.sinks.read_jsonl`) readers;
* :mod:`repro.obs.metrics` -- streaming :class:`MetricsAggregator` over
  the record stream, the one aggregate every report reads:
  counters/rates, windowed means, and mergeable log-histogram p50/p90/p99
  sketches keyed by metric name and tag;
* :mod:`repro.obs.slo` -- declarative SLO specs (``max_p99``,
  ``max_rate``, ``monotone_budget``) evaluated online against the
  aggregator, emitting ``slo.violation`` back into the stream (imported
  lazily by consumers; not re-exported here);
* :mod:`repro.obs.export` -- byte-deterministic Perfetto ``trace_event``
  and OpenMetrics textfile exporters (imported lazily; not re-exported);
* :mod:`repro.obs.profiling` -- cProfile hook emitting top-N hotspots into
  the same stream;
* :mod:`repro.obs.summary` -- the ``mvcom trace summary`` text report,
  built from one :class:`MetricsAggregator` snapshot (imported lazily by the CLI; not re-exported here to keep this package
  import-light for the instrumented hot paths).

Instrumented packages (``repro/{core,sim,chain,baselines}``) accept a
``telemetry`` parameter defaulting to ``NULL_TELEMETRY`` and never
construct hubs or sinks themselves -- lint rule MV007 enforces this, and
since only the harness injects a wall clock, MV102 (no wall-clock) holds.
"""

from repro.obs.metrics import LogHistogram, MetricsAggregator
from repro.obs.profiling import hotspot_rows, profile_call
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceDecodeError, iter_jsonl, read_jsonl
from repro.obs.telemetry import NULL_TELEMETRY, Clock, NullTelemetry, Telemetry

__all__ = [
    "Clock",
    "JsonlSink",
    "LogHistogram",
    "MetricsAggregator",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "RingBufferSink",
    "Telemetry",
    "TraceDecodeError",
    "hotspot_rows",
    "iter_jsonl",
    "profile_call",
    "read_jsonl",
]
