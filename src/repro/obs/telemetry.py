"""Structured runtime telemetry: counters, gauges, histograms, and spans.

The paper's headline claims are all *trajectories* -- SE convergence versus
the parallel thread count Γ (Fig. 8), recovery after dynamic join/leave
(Figs. 9/14), two-phase latency spread (Fig. 2) -- so the reproduction needs
a first-class event stream from its hot paths, not print statements.  This
module provides the hub those paths emit into.

Design constraints, in order:

1. **Determinism is sacred.**  Instrumented code in
   ``repro/{core,sim,chain,baselines}`` must stay byte-replayable under a
   fixed seed, so the hub never owns a clock: the *deterministic* timestamp
   comes from an injectable ``clock`` callable (simulation virtual time, an
   iteration counter, or -- the default -- the hub's own emission sequence
   number), and the optional *wall* timestamp comes from an injectable
   ``wall_clock`` that only the harness supplies.  Lint rule MV102 (no
   wall-clock in replayable packages) keeps holding, and rule MV007
   enforces that those packages receive the hub as a parameter rather than
   constructing one.
2. **Un-instrumented runs pay near zero.**  The default hub is the
   :data:`NULL_TELEMETRY` singleton whose methods are no-ops and whose
   ``enabled`` flag lets hot loops skip even argument construction::

       if telemetry.enabled:
           telemetry.event("se.transition", iteration=k, utility=u)

3. **One record shape everywhere.**  Every emission is a flat dict with the
   reserved keys ``seq`` (emission index), ``t`` (deterministic time),
   ``wall`` (only when a wall clock is injected), ``type`` (``event`` /
   ``counter`` / ``gauge`` / ``hist`` / ``span``) and ``name``; all other
   keys are caller-supplied fields.  Sinks (:mod:`repro.obs.sinks`) decide
   whether records land in a JSONL stream, a ring buffer, or both.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

#: A timestamp source: any zero-argument callable returning a float.
Clock = Callable[[], float]

#: Record keys owned by the hub; caller fields must not collide with them.
RESERVED_KEYS = ("seq", "t", "wall", "type", "name")


class NullSpan:
    """Context-manager stand-in for a span when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = NullSpan()


class NullTelemetry:
    """The do-nothing hub every instrumented call site defaults to.

    All emitters are no-ops and :attr:`enabled` is ``False``, so the only
    cost an un-instrumented run pays is a truthiness check (and even that is
    usually hoisted out of hot loops).  :class:`Telemetry` subclasses this,
    which doubles as the type annotation for injected telemetry parameters.
    """

    enabled: bool = False
    __slots__ = ()

    # ------------------------------------------------------------------ #
    # emitters (all no-ops here)
    # ------------------------------------------------------------------ #
    def event(self, name: str, **fields) -> None:
        """Emit a point-in-time structured event."""

    def count(self, name: str, value: float = 1, **fields) -> None:
        """Increment the counter ``name`` by ``value``."""

    def gauge(self, name: str, value: float, **fields) -> None:
        """Set the gauge ``name`` to ``value``."""

    def observe(self, name: str, value: float, **fields) -> None:
        """Record one observation into the histogram ``name``."""

    def span(self, name: str, **fields):
        """Open a (nestable) span; use as a context manager."""
        return _NULL_SPAN

    def record_span(self, name: str, start: float, end: float, **fields) -> None:
        """Record an externally-timed span (e.g. PBFT commit on sim time)."""

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Aggregated view: counters, gauges, histogram and span stats."""
        return {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}, "emitted": 0}

    def close(self) -> None:
        """Flush and close owned sinks (no-op here)."""


#: Shared no-op hub; the default value of every ``telemetry`` parameter.
NULL_TELEMETRY = NullTelemetry()


class _SpanHandle:
    """One open span; emits its record (and aggregates) on exit."""

    __slots__ = ("_hub", "name", "fields", "_t0", "_w0")

    def __init__(self, hub: "Telemetry", name: str, fields: dict) -> None:
        self._hub = hub
        self.name = name
        self.fields = fields
        self._t0 = 0.0
        self._w0: Optional[float] = None

    def __enter__(self) -> "_SpanHandle":
        self._t0 = self._hub._now()
        if self._hub._wall_clock is not None:
            self._w0 = self._hub._wall_clock()
        self._hub._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._hub._stack.pop()
        t1 = self._hub._now()
        wall_dt = None
        if self._w0 is not None and self._hub._wall_clock is not None:
            wall_dt = self._hub._wall_clock() - self._w0
        fields = dict(self.fields)
        if exc_type is not None:
            fields["status"] = "error"
        self._hub._emit_span(self.name, self._t0, t1, wall_dt, fields)
        return False


class _HistogramAggregate:
    """Running count/sum/min/max of one histogram stream."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def stats(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class Telemetry(NullTelemetry):
    """The recording hub: aggregates in memory and fans records to sinks.

    Parameters
    ----------
    clock:
        Deterministic timestamp source for the ``t`` field.  ``None`` (the
        default) stamps records with their own emission sequence number,
        which is reproducible under a fixed seed by construction.  Pass the
        simulation clock (``lambda: engine.now``) to put records on virtual
        time.
    wall_clock:
        Optional real-time source (e.g. ``time.perf_counter``) adding a
        ``wall`` field to every record and wall durations to spans.  Only
        the harness should supply this; replayable packages must not.
    sinks:
        Objects with an ``emit(record: dict)`` method (see
        :mod:`repro.obs.sinks`).  Records are delivered in emission order.
    """

    enabled = True
    __slots__ = (
        "_clock",
        "_wall_clock",
        "_sinks",
        "_seq",
        "_stack",
        "_counters",
        "_gauges",
        "_histograms",
        "_spans",
    )

    def __init__(
        self,
        clock: Optional[Clock] = None,
        wall_clock: Optional[Clock] = None,
        sinks: Optional[Sequence] = None,
    ) -> None:
        self._clock = clock
        self._wall_clock = wall_clock
        self._sinks: List = list(sinks) if sinks is not None else []
        self._seq = 0
        self._stack: List[_SpanHandle] = []
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _HistogramAggregate] = {}
        self._spans: Dict[str, dict] = {}

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def add_sink(self, sink) -> None:
        """Attach one more sink; it sees records emitted from now on."""
        self._sinks.append(sink)

    @property
    def sinks(self) -> tuple:
        """The attached sinks, in fan-out order (read-only view)."""
        return tuple(self._sinks)

    def _now(self) -> float:
        return self._clock() if self._clock is not None else float(self._seq)

    def _emit(self, record: dict) -> None:
        self._seq += 1
        record["seq"] = self._seq
        if self._wall_clock is not None:
            record["wall"] = self._wall_clock()
        for sink in self._sinks:
            sink.emit(record)

    def _emit_span(
        self,
        name: str,
        start: float,
        end: float,
        wall_dt: Optional[float],
        fields: dict,
    ) -> None:
        aggregate = self._spans.setdefault(
            name, {"count": 0, "total_dt": 0.0, "total_wall_s": 0.0}
        )
        aggregate["count"] += 1
        aggregate["total_dt"] += end - start
        if wall_dt is not None:
            aggregate["total_wall_s"] += wall_dt
        record = {
            "t": end,
            "type": "span",
            "name": name,
            "t0": float(start),
            "t1": float(end),
            "dt": float(end - start),
            "depth": len(self._stack),
        }
        if wall_dt is not None:
            record["wall_dt"] = wall_dt
        record.update(fields)
        self._emit(record)

    # ------------------------------------------------------------------ #
    # emitters
    # ------------------------------------------------------------------ #
    def event(self, name: str, **fields) -> None:
        """Emit a point-in-time structured event carrying ``fields``."""
        record = {"t": self._now(), "type": "event", "name": name}
        record.update(fields)
        self._emit(record)

    def count(self, name: str, value: float = 1, **fields) -> None:
        """Increment counter ``name``; the record carries the running total."""
        total = self._counters.get(name, 0) + value
        self._counters[name] = total
        record = {"t": self._now(), "type": "counter", "name": name, "inc": value, "total": total}
        record.update(fields)
        self._emit(record)

    def gauge(self, name: str, value: float, **fields) -> None:
        """Set gauge ``name`` to ``value`` (last write wins in the snapshot)."""
        self._gauges[name] = float(value)
        record = {"t": self._now(), "type": "gauge", "name": name, "value": float(value)}
        record.update(fields)
        self._emit(record)

    def observe(self, name: str, value: float, **fields) -> None:
        """Add one observation to histogram ``name``."""
        self._histograms.setdefault(name, _HistogramAggregate()).add(float(value))
        record = {"t": self._now(), "type": "hist", "name": name, "value": float(value)}
        record.update(fields)
        self._emit(record)

    def span(self, name: str, **fields):
        """Open a nested span; emits one ``span`` record when it exits."""
        return _SpanHandle(self, name, fields)

    def record_span(self, name: str, start: float, end: float, **fields) -> None:
        """Record a span timed by the caller (both stamps on the caller's clock).

        This is how simulation-time phases (a PBFT round from ``start_time``
        to commit) land in the stream without the hub owning their clock.
        """
        self._emit_span(name, float(start), float(end), None, fields)

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Aggregated counters/gauges/histograms/spans plus the emission count."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {name: agg.stats() for name, agg in self._histograms.items()},
            "spans": {name: dict(agg) for name, agg in self._spans.items()},
            "emitted": self._seq,
        }

    def close(self) -> None:
        """Flush/close every sink that supports it."""
        for sink in self._sinks:
            closer = getattr(sink, "close", None)
            if closer is not None:
                closer()
