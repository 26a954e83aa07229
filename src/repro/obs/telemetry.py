"""Structured runtime telemetry: counters, gauges, histograms, and spans.

The paper's headline claims are all *trajectories* -- SE convergence versus
the parallel thread count Γ (Fig. 8), recovery after dynamic join/leave
(Figs. 9/14), two-phase latency spread (Fig. 2) -- so the reproduction needs
a first-class event stream from its hot paths, not print statements.  This
module provides the hub those paths emit into.

Design constraints, in order:

1. **Determinism is sacred.**  Instrumented code in
   ``repro/{core,sim,chain,baselines}`` must stay byte-replayable under a
   fixed seed, so the hub never owns a clock: the *deterministic* ``t``
   stamp is the hub's own emission sequence number (or, for
   :meth:`Telemetry.record_span`, the caller's simulation-time stamps), and
   the optional *wall* timestamp comes from an injectable ``wall_clock``
   that only the harness supplies.  Lint rule MV102 (no wall-clock in
   replayable packages) keeps holding, and rule MV007 enforces that those
   packages receive the hub as a parameter rather than constructing one.
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
4. **The hub keeps no aggregate.**  Aggregation is the job of
   :class:`repro.obs.metrics.MetricsAggregator`, attached as a sink.  The
   only state the hub carries per name is each counter's running total,
   which every ``counter`` record reports as its ``total`` field.
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

    def close(self) -> None:
        """Flush and close owned sinks (no-op here)."""


#: Shared no-op hub; the default value of every ``telemetry`` parameter.
NULL_TELEMETRY = NullTelemetry()


class _SpanHandle:
    """One open span; emits its record on exit.

    After exit, :attr:`wall_dt` holds the span's wall duration (``None``
    when the hub has no wall clock), so a caller can reuse the span's
    measurement instead of running a second stopwatch over it.
    """

    __slots__ = ("_hub", "name", "fields", "_t0", "_w0", "wall_dt")

    def __init__(self, hub: "Telemetry", name: str, fields: dict) -> None:
        self._hub = hub
        self.name = name
        self.fields = fields
        self._t0 = 0.0
        self._w0: Optional[float] = None
        self.wall_dt: Optional[float] = None

    def __enter__(self) -> "_SpanHandle":
        self._t0 = self._hub._now()
        if self._hub._wall_clock is not None:
            self._w0 = self._hub._wall_clock()
        self._hub._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._hub._stack.pop()
        t1 = self._hub._now()
        if self._w0 is not None:
            self.wall_dt = self._hub._wall_clock() - self._w0
        fields = dict(self.fields)
        if exc_type is not None:
            fields["status"] = "error"
        self._hub._emit_span(self.name, self._t0, t1, self.wall_dt, fields)
        return False


class Telemetry(NullTelemetry):
    """The recording hub: stamps records and fans them out to sinks.

    Every record's ``t`` is the hub's emission sequence number at the time
    of the call, which is reproducible under a fixed seed by construction;
    :meth:`record_span` keeps the caller's own start/end stamps instead.

    Parameters
    ----------
    wall_clock:
        Optional real-time source (e.g. ``time.perf_counter``) adding a
        ``wall`` field to every record and wall durations to spans.  Only
        the harness should supply this; replayable packages must not.
    sinks:
        Objects with an ``emit(record: dict)`` method (see
        :mod:`repro.obs.sinks`).  Records are delivered in emission order.
    """

    enabled = True
    __slots__ = ("_wall_clock", "_sinks", "_seq", "_stack", "_counters")

    def __init__(
        self,
        wall_clock: Optional[Clock] = None,
        sinks: Optional[Sequence] = None,
    ) -> None:
        self._wall_clock = wall_clock
        self._sinks: List = list(sinks) if sinks is not None else []
        self._seq = 0
        self._stack: List[_SpanHandle] = []
        self._counters: Dict[str, float] = {}

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
        return float(self._seq)

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
        """Set gauge ``name`` to ``value``."""
        record = {"t": self._now(), "type": "gauge", "name": name, "value": float(value)}
        record.update(fields)
        self._emit(record)

    def observe(self, name: str, value: float, **fields) -> None:
        """Add one observation to histogram ``name``."""
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

    def close(self) -> None:
        """Flush/close every sink that supports it."""
        for sink in self._sinks:
            closer = getattr(sink, "close", None)
            if closer is not None:
                closer()
