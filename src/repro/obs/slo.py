"""Declarative SLO specs evaluated online against the metrics aggregator.

The ROADMAP's service loop (item 3) and the stability framing of *Stable
Blockchain Sharding under Adversarial Transaction Generation* (arXiv
2404.04438) both want queue growth, age percentiles, and per-committee
latency treated as *tracked objectives with explicit thresholds*, not
after-the-fact CSV columns.  An SLO here is one of three checks against a
:class:`~repro.obs.metrics.MetricsAggregator` series:

``max_p99``
    Sketch p99 of a span/hist/field series must stay at or below the
    threshold (e.g. ``chain.mempool.age_s`` p99 vs the paper's
    cumulative-age objective, or per-committee ``chain.pbft.round`` p99).
``max_rate``
    Counter/event arrivals per unit deterministic time must stay at or
    below the threshold (e.g. ``se.reset_broadcasts`` churn).
``monotone_budget``
    A numeric record field may decrease at most ``budget`` times over the
    run (e.g. ``se.round``'s ``best_utility`` is monotone except across
    dynamic join/leave boundaries, so a small budget tolerates exactly
    those resets).

The shipped objectives are the module constant :data:`SLO_SPECS`, so every
run evaluates the same five specs wherever it is started; tests and
callers with other objectives construct :class:`SloSpec` lists directly.
:class:`SloTracker` implements the sink protocol: attach it to the hub
*after* its aggregator and it evaluates periodically, emitting
``slo.violation`` events back into the same stream — so violations land in
the very trace being recorded, and ``mvcom trace metrics --slo`` can
re-evaluate any stored trace offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.metrics import SERIES_KINDS, TAG_FIELDS, MetricsAggregator, series_key
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry, iter_rows

# Events that mark the start of a fresh SE solve on a shared hub; monotone
# SLO baselines reset here so per-solve invariants don't alias across the
# serve loop's epochs.
SOLVE_BOUNDARY_EVENTS = frozenset({"se.bootstrap", "se.warm_start"})

#: The three supported check kinds.
SLO_KINDS = ("max_p99", "max_rate", "monotone_budget")


class SloSpecError(ValueError):
    """Raised for a malformed SLO spec (unknown kind, missing metric...)."""


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective: a check kind plus its threshold."""

    name: str
    metric: str
    kind: str
    threshold: float
    tag: str = ""
    field: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise SloSpecError(
                f"SLO {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(SLO_KINDS)})"
            )
        if not self.metric:
            raise SloSpecError(f"SLO {self.name!r}: 'metric' is required")
        if self.kind == "monotone_budget" and not self.field:
            raise SloSpecError(
                f"SLO {self.name!r}: monotone_budget needs a 'field' to watch"
            )


#: The SLOs ``mvcom serve`` and ``mvcom trace metrics --slo`` evaluate, in
#: name order: :class:`SloTracker` emits ``slo.violation`` events in spec
#: order, so this order is part of the trace bytes.
SLO_SPECS: Tuple[SloSpec, ...] = (
    # Best-so-far utility is monotone in a static epoch; any decrease is a
    # solver regression (dynamic join/leave runs would raise the budget).
    SloSpec(name="best-utility-monotone", metric="se.round",
            kind="monotone_budget", threshold=0.0, field="best_utility"),
    # The paper's objective maximises committee value = aged transaction
    # mass cleared per final block; its flip side is that no admitted
    # transaction should wait pathologically long.  Gate the p99 of the
    # mempool-age observations emitted at final commit (see EXPERIMENTS.md).
    SloSpec(name="mempool-age-p99", metric="chain.mempool.age_s",
            kind="max_p99", threshold=30.0),
    # Per-committee PBFT round duration (sim seconds): ~2x the calibrated
    # 54.5 s consensus mean -- the two-phase pipeline budget from Fig. 2.
    SloSpec(name="pbft-round-p99", metric="chain.pbft.round",
            kind="max_p99", threshold=120.0),
    # RESET broadcasts per unit deterministic time; runaway churn means the
    # SE executors are thrashing instead of converging.
    SloSpec(name="reset-churn", metric="se.reset_broadcasts",
            kind="max_rate", threshold=2.0),
    # Per-epoch decision latency of the `mvcom serve` steady-state loop
    # (wall seconds per solve).  Generous by design: the gate catches a
    # pathological regression (a solve hanging for a minute), not
    # machine-to-machine noise.
    SloSpec(name="serve-decision-p99", metric="serve.decision_latency_s",
            kind="max_p99", threshold=60.0),
)


def _gated_series(spec: SloSpec) -> List[Tuple[str, str]]:
    """The ``(kind, tag)`` series a spec gates, in sorted key order.

    An untagged spec gates the cross-tag aggregate series; a tagged one
    accepts the promoted ``field=value`` form or the bare value.  The
    tracker looks these up directly, so an evaluation costs the same
    however many tagged series (one per serve epoch) the aggregator holds.
    """
    tags = {""} if not spec.tag else {spec.tag}.union(
        f"{field}={spec.tag}" for field in TAG_FIELDS
    )
    return sorted(
        ((kind, tag) for kind in SERIES_KINDS for tag in tags),
        key=lambda pair: series_key(pair[0], spec.metric, pair[1]),
    )


class SloTracker:
    """Evaluate SLO specs online against an aggregator-fed record stream.

    Sink protocol: attach to the hub *after* the aggregator so each record
    is aggregated before the tracker sees it.  Quantile/rate specs are
    re-checked every ``check_interval`` rows (they only move with the
    aggregate; a columnar record counts its ``rows``); monotone specs
    update on every matching row.  Each spec's *first* breach emits one
    ``slo.violation`` event into ``telemetry`` — the same stream being
    recorded — and is remembered in :attr:`violations`; :meth:`check`
    forces a final evaluation (call it at close, or after an offline
    :meth:`consume`).
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        aggregator: MetricsAggregator,
        telemetry: NullTelemetry = NULL_TELEMETRY,
        check_interval: int = 256,
    ) -> None:
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.specs = list(specs)
        self.aggregator = aggregator
        self.telemetry = telemetry
        self.check_interval = check_interval
        self.violations: List[dict] = []
        self._breached: Dict[str, dict] = {}
        self._monotone_last: Dict[str, float] = {}
        self._monotone_drops: Dict[str, int] = {}
        self._records = 0
        self._emitting = False
        self._gated = {spec: _gated_series(spec) for spec in self.specs}

    # ------------------------------------------------------------------ #
    def emit(self, record: dict) -> None:
        """Sink protocol: track one record, evaluating periodically."""
        if self._emitting:
            return  # our own slo.violation echoing back through the hub
        before = self._records
        self._records += record.get("rows", 1)
        name = record.get("name")
        if name in SOLVE_BOUNDARY_EVENTS:
            # A new solve began (the serve loop runs many per process):
            # monotone invariants hold *within* one solve, so the
            # baselines restart rather than comparing across epochs.
            self._monotone_last.clear()
        for spec in self.specs:
            if spec.kind == "monotone_budget" and spec.metric == name:
                for row in iter_rows(record):
                    self._track_monotone(spec, row)
        # A columnar record can step over a multiple of the interval, so
        # evaluate on crossing one rather than on landing on it.
        if self._records // self.check_interval > before // self.check_interval:
            self._evaluate()

    def consume(self, records: Iterable[dict]) -> List[dict]:
        """Offline form: track a stored stream, then run a final check."""
        for record in records:
            self.emit(record)
        return self.check()

    def check(self) -> List[dict]:
        """Force a full evaluation; returns all violations seen so far."""
        self._evaluate()
        return list(self.violations)

    # ------------------------------------------------------------------ #
    def _track_monotone(self, spec: SloSpec, record: dict) -> None:
        value = record.get(spec.field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        value = float(value)
        last = self._monotone_last.get(spec.name)
        self._monotone_last[spec.name] = value
        if last is not None and value < last:
            drops = self._monotone_drops.get(spec.name, 0) + 1
            self._monotone_drops[spec.name] = drops
            if drops > spec.threshold:
                self._breach(spec, observed=float(drops),
                             detail=f"{spec.metric}.{spec.field} decreased")

    def _evaluate(self) -> None:
        for spec in self.specs:
            if spec.name in self._breached:
                continue
            if spec.kind == "max_p99":
                self._check_quantile(spec)
            elif spec.kind == "max_rate":
                self._check_rate(spec)
            # monotone_budget breaches fire inline in _track_monotone

    def _check_quantile(self, spec: SloSpec) -> None:
        for kind, tag in self._gated[spec]:
            series = self.aggregator.series(kind, spec.metric, tag)
            if series is None or series.sketch is None or not series.sketch.count:
                continue
            p99 = series.sketch.quantile(0.99)
            if p99 > spec.threshold:
                self._breach(spec, observed=p99, series_tag=series.tag)
                return

    def _check_rate(self, spec: SloSpec) -> None:
        for kind, tag in self._gated[spec]:
            if kind not in ("counter", "event"):
                continue
            series = self.aggregator.series(kind, spec.metric, tag)
            if series is None:
                continue
            rate = series.rate
            if rate is not None and rate > spec.threshold:
                self._breach(spec, observed=rate, series_tag=series.tag)
                return

    def _breach(self, spec: SloSpec, observed: float,
                series_tag: str = "", detail: str = "") -> None:
        if spec.name in self._breached:
            return
        violation = {
            "slo": spec.name,
            "metric": spec.metric,
            "kind": spec.kind,
            "threshold": spec.threshold,
            "observed": observed,
        }
        if series_tag:
            violation["tag"] = series_tag
        if detail:
            violation["detail"] = detail
        self._breached[spec.name] = violation
        self.violations.append(violation)
        if self.telemetry.enabled:
            self._emitting = True
            try:
                self.telemetry.event("slo.violation", **violation)
            finally:
                self._emitting = False
