"""Storm execution: run, classify, shrink, serialise, replay.

:func:`run_storm` batters one SE solve with a generated (or replayed) event
schedule under armed invariants and classifies the outcome:

* ``"survived"`` — the run completed and every armed invariant held;
* ``"violated"`` — an armed invariant raised
  :class:`repro.faultinject.invariants.StormInvariantViolation`;
* ``"infeasible"`` — the storm legitimately emptied the epoch
  (:class:`repro.core.se.InfeasibleEpochError`), which is *graceful
  degradation*, not a bug: an epoch with no committees has nothing to
  schedule.

A violated outcome shrinks (:func:`shrink_storm`) to a 1-minimal schedule
with the same failure signature and serialises as a replayable JSON
reproducer — :func:`replay_reproducer` reruns it bit-for-bit from the
stored seed, so a CI artifact is a complete bug report.

:func:`run_epoch_storm` runs the same storms *through the chain epoch
loop* (:class:`repro.core.pipeline.MultiEpochScheduler`): each epoch's SE
solve faces its own storm slice, and the surviving selection is projected
back onto the pipeline's candidate set by stable shard id (committees that
joined mid-storm are unknown to the pipeline and drop out; committees that
left are simply refused and carry over per Fig. 3).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.pipeline import MultiEpochScheduler, PipelineResult
from repro.core.problem import EpochInstance
from repro.core.se import InfeasibleEpochError, SEConfig, SEResult, StochasticExploration
from repro.data.workload import (
    WorkloadConfig,
    arrived_shards,
    generate_epoch_workload,
    multi_epoch_workloads,
)
from repro.faultinject.invariants import (
    DEFAULT_INVARIANTS,
    StormInvariantViolation,
    StormProbe,
    check_trace_monotone,
)
from repro.faultinject.shrink import shrink_events
from repro.faultinject.storm import StormConfig, generate_storm
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams, derive_seed

#: What :func:`run_storm` arms when the caller does not choose: the
#: event-boundary invariants plus the post-hoc trace check.
DEFAULT_ARMED = DEFAULT_INVARIANTS + ("trace-monotone",)

#: On-disk format tag for reproducer files.
REPRODUCER_FORMAT = "mvcom-storm-reproducer-v1"


@dataclass
class StormOutcome:
    """One storm run, classified."""

    status: str  # "survived" | "violated" | "infeasible"
    config: StormConfig
    armed: Tuple[str, ...]
    events: List[CommitteeEvent]
    result: Optional[SEResult] = None
    violation: Optional[StormInvariantViolation] = None
    infeasible_reason: Optional[str] = None
    boundaries: List[int] = field(default_factory=list)
    checks_run: int = 0
    theorem2_checked: int = 0

    @property
    def survived(self) -> bool:
        """True when the run completed with every armed invariant intact."""
        return self.status == "survived"

    @property
    def signature(self) -> Optional[str]:
        """The violated invariant's name (None unless status is violated)."""
        return self.violation.invariant if self.violation is not None else None


def storm_workload_config(config: StormConfig) -> WorkloadConfig:
    """The workload a storm batters (paper trace, storm-sized).

    ``capacity=None`` applies the paper's scaling :math:`\\hat C = 1000\\,
    |I_j|` (Section VI-A) so storm instances stay properly oversubscribed at
    any committee count.
    """
    capacity = config.capacity if config.capacity is not None else 1_000 * config.num_committees
    return WorkloadConfig(
        num_committees=config.num_committees,
        capacity=capacity,
        alpha=config.alpha,
        seed=config.seed,
    )


def build_storm_instance(config: StormConfig) -> EpochInstance:
    """The bootstrap epoch instance for one storm run."""
    return generate_epoch_workload(storm_workload_config(config)).instance


def _solver(
    config: StormConfig,
    telemetry: NullTelemetry,
    seed: Optional[int] = None,
    engine: str = "serial",
) -> StochasticExploration:
    se_config = SEConfig(
        num_threads=config.gamma,
        max_iterations=config.max_iterations,
        convergence_window=config.convergence_window,
        seed=config.seed if seed is None else seed,
        engine=engine,
    )
    return StochasticExploration(se_config, telemetry=telemetry)


def run_storm(
    config: StormConfig,
    events: Optional[Sequence[CommitteeEvent]] = None,
    armed: Optional[Sequence[str]] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
    engine: str = "serial",
) -> StormOutcome:
    """Run one storm against one SE solve and classify the outcome.

    Deterministic given ``config`` (and ``events`` when replaying): the
    instance, the event schedule and the solver all derive from
    ``config.seed`` through named streams, so one seed is one storm
    forever — the property the replay / shrink machinery builds on.
    ``engine`` selects the SE execution engine (:mod:`repro.core.engine`);
    probes fire at event boundaries on every engine.
    """
    armed = tuple(armed) if armed is not None else DEFAULT_ARMED
    instance = build_storm_instance(config)
    if events is None:
        events = generate_storm(instance, config, RandomStreams(config.seed))
    events = list(events)

    solver = _solver(config, telemetry, engine=engine)
    probe = StormProbe(solver, instance, armed=armed, telemetry=telemetry)
    schedule = DynamicSchedule(events=list(events))

    outcome = StormOutcome(status="survived", config=config, armed=armed, events=events)
    try:
        result = solver.solve(instance, schedule=schedule, probe=probe)
        if "trace-monotone" in armed:
            check_trace_monotone(result.utility_trace, probe.boundaries)
        outcome.result = result
    except StormInvariantViolation as violation:
        outcome.status = "violated"
        outcome.violation = violation
    except InfeasibleEpochError as exc:
        outcome.status = "infeasible"
        outcome.infeasible_reason = str(exc)
    outcome.boundaries = list(probe.boundaries)
    outcome.checks_run = probe.checks_run
    outcome.theorem2_checked = probe.theorem2_checked

    if telemetry.enabled:
        telemetry.event(
            "storm.run",
            status=outcome.status,
            seed=config.seed,
            events=len(events),
            boundaries=len(outcome.boundaries),
            checks_run=outcome.checks_run,
            theorem2_checked=outcome.theorem2_checked,
            invariant=outcome.signature,
            iterations=outcome.result.iterations if outcome.result else None,
        )
    return outcome


def shrink_storm(
    outcome: StormOutcome,
    max_probes: int = 10_000,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> Tuple[List[CommitteeEvent], int]:
    """Shrink a violated outcome's schedule to a 1-minimal reproducer.

    The oracle replays each candidate through :func:`run_storm` (same
    config, same armed set) and matches on the failure *signature* — the
    violated invariant's name — because event deletion shifts boundary
    iterations without changing which contract breaks.
    """
    if outcome.status != "violated" or outcome.violation is None:
        raise ValueError("only violated outcomes can be shrunk")
    signature = outcome.violation.invariant

    def still_fails(candidate: List[CommitteeEvent]) -> bool:
        replayed = run_storm(outcome.config, events=candidate, armed=outcome.armed)
        return replayed.status == "violated" and replayed.signature == signature

    minimal, probes = shrink_events(outcome.events, still_fails, max_probes=max_probes)
    if telemetry.enabled:
        telemetry.event(
            "storm.shrink",
            invariant=signature,
            events_before=len(outcome.events),
            events_after=len(minimal),
            probes=probes,
        )
    return minimal, probes


# ---------------------------------------------------------------------- #
# reproducer serialisation
# ---------------------------------------------------------------------- #
def event_to_json(event: CommitteeEvent) -> Dict:
    """One event as a JSON-safe dict (kind stored by enum value)."""
    payload: Dict = {
        "iteration": int(event.iteration),
        "kind": event.kind.value,
        "shard_id": int(event.shard_id),
    }
    if event.kind is EventKind.JOIN:
        payload["tx_count"] = int(event.tx_count)
        payload["latency"] = float(event.latency)
    return payload


def event_from_json(payload: Dict) -> CommitteeEvent:
    """Inverse of :func:`event_to_json`."""
    return CommitteeEvent(
        iteration=int(payload["iteration"]),
        kind=EventKind(payload["kind"]),
        shard_id=int(payload["shard_id"]),
        tx_count=payload.get("tx_count"),
        latency=payload.get("latency"),
    )


def make_reproducer(
    outcome: StormOutcome,
    events: Optional[Sequence[CommitteeEvent]] = None,
) -> Dict:
    """A replayable JSON document for a violated outcome.

    ``events`` defaults to the outcome's full schedule; pass the shrunk
    list to store the minimal reproducer instead.
    """
    if outcome.violation is None:
        raise ValueError("a reproducer records a violation; this outcome has none")
    chosen = list(events if events is not None else outcome.events)
    return {
        "format": REPRODUCER_FORMAT,
        "config": asdict(outcome.config),
        "armed": list(outcome.armed),
        "failure": {
            "invariant": outcome.violation.invariant,
            "iteration": outcome.violation.iteration,
            "message": str(outcome.violation),
        },
        "events": [event_to_json(event) for event in chosen],
    }


def save_reproducer(path: str, reproducer: Dict) -> None:
    """Write a reproducer deterministically (sorted keys, stable floats)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reproducer, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_reproducer(path: str) -> Dict:
    """Read a reproducer, validating the format tag."""
    with open(path, "r", encoding="utf-8") as handle:
        reproducer = json.load(handle)
    if reproducer.get("format") != REPRODUCER_FORMAT:
        raise ValueError(
            f"{path} is not a {REPRODUCER_FORMAT} file "
            f"(format={reproducer.get('format')!r})"
        )
    return reproducer


def replay_reproducer(
    reproducer: Dict,
    telemetry: NullTelemetry = NULL_TELEMETRY,
    engine: str = "serial",
) -> StormOutcome:
    """Re-run a stored reproducer exactly (same seed, same events, same arms).

    ``engine`` selects the SE execution engine.  Storms deliberately
    default to ``serial`` rather than ``auto``: a reproducer must replay
    byte-for-byte on any machine, and ``auto`` may route large instances
    to the distributional batched kernel.
    """
    config = StormConfig(**reproducer["config"])
    events = [event_from_json(payload) for payload in reproducer["events"]]
    return run_storm(
        config,
        events=events,
        armed=tuple(reproducer["armed"]),
        telemetry=telemetry,
        engine=engine,
    )


# ---------------------------------------------------------------------- #
# the chain epoch loop under storms
# ---------------------------------------------------------------------- #
@dataclass
class EpochStormOutcome:
    """A multi-epoch pipeline run where every epoch faced its own storm."""

    status: str  # "survived" | "violated" | "infeasible"
    config: StormConfig
    pipeline: Optional[PipelineResult] = None
    epoch_outcomes: List[StormOutcome] = field(default_factory=list)
    violation: Optional[StormInvariantViolation] = None
    infeasible_reason: Optional[str] = None

    @property
    def survived(self) -> bool:
        """True when every epoch's storm passed its armed invariants."""
        return self.status == "survived"


def run_epoch_storm(
    config: StormConfig,
    armed: Optional[Sequence[str]] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
    engine: str = "serial",
) -> EpochStormOutcome:
    """Drive :class:`MultiEpochScheduler` with a storm inside every epoch.

    Each epoch's scheduler call runs a full SE solve under that epoch's
    slice of the storm (fresh seed derivation per epoch, so epochs are
    independent streams).  The SE result's selection lives on the storm's
    *final* instance — which has diverged from the pipeline's candidate set
    through joins and leaves — so it is projected back by stable shard id:
    mid-storm joiners are invisible to the pipeline and drop; leavers are
    refused and re-enter next epoch via Fig. 3 carry-over.
    """
    armed = tuple(armed) if armed is not None else DEFAULT_ARMED
    workload = storm_workload_config(config)
    workloads = multi_epoch_workloads(workload, config.epochs)
    fresh_per_epoch = [
        arrived_shards(epoch_workload.shards, workload.n_max_fraction)
        for epoch_workload in workloads
    ]

    outcome = EpochStormOutcome(status="survived", config=config)
    epoch_cursor = {"epoch": 0}

    def storm_scheduler(instance: EpochInstance) -> np.ndarray:
        epoch = epoch_cursor["epoch"]
        epoch_cursor["epoch"] += 1
        epoch_config = config.per_epoch(epoch)
        epoch_seed = derive_seed(config.seed, f"storm-epoch-{epoch}")
        events = generate_storm(instance, epoch_config, RandomStreams(epoch_seed))
        solver = _solver(epoch_config, telemetry, seed=epoch_seed, engine=engine)
        probe = StormProbe(solver, instance, armed=armed, telemetry=telemetry)
        result = solver.solve(instance, DynamicSchedule(events=list(events)), probe=probe)
        if "trace-monotone" in armed:
            check_trace_monotone(result.utility_trace, probe.boundaries)
        outcome.epoch_outcomes.append(
            StormOutcome(
                status="survived",
                config=epoch_config,
                armed=armed,
                events=list(events),
                result=result,
                boundaries=list(probe.boundaries),
                checks_run=probe.checks_run,
                theorem2_checked=probe.theorem2_checked,
            )
        )
        if telemetry.enabled:
            telemetry.event(
                "storm.epoch",
                epoch=epoch,
                events=len(events),
                boundaries=len(probe.boundaries),
                iterations=result.iterations,
                best_utility=result.best_utility,
            )
        final = result.final_instance
        selected = {
            shard_id
            for shard_id, chosen in zip(final.shard_ids, result.best_mask)
            if chosen
        }
        return np.array([sid in selected for sid in instance.shard_ids], dtype=bool)

    pipeline = MultiEpochScheduler(storm_scheduler, workload.mvcom_config())
    try:
        outcome.pipeline = pipeline.run(fresh_per_epoch)
    except StormInvariantViolation as violation:
        outcome.status = "violated"
        outcome.violation = violation
    except InfeasibleEpochError as exc:
        outcome.status = "infeasible"
        outcome.infeasible_reason = str(exc)

    if telemetry.enabled:
        telemetry.event(
            "storm.pipeline",
            status=outcome.status,
            epochs=len(outcome.epoch_outcomes),
            total_throughput=outcome.pipeline.total_throughput if outcome.pipeline else None,
            worst_starvation=outcome.pipeline.worst_starvation if outcome.pipeline else None,
        )
    return outcome
