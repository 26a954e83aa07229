"""Storm execution: one classified step, one solve, shrink.

:func:`storm_step` is the one place a storm meets a solver: it arms a
:class:`~repro.faultinject.invariants.StormProbe`, solves under the event
schedule, runs the post-hoc trace check and classifies the run:

* ``"survived"`` — the run completed and every armed invariant held;
* ``"violated"`` — an armed invariant raised
  :class:`repro.faultinject.invariants.StormInvariantViolation`;
* ``"infeasible"`` — the storm legitimately emptied the epoch
  (:class:`repro.core.se.InfeasibleEpochError`), which is *graceful
  degradation*, not a bug: an epoch with no committees has nothing to
  schedule.

:func:`run_storm` takes one step against one SE solve;
:func:`repro.faultinject.serve.run_serve_storm` takes one per served epoch.
A violated single-solve outcome shrinks (:func:`shrink_storm`) to a
1-minimal schedule with the same failure signature, and
:mod:`repro.faultinject.reproducer` serialises it as replayable JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dynamics import CommitteeEvent, DynamicSchedule
from repro.core.problem import EpochInstance
from repro.core.se import InfeasibleEpochError, SEConfig, SEResult, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.faultinject.invariants import (
    DEFAULT_INVARIANTS,
    StormInvariantViolation,
    StormProbe,
    check_trace_monotone,
)
from repro.faultinject.shrink import shrink_events
from repro.faultinject.storm import StormConfig, generate_storm
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams

#: What :func:`run_storm` arms when the caller does not choose: the
#: event-boundary invariants plus the post-hoc trace check.
DEFAULT_ARMED = DEFAULT_INVARIANTS + ("trace-monotone",)


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


def storm_solver(
    config: StormConfig,
    telemetry: NullTelemetry,
    seed: Optional[int] = None,
    engine: str = "serial",
) -> StochasticExploration:
    """The SE solver a storm batters (``seed`` defaults to the storm's)."""
    se_config = SEConfig(
        num_threads=config.gamma,
        max_iterations=config.max_iterations,
        convergence_window=config.convergence_window,
        seed=config.seed if seed is None else seed,
        engine=engine,
    )
    return StochasticExploration(se_config, telemetry=telemetry)


def storm_step(
    solver: StochasticExploration,
    instance: EpochInstance,
    config: StormConfig,
    events: Sequence[CommitteeEvent],
    armed: Tuple[str, ...],
    extra_invariants: Optional[Dict[str, Callable[..., None]]] = None,
    warm: Optional[SEResult] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> StormOutcome:
    """Solve ``instance`` under ``events`` with ``armed`` checks; classify.

    ``warm`` chains the solve onto a previous result, so the probe also
    sees the adopted population at iteration 0.
    """
    events = list(events)
    probe = StormProbe(
        solver, instance, armed=armed, extra_invariants=extra_invariants, telemetry=telemetry
    )
    outcome = StormOutcome(status="survived", config=config, armed=armed, events=events)
    try:
        result = solver.solve(
            instance, schedule=DynamicSchedule(events=events), probe=probe, warm=warm
        )
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
    return outcome


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
    solver = storm_solver(config, telemetry, engine=engine)
    outcome = storm_step(solver, instance, config, events, armed, telemetry=telemetry)

    if telemetry.enabled:
        telemetry.event(
            "storm.run",
            status=outcome.status,
            seed=config.seed,
            events=len(outcome.events),
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
