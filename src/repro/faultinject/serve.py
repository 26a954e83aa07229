"""Churn storms against the *live* scheduling service, not a single solve.

:func:`run_serve_storm` drives the :class:`~repro.data.stream.EpochStream`
feeder and a warm-chained SE solver exactly as ``mvcom serve`` does, but
takes one :func:`~repro.faultinject.runner.storm_step` per epoch: a fresh
:func:`~repro.faultinject.storm.generate_storm` schedule inside every
epoch's solve with :class:`StormProbe` invariants armed — and because a
warm start calls the probe at iteration 0 with the *adopted* replicas, the
contracts are checked across the epoch boundary itself (the failure
surface this mode exists to cover: stale thread state, an incumbent from
the wrong instance, infeasible carried solutions).  This is the only
multi-epoch storm; ``mvcom storm --epochs N`` runs it warm.

A violation serialises as a ``mvcom-serve-reproducer-v1`` document
(:mod:`repro.faultinject.reproducer`): the whole epoch-by-epoch event
history up to the failure plus the serve-storm config, enough to replay
the service loop bit-for-bit to the same raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dynamics import CommitteeEvent
from repro.core.se import SEResult
from repro.data.stream import EpochStream, EpochStreamConfig
from repro.faultinject.invariants import StormInvariantViolation
from repro.faultinject.runner import DEFAULT_ARMED, StormOutcome, storm_solver, storm_step
from repro.faultinject.storm import StormConfig, generate_storm
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams, derive_seed

__all__ = ["ServeStormConfig", "ServeStormOutcome", "run_serve_storm"]


@dataclass(frozen=True)
class ServeStormConfig:
    """Shape of one storm-battered serve run (stream x storm x solver)."""

    seed: int = 0
    epochs: int = 4
    num_committees: int = 40
    churn: float = 0.1
    growth: int = 0
    rate: float = 1.3
    events_per_epoch: int = 40
    gamma: int = 4
    max_iterations: int = 800
    convergence_window: int = 400
    warm: bool = True
    leave_fraction: float = 0.45
    duplicate_fraction: float = 0.1
    correlated_fraction: float = 0.2
    rejoin_fraction: float = 0.3
    straggler_fraction: float = 0.3
    min_live: int = 4

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.events_per_epoch <= 0:
            raise ValueError("events_per_epoch must be positive")

    def stream_config(self) -> EpochStreamConfig:
        return EpochStreamConfig(
            num_committees=self.num_committees,
            seed=self.seed,
            rate=self.rate,
            churn=self.churn,
            growth=self.growth,
        )

    def storm_config(self, epoch: int) -> StormConfig:
        """The storm one served epoch faces (seed re-derived per epoch)."""
        return StormConfig(
            seed=derive_seed(self.seed, f"serve-storm-epoch-{epoch}"),
            num_events=self.events_per_epoch,
            num_committees=self.num_committees,
            gamma=self.gamma,
            max_iterations=self.max_iterations,
            convergence_window=self.convergence_window,
            leave_fraction=self.leave_fraction,
            duplicate_fraction=self.duplicate_fraction,
            correlated_fraction=self.correlated_fraction,
            rejoin_fraction=self.rejoin_fraction,
            straggler_fraction=self.straggler_fraction,
            min_live=self.min_live,
        )


@dataclass
class ServeStormOutcome:
    """One storm-battered serve run: the classified step of every epoch run.

    The run stops at the first epoch that does not survive, so the last
    epoch outcome carries the run's status, violation and failed epoch.
    """

    config: ServeStormConfig
    armed: Tuple[str, ...]
    epoch_outcomes: List[StormOutcome] = field(default_factory=list)

    @property
    def status(self) -> str:
        """``survived`` unless the last epoch run was violated or infeasible."""
        return self.epoch_outcomes[-1].status if self.epoch_outcomes else "survived"

    @property
    def survived(self) -> bool:
        """True when every epoch's contracts held through the whole run."""
        return self.status == "survived"

    @property
    def violation(self) -> Optional[StormInvariantViolation]:
        return self.epoch_outcomes[-1].violation if self.epoch_outcomes else None

    @property
    def infeasible_reason(self) -> Optional[str]:
        return self.epoch_outcomes[-1].infeasible_reason if self.epoch_outcomes else None

    @property
    def failed_epoch(self) -> Optional[int]:
        return None if self.survived else len(self.epoch_outcomes) - 1

    @property
    def checks_run(self) -> int:
        return sum(epoch.checks_run for epoch in self.epoch_outcomes)


def _epoch_storm(instance, storm: StormConfig) -> List[CommitteeEvent]:
    """Generate one epoch's storm from a registry of its own.

    ``storm.seed`` is derived per epoch (:meth:`ServeStormConfig.storm_config`),
    so the generator's constant stream key never reuses a Mersenne
    sequence across the serve loop's iterations.
    """
    return generate_storm(instance, storm, RandomStreams(storm.seed))


def run_serve_storm(
    config: ServeStormConfig,
    events_by_epoch: Optional[Sequence[Sequence[CommitteeEvent]]] = None,
    armed: Optional[Sequence[str]] = None,
    extra_invariants: Optional[Dict[str, Callable[..., None]]] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> ServeStormOutcome:
    """Run the service loop with a storm inside every epoch's solve.

    Deterministic given ``config`` (and ``events_by_epoch`` when
    replaying): the stream, the per-epoch storms, and the solver all
    derive from ``config.seed`` through named streams.  A warm run chains
    one solver through every epoch; a cold run seeds each epoch's solver
    separately, as ``mvcom serve --cold`` does.  Every solve races the
    production kernel, whose seeded trajectories replay byte for byte.
    """
    armed = tuple(armed) if armed is not None else DEFAULT_ARMED
    if extra_invariants:
        armed = armed + tuple(extra_invariants)
    stream = EpochStream(config.stream_config())
    solver = None
    if config.warm:
        solver = storm_solver(
            config.storm_config(0), telemetry, seed=derive_seed(config.seed, "serve-storm-solver")
        )
    outcome = ServeStormOutcome(config=config, armed=armed)
    previous: Optional[SEResult] = None
    permitted: List[int] = []

    for epoch in range(config.epochs):
        if events_by_epoch is not None and epoch >= len(events_by_epoch):
            break
        tick = stream.advance(permitted)
        storm = config.storm_config(epoch)
        if events_by_epoch is not None:
            events = events_by_epoch[epoch]
        else:
            events = _epoch_storm(tick.instance, storm)
        if not config.warm:
            solver = storm_solver(
                storm, telemetry, seed=derive_seed(config.seed, f"serve-storm-solver-{epoch}")
            )
        step = storm_step(
            solver,
            tick.instance,
            storm,
            events,
            armed,
            extra_invariants=extra_invariants,
            warm=previous,
            telemetry=telemetry,
        )
        outcome.epoch_outcomes.append(step)
        if not step.survived:
            break
        result = step.result
        previous = result if config.warm else None
        final = result.final_instance
        permitted = [
            shard_id
            for shard_id, chosen in zip(final.shard_ids, result.best_mask)
            if chosen
        ]
        if telemetry.enabled:
            telemetry.event(
                "storm.serve_epoch",
                epoch=epoch,
                events=len(events),
                boundaries=len(step.boundaries),
                iterations=result.iterations,
                best_utility=result.best_utility,
                warm=config.warm and epoch > 0,
            )

    if telemetry.enabled:
        telemetry.event(
            "storm.serve",
            status=outcome.status,
            epochs_completed=sum(epoch.survived for epoch in outcome.epoch_outcomes),
            failed_epoch=outcome.failed_epoch,
            invariant=outcome.violation.invariant if outcome.violation else None,
            checks_run=outcome.checks_run,
        )
    return outcome
