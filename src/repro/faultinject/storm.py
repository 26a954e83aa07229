"""Deterministic churn-storm generation (Section V taken adversarially).

The paper evaluates dynamic events with single hand-picked scenarios (one
failure + recovery in Fig. 9a, evenly spaced joins in Figs. 9b/14).  Real
sharded deployments — and the related churn literature (Blockguard; Stable
Blockchain Sharding under Adversarial Transaction Generation) — face
*storms*: bursts of correlated committee failures interleaved with
arrivals, duplicate and out-of-order notifications, and membership swings
that push ``|I_j|`` toward the cardinality floor ``N_min``.

:func:`generate_storm` turns a :class:`StormConfig` into such a schedule,
drawing every random choice from named streams
(:class:`repro.sim.rng.RandomStreams`) so one seed reproduces the exact
event sequence forever.  The generator tracks a simulated membership set so
LEAVE events target live committees (with deliberate duplicates targeting
dead ones), JOIN events either resurrect a failed committee (the recovery
half of Fig. 9a) or admit a fresh straggler whose latency exceeds the
current DDL — re-valuing every shard via eq. (1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dynamics import CommitteeEvent, EventKind
from repro.core.problem import EpochInstance
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class StormConfig:
    """Knobs of one churn storm (all randomness keyed off ``seed``).

    The workload half (``num_committees``, ``capacity``, ``alpha``) shapes
    the epoch instance the storm batters; the storm half shapes the event
    process.  ``burst_mean``/``gap_mean`` parameterise geometric draws, so
    events arrive in bursts (several events at one SE iteration) separated
    by quiet gaps.  ``leave_fraction`` sets failure pressure,
    ``correlated_fraction`` makes consecutive victims adjacent committee
    ids (rack/AS-style correlated failures), ``duplicate_fraction`` injects
    events for already-dead or already-live committees, and
    ``straggler_fraction`` makes fresh joiners slower than the current DDL
    so the deadline — and every shard's value — shifts.  ``min_live`` is
    the generator's floor on live committees; set it to 1 to let a storm
    push ``|I_j|`` through ``N_min`` all the way to a single survivor.
    """

    seed: int = 0
    num_events: int = 200
    num_committees: int = 32
    capacity: Optional[int] = None
    alpha: float = 1.5
    gamma: int = 4
    max_iterations: int = 1_500
    convergence_window: int = 400

    first_iteration: int = 10
    burst_mean: float = 4.0
    gap_mean: float = 30.0
    leave_fraction: float = 0.55
    duplicate_fraction: float = 0.10
    correlated_fraction: float = 0.30
    rejoin_fraction: float = 0.50
    straggler_fraction: float = 0.35
    min_live: int = 2

    def __post_init__(self) -> None:
        if self.num_events < 0:
            raise ValueError("num_events must be non-negative")
        if self.num_committees <= 0:
            raise ValueError("num_committees must be positive")
        if self.gamma <= 0 or self.max_iterations <= 0:
            raise ValueError("gamma and max_iterations must be positive")
        if self.burst_mean < 1 or self.gap_mean < 1:
            raise ValueError("burst_mean and gap_mean must be >= 1")
        for name in (
            "leave_fraction",
            "duplicate_fraction",
            "correlated_fraction",
            "rejoin_fraction",
            "straggler_fraction",
        ):
            fraction = getattr(self, name)
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.min_live < 1:
            raise ValueError("min_live must be >= 1 (an epoch needs a shard)")


@dataclass
class _Membership:
    """The generator's view of who is live, who failed, and their features."""

    live: List[int]
    features: Dict[int, Tuple[int, float]]
    removed: List[int] = field(default_factory=list)
    max_latency: float = 0.0
    next_fresh_id: int = 0


def _seed_membership(instance: EpochInstance) -> _Membership:
    features = {
        int(sid): (int(instance.tx_counts[pos]), float(instance.latencies[pos]))
        for pos, sid in enumerate(instance.shard_ids)
    }
    return _Membership(
        live=[int(sid) for sid in instance.shard_ids],
        features=features,
        max_latency=float(instance.latencies.max()),
        next_fresh_id=max(int(sid) for sid in instance.shard_ids) + 1,
    )


def generate_storm(
    instance: EpochInstance,
    config: StormConfig,
    streams: RandomStreams,
) -> List[CommitteeEvent]:
    """Generate one storm's event list against ``instance``'s membership.

    Deterministic given ``(instance, config, streams.seed)``: every draw
    comes from the named ``storm-*`` streams.  The returned list is
    *shuffled* (seeded) so same-iteration events arrive out of order —
    :class:`repro.core.dynamics.DynamicSchedule`'s stable sort restores the
    iteration stamps but preserves the scrambled intra-burst order, which
    is exactly the delivery skew a final committee sees in practice.
    """
    rng = streams.get("storm-events")
    membership = _seed_membership(instance)
    events: List[CommitteeEvent] = []
    iteration = config.first_iteration
    previous_victim: Optional[int] = None

    while len(events) < config.num_events:
        burst_size = int(rng.geometric(1.0 / config.burst_mean))
        burst_size = min(burst_size, config.num_events - len(events))
        for _ in range(burst_size):
            event = _next_event(membership, config, rng, iteration, previous_victim)
            if event.kind is EventKind.LEAVE and event.shard_id in membership.live:
                previous_victim = event.shard_id
            _apply_to_membership(membership, event)
            events.append(event)
        iteration += int(rng.geometric(1.0 / config.gap_mean))

    # Scramble delivery order (the schedule's stable sort keeps stamps).
    order = rng.permutation(len(events))
    return [events[int(position)] for position in order]


def _next_event(
    membership: _Membership,
    config: StormConfig,
    rng: np.random.Generator,
    iteration: int,
    previous_victim: Optional[int],
) -> CommitteeEvent:
    # Deliberate duplicates: a LEAVE for an already-failed committee or a
    # JOIN for a live one — the dynamic path must tolerate both silently.
    if membership.removed and rng.random() < config.duplicate_fraction:
        if rng.random() < 0.5:
            ghost = int(membership.removed[int(rng.integers(len(membership.removed)))])
            return CommitteeEvent(iteration=iteration, kind=EventKind.LEAVE, shard_id=ghost)
        live_id = int(membership.live[int(rng.integers(len(membership.live)))])
        tx_count, latency = membership.features[live_id]
        return CommitteeEvent(
            iteration=iteration,
            kind=EventKind.JOIN,
            shard_id=live_id,
            tx_count=tx_count,
            latency=latency,
        )

    want_leave = rng.random() < config.leave_fraction
    if want_leave and len(membership.live) > config.min_live:
        victim = _pick_victim(membership, config, rng, previous_victim)
        return CommitteeEvent(iteration=iteration, kind=EventKind.LEAVE, shard_id=victim)
    return _make_join(membership, config, rng, iteration)


def _pick_victim(
    membership: _Membership,
    config: StormConfig,
    rng: np.random.Generator,
    previous_victim: Optional[int],
) -> int:
    live = membership.live
    if previous_victim is not None and rng.random() < config.correlated_fraction:
        # Correlated failure: the live committee with the nearest id to the
        # previous victim (same rack / operator / AS in spirit).
        return min(live, key=lambda sid: (abs(sid - previous_victim), sid))
    return int(live[int(rng.integers(len(live)))])


def _make_join(
    membership: _Membership, config: StormConfig, rng: np.random.Generator, iteration: int
) -> CommitteeEvent:
    if membership.removed and rng.random() < config.rejoin_fraction:
        # Recovery: a failed committee comes back with its old shard.
        shard_id = int(membership.removed[int(rng.integers(len(membership.removed)))])
        tx_count, latency = membership.features[shard_id]
    else:
        shard_id = membership.next_fresh_id
        tx_count = int(rng.integers(200, 3_000))
        if rng.random() < config.straggler_fraction:
            # A straggler past the current DDL: t_j and every v_i shift.
            latency = membership.max_latency * float(1.05 + 0.35 * rng.random())
        else:
            latency = membership.max_latency * float(0.30 + 0.60 * rng.random())
    return CommitteeEvent(
        iteration=iteration,
        kind=EventKind.JOIN,
        shard_id=shard_id,
        tx_count=int(tx_count),
        latency=float(latency),
    )


def _apply_to_membership(membership: _Membership, event: CommitteeEvent) -> None:
    if event.kind is EventKind.LEAVE:
        if event.shard_id in membership.live:
            membership.live.remove(event.shard_id)
            membership.removed.append(event.shard_id)
        return
    if event.shard_id in membership.live:
        return  # duplicate join, tolerated downstream too
    if event.shard_id in membership.removed:
        membership.removed.remove(event.shard_id)
    membership.live.append(event.shard_id)
    membership.features[event.shard_id] = (int(event.tx_count), float(event.latency))
    membership.max_latency = max(membership.max_latency, float(event.latency))
    if event.shard_id >= membership.next_fresh_id:
        membership.next_fresh_id = event.shard_id + 1
