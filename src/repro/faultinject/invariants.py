"""Armed invariants for the dynamic-events path (event-boundary contracts).

PR 1's runtime contracts check solver *results* at the boundary; churn
storms need the same discipline at every **event boundary inside** a solve.
:class:`StormProbe` plugs into ``StochasticExploration.solve(probe=...)``
and asserts, after each applied event batch:

* ``incumbent-feasible`` — the carried incumbent satisfies const. (3)
  ``count >= N_min`` and const. (4) ``weight <= Ĉ`` with finite utility;
* ``replica-conservation`` — the Γ executor replicas survive every reseat
  with distinct identities, each hosting exactly the per-cardinality
  solution-thread family of the *current* instance, every live thread
  (population row) conserving its cardinality ``n`` and capacity
  feasibility;
* ``membership-bookkeeping`` — the instance's shard-id set equals the
  event-replay of the original membership (duplicates tolerated, ids
  conserved — nothing vanishes or resurrects unasked);
* ``theorem2-bounds`` — on enumerable instances (≤ ``theorem2_max_shards``
  committees), each LEAVE's exact perturbation obeys Lemma 4
  (:math:`d_{TV} \\le 1/2`) and Theorem 2 (:math:`\\|q^*u^T - \\tilde q
  u^T\\| \\le \\max_g U_g`) via :func:`repro.core.failure.analyze_failure`;
* ``strict-n-min`` (opt-in) — const. (3) holds *unrelaxed*: the storm never
  forces ``N_min`` below the paper's ``⌈f·|I_j|⌉`` (useful to manufacture
  honest, replayable violations for shrinker/CI drills);
* ``trace-monotone`` (post-hoc, via :func:`check_trace_monotone`) — the
  best-utility trace is non-decreasing everywhere except at recorded event
  boundaries, where rebasing may legitimately devalue the incumbent.

A failed check raises :class:`StormInvariantViolation` (a
:class:`repro.analysis.contracts.ContractViolation`), carrying the
invariant name and boundary iteration so the shrinker can match failure
signatures.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import ContractViolation
from repro.core.dynamics import CommitteeEvent, EventKind
from repro.core.failure import analyze_failure
from repro.core.problem import EpochInstance
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry

#: Invariants armed by default; "strict-n-min" is opt-in, "trace-monotone"
#: runs post-hoc on the finished result.
DEFAULT_INVARIANTS = (
    "incumbent-feasible",
    "replica-conservation",
    "membership-bookkeeping",
    "theorem2-bounds",
)

#: Every serialisable invariant name (reproducers may arm any subset).
KNOWN_INVARIANTS = DEFAULT_INVARIANTS + ("strict-n-min", "trace-monotone")


class StormInvariantViolation(ContractViolation):
    """One armed invariant failed at a dynamic-event boundary."""

    def __init__(self, invariant: str, message: str, iteration: Optional[int] = None) -> None:
        self.invariant = invariant
        self.iteration = iteration
        where = f" at iteration {iteration}" if iteration is not None else ""
        super().__init__(f"[{invariant}]{where} {message}")


class StormProbe:
    """Event-boundary invariant checker for ``solve(probe=...)``.

    The probe draws no randomness and never mutates solver state, so arming
    it cannot perturb a seeded trajectory; it only *observes* and raises.
    ``boundaries`` records the iteration of every probed event batch for
    the post-hoc trace-monotonicity check.
    """

    def __init__(
        self,
        solver,
        instance: EpochInstance,
        armed: Optional[Sequence[str]] = None,
        theorem2_max_shards: int = 10,
        theorem2_budget: int = 8,
        extra_invariants: Optional[Dict[str, Callable[..., None]]] = None,
        telemetry: NullTelemetry = NULL_TELEMETRY,
    ) -> None:
        self.solver = solver
        self.armed = tuple(armed) if armed is not None else DEFAULT_INVARIANTS
        self.extra_invariants = dict(extra_invariants or {})
        unknown = set(self.armed) - set(KNOWN_INVARIANTS) - set(self.extra_invariants)
        if unknown:
            raise ValueError(f"unknown invariants: {sorted(unknown)}")
        self.theorem2_max_shards = theorem2_max_shards
        self._theorem2_budget = theorem2_budget
        self.telemetry = telemetry
        self._tracked = instance
        self.boundaries: List[int] = []
        self.checks_run = 0
        self.theorem2_checked = 0

    # ------------------------------------------------------------------ #
    # the probe callback
    # ------------------------------------------------------------------ #
    def __call__(self, *, iteration, events, instance, best, population) -> None:
        """Run every armed invariant against one applied event batch."""
        self.boundaries.append(int(iteration))
        # Replay the batch onto the tracked shadow instance first: the
        # theorem-2 check needs each LEAVE's *pre-failure* space, and the
        # membership check needs the expected post-batch id set.
        self._tracked = self._replay_batch(self._tracked, events, iteration)

        if "incumbent-feasible" in self.armed:
            self._check_incumbent(iteration, instance, best)
        if "replica-conservation" in self.armed:
            self._check_replicas(iteration, instance, population)
        if "membership-bookkeeping" in self.armed:
            self._check_membership(iteration, instance)
        if "strict-n-min" in self.armed:
            self._check_strict_n_min(iteration, instance, best)
        for name, check in self.extra_invariants.items():
            if name in self.armed:
                self._run_extra(name, check, iteration, events, instance, best, population)
        self.checks_run += 1
        if self.telemetry.enabled:
            self.telemetry.count(
                "storm.boundaries", 1, iteration=int(iteration), events=len(events)
            )

    # ------------------------------------------------------------------ #
    # individual invariants
    # ------------------------------------------------------------------ #
    def _check_incumbent(self, iteration: int, instance: EpochInstance, best) -> None:
        if best.instance is not instance:
            raise StormInvariantViolation(
                "incumbent-feasible",
                "incumbent is not rebased onto the current instance",
                iteration,
            )
        if best.count < instance.n_min:
            raise StormInvariantViolation(
                "incumbent-feasible",
                f"cardinality {best.count} violates N_min={instance.n_min} (const. 3)",
                iteration,
            )
        if best.weight > instance.capacity:
            raise StormInvariantViolation(
                "incumbent-feasible",
                f"packed TXs {best.weight} exceed Ĉ={instance.capacity} (const. 4)",
                iteration,
            )
        if not math.isfinite(float(best.utility)):
            raise StormInvariantViolation(
                "incumbent-feasible", f"utility {best.utility!r} is not finite", iteration
            )

    def _check_replicas(self, iteration: int, instance: EpochInstance, population) -> None:
        identities = list(population.replica_ids)
        expected_gamma = self.solver.config.num_threads
        if len(identities) != expected_gamma:
            raise StormInvariantViolation(
                "replica-conservation",
                f"{len(identities)} replicas survive, expected Γ={expected_gamma}",
                iteration,
            )
        if len(set(identities)) != len(identities):
            raise StormInvariantViolation(
                "replica-conservation", f"replica identities collide: {identities}", iteration
            )
        family = population.cardinalities.tolist()
        expected_family = self.solver.thread_cardinalities(instance)
        rows = population.rows
        if family != expected_family or len(rows.ok) != len(identities) * len(family):
            raise StormInvariantViolation(
                "replica-conservation",
                f"{len(rows.ok)} rows host cardinalities {family} per replica, "
                f"expected {expected_family} for each of {len(identities)} replicas",
                iteration,
            )
        cardinality = np.tile(population.cardinalities, len(identities))
        miscounted = rows.ok & (rows.count != cardinality)
        if miscounted.any():
            row = int(np.argmax(miscounted))
            raise StormInvariantViolation(
                "replica-conservation",
                f"replica {identities[row // len(family)]} thread f_{cardinality[row]} "
                f"holds {rows.count[row]} replicas (cardinality not conserved)",
                iteration,
            )
        over = rows.ok & (rows.weight > instance.capacity)
        if over.any():
            row = int(np.argmax(over))
            raise StormInvariantViolation(
                "replica-conservation",
                f"replica {identities[row // len(family)]} thread f_{cardinality[row]} "
                f"exceeds Ĉ (const. 4)",
                iteration,
            )

    def _check_membership(self, iteration: int, instance: EpochInstance) -> None:
        got = set(int(sid) for sid in instance.shard_ids)
        expected = set(int(sid) for sid in self._tracked.shard_ids)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise StormInvariantViolation(
                "membership-bookkeeping",
                f"instance ids diverge from the event replay "
                f"(missing={missing}, unexpected={extra})",
                iteration,
            )

    def _check_strict_n_min(self, iteration: int, instance: EpochInstance, best) -> None:
        requested = int(np.ceil(instance.config.n_min_fraction * instance.num_shards))
        if instance.n_min_relaxed or best.count < requested:
            raise StormInvariantViolation(
                "strict-n-min",
                f"const. (3) relaxed: incumbent count {best.count} < "
                f"unrelaxed N_min=⌈{instance.config.n_min_fraction}·"
                f"{instance.num_shards}⌉={requested}",
                iteration,
            )

    def _run_extra(self, name, check, iteration, events, instance, best, population) -> None:
        try:
            check(
                iteration=iteration,
                events=events,
                instance=instance,
                best=best,
                population=population,
            )
        except StormInvariantViolation:
            raise
        except AssertionError as failure:
            raise StormInvariantViolation(name, str(failure), iteration) from failure

    # ------------------------------------------------------------------ #
    # shadow replay + theorem-2 sanity
    # ------------------------------------------------------------------ #
    def _replay_batch(
        self,
        tracked: EpochInstance,
        events: Sequence[CommitteeEvent],
        iteration: int,
    ) -> EpochInstance:
        for event in events:
            if event.kind is EventKind.LEAVE:
                if event.shard_id not in tracked.shard_ids:
                    continue  # duplicate leave, tolerated
                self._maybe_check_theorem2(tracked, event, iteration)
                tracked = tracked.without(event.shard_id)
            else:
                if event.shard_id in tracked.shard_ids:
                    continue  # duplicate join, tolerated
                tracked = tracked.with_shard(event.shard_id, event.tx_count, event.latency)
        return tracked

    def _maybe_check_theorem2(
        self, before: EpochInstance, event: CommitteeEvent, iteration: int
    ) -> None:
        if "theorem2-bounds" not in self.armed:
            return
        if before.num_shards > self.theorem2_max_shards or self._theorem2_budget <= 0:
            return
        if before.num_shards < 2:
            return
        self._theorem2_budget -= 1
        self.theorem2_checked += 1
        position = before.position_of(event.shard_id)
        analysis = analyze_failure(before, position, beta=self.solver.config.beta)
        if not analysis.tv_within_bound:
            raise StormInvariantViolation(
                "theorem2-bounds",
                f"Lemma 4 violated: d_TV={analysis.tv_distance:.6f} > "
                f"{analysis.tv_bound} after shard {event.shard_id} failed",
                iteration,
            )
        if not analysis.perturbation_within_bound:
            raise StormInvariantViolation(
                "theorem2-bounds",
                f"Theorem 2 violated: perturbation {analysis.utility_perturbation:.6f} "
                f"exceeds max_g U_g={analysis.perturbation_bound:.6f} "
                f"after shard {event.shard_id} failed",
                iteration,
            )


def check_trace_monotone(
    utility_trace: np.ndarray,
    boundaries: Sequence[int],
    tolerance: float = 1e-9,
) -> None:
    """Assert the best-utility trace only ever dips at event boundaries.

    Outside dynamic events the incumbent changes solely through
    ``_pick_better`` (strict utility improvement), so ``utility_trace`` must
    be non-decreasing between boundaries; a LEAVE/JOIN rebase may devalue
    the carried incumbent, so the recorded boundary iterations are exempt.
    Raises :class:`StormInvariantViolation` on an off-boundary dip.
    """
    trace = np.asarray(utility_trace, dtype=float)
    exempt = set(int(b) for b in boundaries)
    for index in range(1, len(trace)):
        if index in exempt:
            continue
        if trace[index] < trace[index - 1] - tolerance:
            raise StormInvariantViolation(
                "trace-monotone",
                f"best-utility trace dips off-boundary: "
                f"u[{index - 1}]={trace[index - 1]:.6f} -> u[{index}]={trace[index]:.6f}",
                index,
            )
