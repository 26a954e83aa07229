"""The Stochastic-Exploration race kernel (Alg. 1).

:class:`repro.core.se.StochasticExploration` owns the algorithm; this module
owns *how fast it runs*.  One driver (:class:`_EngineRun`) keeps everything
observable on the calling thread — bootstrap, dynamic events (Alg. 1 lines
9-12), probes, telemetry, the convergence detector and the incumbent λ —
so rule MV007 and the faultinject probe contract hold, and one race
function advances the population between event boundaries.  The paper's Γ
"parallel threads" are Γ independent chains aiming at one Gibbs target,
not an OS-parallelism requirement, so the kernel runs them in one process.

:func:`run_vectorized` is a fully-batched Γ×thread race: **one** numpy race
covers every replica's racing threads simultaneously.  Each round draws
all racing threads' swap pairs and Exp(1) variates in one block from the
named ``"vectorized-race"`` stream, evaluates eq. (8) as array ops over the
whole population, finds each replica's minimum armed timer by a segmented
(inf-padded rectangular) argmin — no per-replica Python loop — and applies
all fires at once (one fire per replica touches disjoint rows, so the
batch is exact).  It consumes randomness in a different order than the
scalar reference loop it replaced, which the tests keep as their oracle
(``tests/serial_oracle.py``), so it is validated *distributionally*
(χ²/KS tests in ``tests/test_core_engines.py``), not byte-wise.

Stream layout (the kernel's own named streams, independent of the
per-thread scalar streams the oracle draws from).  ``T`` counts racing
threads **across all Γ replicas** in replica-major, cardinality-minor
order.  The main ``"vectorized-race"`` stream is read in blocks of ``R``
rounds (:meth:`_VectorState.start_block`), two draws per block:

1. an ``(R, T, 2)`` uniform tensor — ``[r, t, 0]`` is thread ``t``'s
   lane-0 out-index draw in round ``r`` of the block, ``[r, t, 1]`` its
   lane-0 in-index draw;
2. then an ``(R, T)`` uniform tensor of Exp(1) inversion draws.

``R = min(rounds left in the segment, 65536 // T)``, where a segment
(:meth:`_EngineRun.segment_length`) ends at the next dynamic-event
boundary or the iteration cap and spans at most ``convergence_window``
rounds.  Because each block lays out all its pair draws before its Exp(1)
draws, the round a given uniform lands in depends on ``R``: the same seed
with a different block length is a different (equally valid) trajectory.
``R`` depends only on the configuration, the schedule and the racing
population, so a seeded run replays byte-identically.

Only rows whose lane-0 pair violates the capacity (const. 4) draw their
remaining ``pair_tries - 1`` candidate pairs from the separate
``"vectorized-race-retry"`` stream — one ``(rejected, pair_tries - 1, 2)``
block per round, first feasible lane wins, budget-exhausted rows park — so
the common case (ample slack) pays 3 uniforms per thread-round instead of
the scalar loop's up-to-33.  The retry block's size is a function of
the trajectory, which is a function of the seeds alone.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.convergence import ConvergenceDetector
from repro.core.dynamics import CommitteeEvent, DynamicSchedule
from repro.core.problem import EpochInstance
from repro.core.repair import greedy_improve
from repro.core.se import (
    InfeasibleEpochError,
    SEResult,
    SEWarmState,
    StochasticExploration,
    _Population,
)
from repro.core.solution import Solution
from repro.core.timers import LOG_DURATION_MAX, LOG_DURATION_MIN
from repro.obs.telemetry import NullTelemetry
from repro.sim.rng import RandomStreams


# ------------------------------------------------------------------ #
# shared driver state
# ------------------------------------------------------------------ #
class _EngineRun:
    """Driver-side bookkeeping around the race.

    Owns exactly the state the pre-engine ``solve`` loop kept on its stack:
    the named streams, the replica population, the incumbent, traces,
    detector and applied events.  The race function only advances the
    population between event boundaries.
    """

    def __init__(
        self,
        solver: StochasticExploration,
        instance: EpochInstance,
        schedule: Optional[DynamicSchedule],
        probe: Optional[Callable[..., None]],
        warm: Optional[SEWarmState] = None,
    ) -> None:
        self.solver = solver
        self.config = solver.config
        self.engine = solver.config.engine
        self.telemetry = solver.telemetry
        self.traced = solver.telemetry.enabled  # hoisted: race loops pay one load
        self.instance = instance
        self.schedule = schedule
        self.probe = probe
        if warm is None:
            self.generation = 0
            self.streams = RandomStreams(self.config.seed)
            self.population: _Population = solver._bootstrap(instance, self.streams)
        else:
            # Warm start: adopt the carried population/streams in place.
            # The streams registry's cached generators make every named
            # stream (init, leave, vectorized-race) *continue* across the
            # handoff.
            self.generation = warm.generation
            self.streams = warm.streams
            self.warm_stats = solver._adopt_replicas(warm, instance)
            self.population = warm.population
        if not self.population.rows.ok.any():
            raise InfeasibleEpochError(
                "no feasible solution at any thread cardinality; capacity too small"
            )
        if schedule is not None:
            schedule.reset()
        if self.traced:
            cardinalities = self.population.cardinalities.tolist()
            if warm is None:
                self.telemetry.event(
                    "se.bootstrap",
                    replicas=len(self.population.replica_ids),
                    solution_threads=len(cardinalities),
                    n_lo=min(cardinalities),
                    n_hi=max(cardinalities),
                    num_shards=instance.num_shards,
                    capacity=instance.capacity,
                )
            else:
                self.telemetry.event(
                    "se.warm_start",
                    replicas=len(self.population.replica_ids),
                    solution_threads=len(cardinalities),
                    generation=self.generation,
                    num_shards=instance.num_shards,
                    **self.warm_stats,
                )
        self.detector = ConvergenceDetector(
            window=self.config.convergence_window, tolerance=self.config.tolerance
        )
        if warm is None:
            self.best = solver._maybe_full_solution(instance, self.population.best())
        elif self.warm_stats["zero_drift"]:
            # Continuing the same solve: the incumbent carries verbatim
            # (it is monotone and already dominates every current
            # solution), rebound onto the caller's instance object.
            best = warm.best.copy()
            best.instance = instance
            self.best = best
        else:
            # The carried incumbent is a *base*, not just a candidate:
            # after the feasibility rebase, one deterministic greedy pass
            # (drop drained negative-value members, refill the freed Ĉ
            # slack with the drifted instance's winners) turns it into a
            # real head start instead of a collapsed stale solution.
            best = solver._rebase_best(warm.best, instance)
            greedy_improve(instance, best)
            best = solver._pick_better(best, self.population.best())
            self.best = solver._maybe_full_solution(instance, best)
        if warm is not None and probe is not None:
            # The epoch boundary is itself an event boundary: arm the same
            # probe contract the dynamic-event path honours, so storm
            # invariants hold *across* epochs, not just within one solve.
            probe(
                iteration=0,
                events=[],
                instance=instance,
                best=self.best,
                population=self.population,
            )
        self.utility_trace: List[float] = []
        self.current_trace: List[float] = []
        self.time_trace: List[float] = []
        self.events_applied: List[CommitteeEvent] = []
        self.converged = False
        self.iterations = 0

    # -------------------------------------------------------------- #
    def events_due(self, iteration: int) -> bool:
        """True when a dynamic event is scheduled at or before ``iteration``."""
        upcoming = self.schedule.next_iteration if self.schedule is not None else None
        return upcoming is not None and upcoming <= iteration

    def apply_due_events(self, iteration: int) -> None:
        """Alg. 1 lines 9-12 at a boundary where :meth:`events_due` holds.

        Works on the population's rows: the race hands its raced state
        back to them before calling this and rebuilds it afterwards.
        """
        fired_events = self.schedule.due(iteration)
        solver = self.solver
        population = self.population
        solver._apply_events(
            population, fired_events, self.streams, generation=self.generation
        )
        self.instance = population.instance
        self.events_applied.extend(fired_events)
        self.detector.reset()
        self.best = solver._rebase_best(self.best, self.instance)
        self.best = solver._pick_better(self.best, population.best())
        self.best = solver._maybe_full_solution(self.instance, self.best)
        if self.probe is not None:
            self.probe(
                iteration=iteration,
                events=fired_events,
                instance=self.instance,
                best=self.best,
                population=population,
            )
        if self.traced:
            for event in fired_events:
                self.telemetry.event(
                    "se.dynamic",
                    iteration=iteration,
                    kind=event.kind.name,
                    shard_id=event.shard_id,
                    num_shards=self.instance.num_shards,
                )

    def finish_round(
        self, iteration: int, current: float, virtual_time: float, transitions: int
    ) -> bool:
        """Trace/telemetry/convergence tail of one race round.

        Returns True when the run is converged *and* the schedule is
        exhausted — the race's loop-break condition.
        """
        self.iterations = iteration + 1
        self.utility_trace.append(self.best.utility)
        self.current_trace.append(current)
        self.time_trace.append(virtual_time)
        if self.traced:
            # Each fired timer triggers one RESET broadcast: every sibling
            # solution re-draws its pair and timer (Alg. 1).
            self.telemetry.count("se.reset_broadcasts", transitions, iteration=iteration)
            self.telemetry.event(
                "se.round",
                iteration=iteration,
                best_utility=self.best.utility,
                current_utility=current,
                virtual_time=virtual_time,
                transitions=transitions,
            )
        if self.detector.update(self.best.utility) and (
            self.schedule is None or self.schedule.exhausted
        ):
            self.converged = True
            return True
        return False

    def segment_length(self, iteration: int) -> int:
        """Rounds until the next event boundary, capped at one chunk.

        Chunks are ``convergence_window``-sized so a converged run never
        draws more than one window of (discarded) batched rounds ahead.
        """
        limit = self.config.max_iterations
        if self.schedule is not None and not self.schedule.exhausted:
            limit = min(limit, self.schedule.next_iteration)
        if limit <= iteration:
            limit = iteration + 1
        return min(limit - iteration, max(1, self.config.convergence_window))

    def result(self) -> SEResult:
        """Materialise the :class:`~repro.core.se.SEResult` (with se.done)."""
        if self.traced:
            self.telemetry.event(
                "se.done",
                iterations=self.iterations,
                converged=self.converged,
                best_utility=self.best.utility,
                best_count=self.best.count,
                best_weight=self.best.weight,
                events_applied=len(self.events_applied),
            )
        return SEResult(
            best_mask=self.best.mask.copy(),
            best_utility=self.best.utility,
            best_weight=self.best.weight,
            best_count=self.best.count,
            iterations=self.iterations,
            converged=self.converged,
            utility_trace=np.asarray(self.utility_trace),
            current_trace=np.asarray(self.current_trace),
            virtual_time_trace=np.asarray(self.time_trace),
            thread_cardinalities=self.population.cardinalities.tolist(),
            engine=self.engine,
            num_replicas=len(self.population.replica_ids),
            events_applied=self.events_applied,
            final_instance=self.instance,
            warm_state=SEWarmState(
                population=self.population,
                streams=self.streams,
                best=self.best,
                instance=self.instance,
                generation=self.generation + 1,
            ),
        )


def _emit_transitions(
    telemetry: NullTelemetry,
    iteration: int,
    replica: Sequence[int],
    cardinality: Sequence[int],
    swap_out: Sequence[int],
    swap_in: Sequence[int],
    utility: Sequence[float],
) -> None:
    """One columnar ``se.transition`` record for a race round's fires.

    The kernel and the serial test oracle emit through here, so their
    records carry the same columns in the same dtypes: row ``k`` is the
    ``k``-th fire of round ``iteration``, in ascending replica order.
    """
    count = len(replica)
    telemetry.event_rows(
        "se.transition",
        count,
        iteration=np.full(count, iteration, dtype=np.int64),
        replica=np.asarray(replica, dtype=np.int64),
        cardinality=np.asarray(cardinality, dtype=np.int64),
        swap_out=np.asarray(swap_out, dtype=np.int64),
        swap_in=np.asarray(swap_in, dtype=np.int64),
        utility=np.asarray(utility, dtype=np.float64),
    )


# ------------------------------------------------------------------ #
# the batched race kernel (distributional)
# ------------------------------------------------------------------ #
def _slot_pairs(draws, count, last, offset) -> np.ndarray:
    """Map ``[..., 2]`` uniform [out, in] draws to flat slot indices.

    ``count``/``last``/``offset`` are the rows' selected and unselected
    slot counts, last indices and offsets, shaped like ``draws``, which
    is scaled in place.
    """
    draws *= count
    slots = draws.astype(np.int64)
    np.minimum(slots, last, out=slots)
    slots += offset
    return slots


class _VectorState:
    """Flattened array form of every *racing* row of the population, Γ-wide.

    A row races when it holds a solution with both selected and
    unselected positions; rows with nothing to swap (e.g. the
    full-cardinality :math:`f_{|I_j|}`) contribute a constant
    ``static_current`` instead.  Rows span **all Γ replicas** in
    replica-major order; each replica's rows additionally scatter into one
    row of a static inf-padded ``(Γ, T_max)`` rectangle, so the per-replica
    minimum-timer reduction is a single row-wise ``argmin`` over the
    rectangle and the whole round — arming, racing, and every replica's
    fire — is one batch of array ops with no per-group Python loop.

    Built straight from the population's mask matrix: each racing row's
    ``sel``/``unsel`` index row lists its selected/unselected positions in
    ascending order and its utility/weight caches carry verbatim.
    :meth:`write_back` returns the raced rows to the population.

    Hot-path layout: every row's ``sel`` index row, then every row's
    ``unsel`` index row, lie in one flat ``slots`` store of shard
    positions in the smallest unsigned type that holds ``N - 1`` (uint8 up
    to 256 shards, uint16 beyond).  A swap pair is an ``[out, in]`` pair of
    flat slot indices, so a round gathers each lane's two positions in one
    ``take`` and looks their tx and ``half_beta*value`` up in the
    ``N``-length per-shard arrays, which stay in cache; a fire reuses those
    positions and swaps them between its two slots in one scatter.  The
    cardinalities never change, so the uniform draws for many rounds are
    pre-shaped into slot-pair/log-variate blocks at once
    (:meth:`start_block`).
    """

    def __init__(
        self,
        population: _Population,
        instance: EpochInstance,
        config,
        retry_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.instance = instance
        self.retry_rng = retry_rng
        rows = population.rows
        num_shards = instance.num_shards
        racing = rows.ok & (rows.count > 0) & (rows.count < num_shards)
        static = rows.ok & ~racing
        self.static_current = (
            float(rows.utility[static].max()) if static.any() else float("-inf")
        )
        source = np.flatnonzero(racing)
        self.source = source
        size = source.size
        self.size = size
        masks = rows.masks[source]
        n_sel = rows.count[source]
        n_unsel = num_shards - n_sel
        max_sel = int(n_sel.max()) if size else 1
        max_unsel = int(n_unsel.max()) if size else 1
        self.max_sel = max_sel
        self.max_unsel = max_unsel
        self.num_shards = num_shards
        self.n_sel = n_sel
        self.n_unsel = n_unsel
        self._sel_slots = np.arange(max_sel) < n_sel[:, None]
        slot_dtype = np.min_scalar_type(max(num_shards - 1, 0))
        sel = np.zeros((size, max_sel), dtype=slot_dtype)
        unsel = np.zeros((size, max_unsel), dtype=slot_dtype)
        sel[self._sel_slots] = np.nonzero(masks)[1]
        unsel[np.arange(max_unsel) < n_unsel[:, None]] = np.nonzero(~masks)[1]
        self.utility = rows.utility[source]
        self.weight = rows.weight[source]
        family = population.cardinalities
        self.cards = family[source % family.size] if size else np.empty(0, dtype=np.int64)
        self.len_sel = self.n_sel.astype(np.float64)
        self.len_unsel = self.n_unsel.astype(np.float64)
        self.slack = instance.capacity - self.weight
        self.half_beta = 0.5 * config.beta
        self.log_mean_base = config.tau - np.log(self.len_unsel)
        self.pair_tries = config.pair_tries
        # The per-shard lookups a slot's position indexes: tx for the
        # capacity check (const. 4) and half_beta*value for the eq. (8)
        # exponent.
        self.tx_arr = np.asarray(instance.tx_counts, dtype=np.int64)
        self.values_arr = np.asarray(instance.values, dtype=np.float64)
        self.hbv_arr = self.half_beta * self.values_arr
        # One row-major slot store, selected before unselected, so a lane's
        # [out, in] slot pair is one gather.
        self.slots = np.concatenate([sel.reshape(-1), unsel.reshape(-1)])
        self.sel_flat = self.slots[: size * max_sel]
        self.rows = np.arange(size)
        self.off_sel = np.arange(size, dtype=np.int64) * max_sel
        self.off_unsel = size * max_sel + np.arange(size, dtype=np.int64) * max_unsel
        # Per-row [out, in] constants of a swap-pair draw (count, last index,
        # slot offset): (T, 2) for the lane-0 block, and repeated over the
        # retry lanes so a retry block converts without broadcasting.
        self._pair = (
            np.stack([self.len_sel, self.len_unsel], axis=1),
            np.stack([n_sel - 1, n_unsel - 1], axis=1),
            np.stack([self.off_sel, self.off_unsel], axis=1),
        )
        self._retry_pair = tuple(
            np.repeat(const[:, None], self.pair_tries - 1, axis=1) for const in self._pair
        )
        self.virtual_times = population.virtual_times.copy()
        # Segmented-argmin layout: rows scatter into an inf-padded (Γ, T_max)
        # rectangle at static positions (cardinalities never change between
        # event boundaries), so each replica's minimum armed timer is one
        # row-wise argmin over the rectangle — no per-group Python loop.
        # Slots beyond a group's size are written once and never touched, so
        # the pad buffer needs no per-round re-fill.
        num_groups = len(population.replica_ids)
        self.num_groups = num_groups
        sizes = racing.reshape(num_groups, -1).sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        self.group_starts = starts
        self.group_sizes = sizes
        pad_width = int(sizes.max()) if size else 1
        self._pad_width = pad_width
        row_group = np.repeat(np.arange(num_groups, dtype=np.int64), sizes)
        self.row_group = row_group
        self._pad_pos = row_group * pad_width + (self.rows - starts[row_group])
        self._padded = np.full(num_groups * pad_width, np.inf)
        self._group_index = np.arange(num_groups)
        # With every replica racing and finite eq. (8) exponents, a round
        # that rejects no lane-0 pair arms a finite timer in every replica,
        # so every replica fires.
        self._all_race = bool(sizes.all()) and bool(np.isfinite(self.hbv_arr).all())
        # A Ĉ that covers every shard's transactions rejects no swap (const. 4).
        self._capacity_binds = instance.capacity < int(self.tx_arr.sum())
        # Running current-utility max over racing rows (the scalar loop's
        # incremental rule: rescans only on downhill max fires).
        self.racing_current = float(self.utility.max()) if size else float("-inf")
        # Per-round fire results for the driver (rewritten by race_round).
        self.last_rows = np.empty(0, dtype=np.int64)
        self.last_groups = np.empty(0, dtype=np.int64)
        self.last_pos_out = np.empty(0, dtype=np.int64)
        self.last_pos_in = np.empty(0, dtype=np.int64)
        self.last_utilities = np.empty(0, dtype=np.float64)
        self.last_best_row = -1
        self.last_best_utility = float("-inf")
        self._blk: Optional[np.ndarray] = None
        self._blk_timer_base: Optional[np.ndarray] = None

    # -------------------------------------------------------------- #
    def start_block(self, rng: np.random.Generator, rounds: int) -> None:
        """Draw and pre-shape ``rounds`` rounds of main-stream uniforms.

        Two draws per block: a ``(rounds, T, 2)`` tensor of lane-0
        pair-index uniforms and a ``(rounds, T)`` tensor of Exp(1)
        inversion uniforms (one per thread-round — only the armed lane's
        timer is ever needed).  Rejected rows re-draw from the separate
        retry stream inside :meth:`race_round`, so this block's shape never
        depends on acceptance.
        """
        # [r, t] holds thread t's lane-0 [out, in] slots in round r.
        self._blk = _slot_pairs(rng.random((rounds, self.size, 2)), *self._pair)
        # Pre-fold the eq. (8) log-mean base and the Exp(1) inversion,
        # log(max(-log1p(-u), 1e-300)) + base, in place, so a round's timer
        # is just a gather and two adds on (T,) arrays.
        timer_base = rng.random((rounds, self.size))
        np.negative(timer_base, out=timer_base)
        np.log1p(timer_base, out=timer_base)
        np.negative(timer_base, out=timer_base)
        np.maximum(timer_base, 1e-300, out=timer_base)
        np.log(timer_base, out=timer_base)
        timer_base += self.log_mean_base
        self._blk_timer_base = timer_base

    def race_round(self, block_round: int) -> int:
        """One batched race round across all Γ replicas; returns the fire count.

        Semantics match the scalar Set-timer()/State-Transit pair: each
        thread tries up to ``pair_tries`` uniform swap pairs, arms an
        eq. (8) log-timer on the first capacity-feasible one (const. 4),
        and each replica fires its minimum armed timer.  Fire details land
        in the ``last_*`` arrays for the driver.  Fires across replicas are
        applied as one batch — each replica fires at most one row and the
        flat sel/unsel slots of distinct rows are disjoint, so the
        simultaneous scatter is exactly the sequential application.

        Fast path: the main block only carries lane-0 pairs, so acceptance
        is tested with (T,)-shaped ops; just the rejected rows draw and
        scan their remaining ``pair_tries - 1`` lanes from the retry
        stream.  The lane chosen per thread (first feasible) matches the
        scalar rejection loop's.  A Ĉ that covers every shard's
        transactions rejects nothing, so the const. (4) test is skipped.  A
        round that rejects no lane-0 pair while every replica races arms a
        finite timer in every replica, so it fires them all without
        filtering the winners.
        """
        if self.size == 0:
            self.last_rows = self.last_groups = np.empty(0, dtype=np.int64)
            self.last_best_row = -1
            return 0
        pairs = self._blk[block_round]  # (T, 2) lane-0 [out, in] slots
        timer_base = self._blk_timer_base[block_round]
        tx = self.tx_arr
        hbv = self.hbv_arr
        pos = self.slots.take(pairs)  # their shard positions
        pair_hbv = hbv.take(pos)
        timers = timer_base - pair_hbv[:, 1] + pair_hbv[:, 0]
        all_fire = self._all_race
        if self._capacity_binds:
            pair_tx = tx.take(pos)
            pend = np.flatnonzero((pair_tx[:, 1] - pair_tx[:, 0]) > self.slack)
            if pend.size:
                all_fire = False
                pairs = self._rearm_rejected(pend, pairs, pos, timers, timer_base)
        # Segmented per-replica argmin over the static inf-padded rectangle.
        padded = self._padded
        padded[self._pad_pos] = timers
        rect = padded.reshape(self.num_groups, self._pad_width)
        slots = rect.argmin(axis=1)
        win_log = rect[self._group_index, slots]
        if all_fire:
            groups = self._group_index
            rows = self.group_starts + slots
            self.virtual_times += np.exp(win_log.clip(LOG_DURATION_MIN, LOG_DURATION_MAX))
        else:
            # Empty groups / all-parked replicas stay at inf and do not fire.
            groups = np.flatnonzero(np.isfinite(win_log))
            if groups.size == 0:
                self.last_rows = self.last_groups = np.empty(0, dtype=np.int64)
                self.last_best_row = -1
                return 0
            rows = self.group_starts[groups] + slots[groups]
            self.virtual_times[groups] += np.exp(
                win_log[groups].clip(LOG_DURATION_MIN, LOG_DURATION_MAX)
            )
        # Batched State Transit over the winning rows: each swaps the
        # [out, in] positions its armed lane gathered between its two slots.
        fired = pos[rows]
        self.slots[pairs[rows]] = fired[:, ::-1]
        fired_tx = tx[fired]
        weight_delta = fired_tx[:, 1] - fired_tx[:, 0]
        self.weight[rows] += weight_delta
        self.slack[rows] -= weight_delta
        before = self.utility[rows]
        fired_values = self.values_arr[fired]
        after = before + (fired_values[:, 1] - fired_values[:, 0])
        self.utility[rows] = after
        # The scalar loop's incremental current-utility rule, applied to
        # the whole fire batch: a rise can only raise the max; a
        # downgrade of a max-holder forces one rescan.
        top = int(after.argmax())
        top_utility = float(after[top])
        if top_utility > self.racing_current:
            self.racing_current = top_utility
        elif np.any((before == self.racing_current) & (after < before)):
            self.racing_current = float(self.utility.max())
        self.last_rows = rows
        self.last_groups = groups
        self.last_pos_out = fired[:, 0]
        self.last_pos_in = fired[:, 1]
        self.last_utilities = after
        # Rows are replica-major ascending and argmax takes the first max,
        # so this reproduces the scalar loop's lowest-replica tie-break.
        self.last_best_row = int(rows[top])
        self.last_best_utility = top_utility
        return int(rows.size)

    def _rearm_rejected(self, pend, pairs, pos, timers, timer_base) -> np.ndarray:
        """Re-arm the rows ``pend`` whose lane-0 pair breaks Ĉ (const. 4).

        Each draws its remaining ``pair_tries - 1`` lanes from the retry
        stream and arms on the first feasible one; a row with none parks
        at an infinite timer.  Updates ``pos`` and ``timers`` in place and
        returns the round's slot pairs with the armed lanes in.
        """
        tries = self.pair_tries - 1
        if tries == 0:
            timers[pend] = np.inf  # single-try budget: rejected rows park
            return pairs
        if self.retry_rng is None:
            raise RuntimeError(
                "race_round needs a retry stream once a lane-0 pair is "
                "rejected; construct _VectorState with retry_rng"
            )
        sub = _slot_pairs(
            self.retry_rng.random((pend.size, tries, 2)),
            *(const.take(pend, axis=0) for const in self._retry_pair),
        )
        sub_pos = self.slots.take(sub)
        sub_tx = self.tx_arr.take(sub_pos)
        accepted = (sub_tx[..., 1] - sub_tx[..., 0]) <= self.slack[pend, None]
        # First feasible lane, as a flat (row, lane) index.
        lane = self.rows[: pend.size] * tries + accepted.argmax(axis=1)
        pairs = pairs.copy()
        pairs[pend] = sub.reshape(-1, 2).take(lane, axis=0)
        pend_pos = sub_pos.reshape(-1, 2).take(lane, axis=0)
        pos[pend] = pend_pos
        pend_hbv = self.hbv_arr.take(pend_pos)
        timers[pend] = timer_base.take(pend) - pend_hbv[:, 1] + pend_hbv[:, 0]
        # Parked: no feasible pair within the budget, so argmax fell back
        # to an infeasible first lane.
        timers[pend[~accepted.reshape(-1).take(lane)]] = np.inf
        return pairs

    def current_utility(self) -> float:
        """Best current utility across racing and static threads."""
        if self.size == 0:
            return self.static_current
        return max(self.static_current, self.racing_current)

    def solution_at(self, row: int) -> Solution:
        """Materialise row ``row`` as a :class:`Solution` (caches carried)."""
        count = int(self.n_sel[row])
        offset = int(self.off_sel[row])
        mask = np.zeros(self.num_shards, dtype=bool)
        mask[self.sel_flat[offset : offset + count]] = True
        return Solution.from_cached(
            self.instance,
            mask.view(np.uint8).tobytes(),
            float(self.utility[row]),
            int(self.weight[row]),
            count,
        )

    def write_back(self, population: _Population) -> None:
        """Return the raced rows (masks, caches) and replica clocks to ``population``."""
        rows = population.rows
        source = self.source
        rows.masks[source] = False
        rows.masks[
            np.repeat(source, self.n_sel),
            self.sel_flat.reshape(self.size, self.max_sel)[self._sel_slots],
        ] = True
        rows.utility[source] = self.utility
        rows.weight[source] = self.weight
        population.virtual_times = self.virtual_times


def run_vectorized(run: _EngineRun) -> SEResult:
    """Batched single-process race; arrays persist between event boundaries."""
    config = run.config
    telemetry = run.telemetry
    traced = run.traced
    race_rng = run.streams.get("vectorized-race")
    retry_rng = run.streams.get("vectorized-race-retry")
    population = run.population
    state: Optional[_VectorState] = None
    iteration = 0
    done = False
    while not done and iteration < config.max_iterations:
        if run.events_due(iteration):
            if state is not None:
                state.write_back(population)
                state = None
            run.apply_due_events(iteration)
        if state is None:
            state = _VectorState(population, run.instance, config, retry_rng=retry_rng)
        segment = run.segment_length(iteration)
        block_round = 0
        block_rounds = 0
        for round_index in range(iteration, iteration + segment):
            if block_round >= block_rounds:
                remaining = iteration + segment - round_index
                block_rounds = min(remaining, max(1, 65536 // max(1, state.size)))
                state.start_block(race_rng, block_rounds)
                block_round = 0
            transitions = state.race_round(block_round)
            block_round += 1
            if transitions:
                if traced:
                    _emit_transitions(
                        telemetry, round_index, state.last_groups,
                        state.cards[state.last_rows], state.last_pos_out,
                        state.last_pos_in, state.last_utilities,
                    )
                if state.last_best_utility > run.best.utility:
                    run.best = state.solution_at(state.last_best_row)
            current = state.current_utility()
            # Replica virtual clocks exist (and carry across events) even
            # when no thread races — an all-parked or swap-less population
            # must report the carried clock, not reset it to zero.
            virtual_time = float(state.virtual_times.max())
            if run.finish_round(round_index, current, virtual_time, transitions):
                done = True
                break
        else:
            iteration += segment
    if state is not None:
        state.write_back(population)
    return run.result()


# ------------------------------------------------------------------ #
# entry point
# ------------------------------------------------------------------ #
def run_engine(
    solver: StochasticExploration,
    instance: EpochInstance,
    schedule: Optional[DynamicSchedule] = None,
    probe: Optional[Callable[..., None]] = None,
    warm: Optional[SEWarmState] = None,
) -> SEResult:
    """Run one SE solve on the batched race kernel.

    Returns an :class:`~repro.core.se.SEResult` whose best solution
    satisfies const. (3) ``count >= N_min`` and const. (4) ``weight <= Ĉ``,
    deterministic for a given ``SEConfig.seed``.

    The race starts from one population, the ``(Γ·T, N)`` mask matrix
    of :class:`~repro.core.se._Population`: a cold solve draws it with
    one batched Alg. 2 pass, and ``warm`` adopts a prior run's
    population/streams/incumbent instead (see
    :meth:`StochasticExploration.solve`), re-seating it with one batched
    repair pass; dynamic events and probes work on the same rows.  The
    batched kernel races the matrix's rows directly — warm rows enter
    *pre-scored*, their incremental utility/weight caches carried
    verbatim, while the ``vectorized-race`` streams resume mid-sequence —
    and writes the raced rows back into the matrix, which the result's
    ``warm_state`` carries.
    """
    return run_vectorized(_EngineRun(solver, instance, schedule, probe, warm=warm))
