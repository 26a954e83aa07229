"""Execution engines for the Stochastic-Exploration race (Alg. 1).

:class:`repro.core.se.StochasticExploration` owns the algorithm; this module
owns *how fast it runs*.  Two engines share one driver
(:class:`_EngineRun`) that keeps everything observable on the calling
thread — bootstrap, dynamic events (Alg. 1 lines 9-12), probes, telemetry,
the :class:`~repro.core.convergence.ConvergenceDetector` and the incumbent
λ — so rule MV007 and the faultinject probe contract hold for every engine.
The paper's Γ "parallel threads" are Γ independent chains aiming at one
Gibbs target, not an OS-parallelism requirement, so both engines run them
in one process:

``serial``
    The reference scalar loop (the pre-engine ``solve`` body, verbatim).
    Golden tests pin it unchanged; it is the oracle for the batched kernel.

``vectorized``
    The fully-batched Γ×thread race kernel: **one** numpy race covers every
    replica's racing threads simultaneously.  Each round draws all racing
    threads' swap pairs and Exp(1) variates in one block from the named
    ``"vectorized-race"`` stream, evaluates eq. (8) as array ops over the
    whole population, finds each replica's minimum armed timer by a
    segmented (inf-padded rectangular) argmin — no per-replica Python loop —
    and applies all fires at once (one fire per replica touches disjoint
    rows, so the batch is exact).  It consumes randomness in a different
    order than the scalar engine, so it is validated *distributionally*
    (χ²/KS tests in ``tests/test_core_engines.py``), not byte-wise.

``auto`` (the :class:`~repro.core.se.SEConfig` default)
    Not a third engine but a selection rule (:func:`select_engine`): the
    scalar-vs-batched choice depends only on machine-independent quantities
    (the racing population ``Γ × threads`` and the dynamic-event density),
    so a seeded run picks the same engine on every box.  The decision is
    logged through the injected obs hub as an ``engine.auto`` event.

Vectorized stream layout (the engine's own named streams, independent of
the per-replica scalar streams): per race round the main
``"vectorized-race"`` stream supplies one ``(T, 3)`` uniform block —
column 0 a thread's lane-0 out-index draw, column 1 its lane-0 in-index
draw, column 2 its Exp(1) inversion draw — where ``T`` counts racing
threads **across all Γ replicas** in replica-major, cardinality-minor
order.  Main-stream consumption is therefore shape-constant per round.
Only rows whose lane-0 pair violates the capacity (const. 4) draw their
remaining ``pair_tries - 1`` candidate pairs from the separate
``"vectorized-race-retry"`` stream — one ``(rejected, pair_tries - 1, 2)``
block, first feasible lane wins, budget-exhausted rows park — so the
common case (ample slack) pays 3 uniforms per thread-round instead of the
scalar engine's up-to-33.  Both streams replay deterministically: the
retry block's size is a function of the trajectory, which is a function of
the seeds alone.  For speed the kernel draws many rounds of the main block
at once as ``(R, T, 3)``; retry blocks are always per-round.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

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
    _Replica,
    instances_match,
)
from repro.core.solution import Solution
from repro.core.timers import LOG_DURATION_MAX, LOG_DURATION_MIN
from repro.sim.rng import RandomStreams

#: Concrete engines (each names a ``run_*`` implementation below).
ENGINE_NAMES = ("serial", "vectorized")

#: The selection rule accepted by ``SEConfig(engine=...)`` alongside the
#: concrete engines; resolved per solve by :func:`select_engine`.
AUTO_ENGINE = "auto"

#: Everything ``SEConfig(engine=...)`` accepts.
SELECTABLE_ENGINES = (AUTO_ENGINE,) + ENGINE_NAMES

#: Racing population ``Γ × racing threads`` at which the batched kernel's
#: per-round numpy dispatch overhead is amortised and it beats the scalar
#: loop.  Measured on the bench box (``benchmarks/bench_se_engines.py``):
#: the crossover sits near work ≈ 60; 192 leaves a ~3x safety margin so
#: ``auto`` is never slower than serial.  Machine-independent on purpose —
#: this threshold decides the *trajectory* (scalar vs batched draws), so it
#: must not consult ``cpu_count``.
AUTO_VECTORIZE_MIN_WORK = 192

#: Mean rounds between dynamic-event boundaries below which ``auto`` stays
#: on the scalar family: each boundary forces the batched kernel to sync
#: its arrays back into thread objects and rebuild them, which dominates
#: short segments.  Also machine-independent (schedule-derived only).
AUTO_DENSE_GAP_ROUNDS = 64


def count_racing_threads(replica: _Replica) -> int:
    """Threads of one replica that can race (hold a swappable solution)."""
    return sum(
        1 for thread in replica.threads
        if thread.solution is not None and thread.sel and thread.unsel
    )


def schedule_mean_gap(schedule: Optional[DynamicSchedule], max_iterations: int) -> float:
    """Mean rounds between dynamic-event boundaries over the run budget.

    Events sharing an iteration are one boundary (they are applied
    together).  ``inf`` for a static run, so the density check below is a
    single comparison either way.
    """
    if schedule is None or len(schedule) == 0:
        return float("inf")
    boundaries = len({event.iteration for event in schedule.events})
    return max_iterations / (boundaries + 1)


def select_engine(
    config,
    racing_threads: int,
    schedule: Optional[DynamicSchedule] = None,
) -> Tuple[str, str]:
    """Resolve ``engine="auto"`` to a concrete engine; returns (engine, reason).

    The decision keeps seeded runs reproducible across machines: the
    scalar-vs-batched split (which changes the randomness consumption
    order, hence the trajectory) depends only on the racing population and
    the event density — both derived from the config/instance/schedule.
    """
    work = config.num_threads * racing_threads
    mean_gap = schedule_mean_gap(schedule, config.max_iterations)
    dense = mean_gap < AUTO_DENSE_GAP_ROUNDS
    if not dense and work >= AUTO_VECTORIZE_MIN_WORK:
        return (
            "vectorized",
            f"work={work} >= {AUTO_VECTORIZE_MIN_WORK}: batched kernel amortises",
        )
    if dense and work >= AUTO_VECTORIZE_MIN_WORK:
        return (
            "serial",
            f"dense schedule (gap {mean_gap:.0f} rounds): array rebuild "
            "per boundary would dominate the batched kernel",
        )
    return "serial", f"work={work} < {AUTO_VECTORIZE_MIN_WORK}: scalar loop wins"


# ------------------------------------------------------------------ #
# shared driver state
# ------------------------------------------------------------------ #
class _EngineRun:
    """Driver-side bookkeeping shared by all engines.

    Owns exactly the state the pre-engine ``solve`` loop kept on its stack:
    the named streams, the replicas, the incumbent, traces, detector and
    applied events.  Engines differ only in how they advance the replicas
    between event boundaries.
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
        self.engine = solver.config.engine  # run_engine resolves "auto"
        self.telemetry = solver.telemetry
        self.traced = solver.telemetry.enabled  # hoisted: race loops pay one load
        self.instance = instance
        self.schedule = schedule
        self.probe = probe
        if warm is None:
            self.generation = 0
            self.streams = RandomStreams(self.config.seed)
            self.replicas = solver._spawn_replicas(instance, self.streams)
        else:
            # Warm start: adopt the carried replicas/streams in place.  The
            # streams registry's cached generators make every named stream
            # (init, leave, vectorized-race) *continue* across the handoff.
            self.generation = warm.generation
            self.streams = warm.streams
            self.warm_stats = solver._adopt_replicas(warm, instance)
            self.replicas = warm.replicas
        if not any(thread.active for replica in self.replicas for thread in replica.threads):
            raise InfeasibleEpochError(
                "no feasible solution at any thread cardinality; capacity too small"
            )
        if schedule is not None:
            schedule.reset()
        if self.traced:
            cardinalities = [t.cardinality for t in self.replicas[0].threads]
            if warm is None:
                self.telemetry.event(
                    "se.bootstrap",
                    replicas=len(self.replicas),
                    solution_threads=len(cardinalities),
                    n_lo=min(cardinalities),
                    n_hi=max(cardinalities),
                    num_shards=instance.num_shards,
                    capacity=instance.capacity,
                )
            else:
                self.telemetry.event(
                    "se.warm_start",
                    replicas=len(self.replicas),
                    solution_threads=len(cardinalities),
                    generation=self.generation,
                    num_shards=instance.num_shards,
                    **self.warm_stats,
                )
        self.detector = ConvergenceDetector(
            window=self.config.convergence_window, tolerance=self.config.tolerance
        )
        if warm is None:
            best = solver._best_current(self.replicas)
            self.best = solver._maybe_full_solution(instance, best)
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
            best = solver._pick_better(best, solver._best_current(self.replicas))
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
                replicas=self.replicas,
            )
        self.utility_trace: List[float] = []
        self.current_trace: List[float] = []
        self.time_trace: List[float] = []
        self.events_applied: List[CommitteeEvent] = []
        self.converged = False
        self.iterations = 0

    # -------------------------------------------------------------- #
    def apply_due_events(self, iteration: int) -> None:
        """Alg. 1 lines 9-12 at one boundary (identical to the serial loop)."""
        if self.schedule is None:
            return
        fired_events = self.schedule.due(iteration)
        if not fired_events:
            return
        solver = self.solver
        self.instance = solver._apply_events(
            self.instance, self.replicas, fired_events, self.streams,
            generation=self.generation,
        )
        self.events_applied.extend(fired_events)
        self.detector.reset()
        self.best = solver._rebase_best(self.best, self.instance)
        self.best = solver._pick_better(self.best, solver._best_current(self.replicas))
        self.best = solver._maybe_full_solution(self.instance, self.best)
        if self.probe is not None:
            self.probe(
                iteration=iteration,
                events=fired_events,
                instance=self.instance,
                best=self.best,
                replicas=self.replicas,
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
        exhausted — the loop-break condition of the serial engine.
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
            thread_cardinalities=[t.cardinality for t in self.replicas[0].threads],
            engine=self.engine,
            num_replicas=len(self.replicas),
            events_applied=self.events_applied,
            final_instance=self.instance,
            warm_state=SEWarmState(
                replicas=self.replicas,
                streams=self.streams,
                best=self.best,
                instance=self.instance,
                generation=self.generation + 1,
            ),
        )


# ------------------------------------------------------------------ #
# serial engine (reference)
# ------------------------------------------------------------------ #
def run_serial(run: _EngineRun) -> SEResult:
    """The reference scalar loop — the pre-engine ``solve`` body."""
    config = run.config
    telemetry = run.telemetry
    traced = run.traced
    for iteration in range(config.max_iterations):
        run.apply_due_events(iteration)
        round_best: Optional[Solution] = None
        transitions = 0
        for replica_index, replica in enumerate(run.replicas):
            fired = replica.race_round()
            if fired is not None and fired.solution is not None:
                transitions += 1
                if traced:
                    swap_out, swap_in = fired.last_swap or (-1, -1)
                    telemetry.event(
                        "se.transition",
                        iteration=iteration,
                        replica=replica_index,
                        cardinality=fired.cardinality,
                        swap_out=swap_out,
                        swap_in=swap_in,
                        utility=fired.solution.utility,
                    )
                if round_best is None or fired.solution.utility > round_best.utility:
                    round_best = fired.solution
        run.best = run.solver._pick_better(run.best, round_best)
        current = max(replica.current_utility for replica in run.replicas)
        virtual_time = max(replica.virtual_time for replica in run.replicas)
        if run.finish_round(iteration, current, virtual_time, transitions):
            break
    return run.result()


# ------------------------------------------------------------------ #
# vectorized engine (batched race kernel, distributional)
# ------------------------------------------------------------------ #
class _VectorState:
    """Flattened array mirror of every *racing* solution thread, Γ-wide.

    A thread races when it holds a solution with both selected and
    unselected positions; threads with nothing to swap (e.g. the
    full-cardinality :math:`f_{|I_j|}`) contribute a constant
    ``static_current`` instead.  Rows span **all Γ replicas** in
    replica-major order; each replica's rows additionally scatter into one
    row of a static inf-padded ``(Γ, T_max)`` rectangle, so the per-replica
    minimum-timer reduction is a single row-wise ``argmin`` over the
    rectangle and the whole round — arming, racing, and every replica's
    fire — is one batch of array ops with no per-group Python loop.

    Hot-path layout: per-thread ``sel``/``unsel`` index rows are stored as
    flat arrays together with ``tx``/``half_beta*value`` gather mirrors, so
    one round costs a handful of ``take`` gathers on ``(T,)`` arrays.  The
    cardinalities never change, so the uniform draws for many rounds are
    pre-shaped into index/log-variate blocks at once
    (:meth:`start_block`) — stream-equivalent to per-round draws.
    """

    def __init__(
        self,
        replicas: List[_Replica],
        instance: EpochInstance,
        config,
        retry_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.instance = instance
        self.replicas = replicas
        self.retry_rng = retry_rng
        self.threads: List = []
        self.groups: List[Tuple[int, int]] = []
        static_current = float("-inf")
        for replica in replicas:
            start = len(self.threads)
            for thread in replica.threads:
                if thread.solution is None:
                    continue
                if thread.sel and thread.unsel:
                    self.threads.append(thread)
                else:
                    static_current = max(static_current, thread.solution.utility)
            self.groups.append((start, len(self.threads)))
        self.static_current = static_current
        size = len(self.threads)
        self.size = size
        num_shards = instance.num_shards
        max_sel = max((len(t.sel) for t in self.threads), default=1)
        max_unsel = max((len(t.unsel) for t in self.threads), default=1)
        self.max_sel = max_sel
        self.max_unsel = max_unsel
        self.num_shards = num_shards
        sel = np.zeros((size, max_sel), dtype=np.int64)
        unsel = np.zeros((size, max_unsel), dtype=np.int64)
        self.n_sel = np.zeros(size, dtype=np.int64)
        self.n_unsel = np.zeros(size, dtype=np.int64)
        self.utility = np.zeros(size, dtype=np.float64)
        self.weight = np.zeros(size, dtype=np.int64)
        self.cards = np.zeros(size, dtype=np.int64)
        for row, thread in enumerate(self.threads):
            solution = thread.solution
            sel[row, : len(thread.sel)] = thread.sel
            unsel[row, : len(thread.unsel)] = thread.unsel
            self.n_sel[row] = len(thread.sel)
            self.n_unsel[row] = len(thread.unsel)
            self.utility[row] = solution.utility
            self.weight[row] = solution.weight
            self.cards[row] = thread.cardinality
        self.len_sel = self.n_sel.astype(np.float64)
        self.len_unsel = self.n_unsel.astype(np.float64)
        self.slack = instance.capacity - self.weight
        self.half_beta = 0.5 * config.beta
        self.log_mean_base = config.tau - np.log(self.len_unsel)
        self.pair_tries = config.pair_tries
        # Flat row-major stores plus gather mirrors: tx for the capacity
        # check (const. 4) and half_beta*value for the eq. (8) exponent.
        tx = np.asarray(instance.tx_counts, dtype=np.int64)
        values = np.asarray(instance.values, dtype=np.float64)
        hbv = self.half_beta * values
        self.tx_arr = tx
        self.values_arr = values
        self.hbv_arr = hbv
        self.sel_flat = sel.reshape(-1)
        self.unsel_flat = unsel.reshape(-1)
        self.tx_sel = tx[sel].reshape(-1)
        self.tx_unsel = tx[unsel].reshape(-1)
        self.hbv_sel = hbv[sel].reshape(-1)
        self.hbv_unsel = hbv[unsel].reshape(-1)
        self.rows = np.arange(size)
        self.off_sel = (np.arange(size, dtype=np.int64) * max_sel)
        self.off_unsel = (np.arange(size, dtype=np.int64) * max_unsel)
        self.virtual_times = np.array(
            [replica.virtual_time for replica in replicas], dtype=np.float64
        )
        # Segmented-argmin layout: rows scatter into an inf-padded (Γ, T_max)
        # rectangle at static positions (cardinalities never change between
        # event boundaries), so each replica's minimum armed timer is one
        # row-wise argmin over the rectangle — no per-group Python loop.
        # Slots beyond a group's size are written once and never touched, so
        # the pad buffer needs no per-round re-fill.
        num_groups = len(self.groups)
        self.num_groups = num_groups
        starts = np.array([start for start, _ in self.groups], dtype=np.int64)
        sizes = np.array([end - start for start, end in self.groups], dtype=np.int64)
        self.group_starts = starts
        self.group_sizes = sizes
        pad_width = int(sizes.max()) if size else 1
        self._pad_width = pad_width
        row_group = np.repeat(np.arange(num_groups, dtype=np.int64), sizes)
        self.row_group = row_group
        self._pad_pos = row_group * pad_width + (self.rows - starts[row_group])
        self._padded = np.full(num_groups * pad_width, np.inf)
        self._group_index = np.arange(num_groups)
        # Running current-utility max over racing rows (same incremental
        # rule as _Replica.race_round, rescans only on downhill max fires).
        self.racing_current = float(self.utility.max()) if size else float("-inf")
        # Per-round fire results for the driver (rewritten by race_round).
        self.last_rows = np.empty(0, dtype=np.int64)
        self.last_groups = np.empty(0, dtype=np.int64)
        self.last_pos_out = np.empty(0, dtype=np.int64)
        self.last_pos_in = np.empty(0, dtype=np.int64)
        self.last_utilities = np.empty(0, dtype=np.float64)
        self.last_best_row = -1
        self.last_best_utility = float("-inf")
        self._blk_out: Optional[np.ndarray] = None
        self._blk_in: Optional[np.ndarray] = None
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
        draws = rng.random((rounds, self.size, 2))
        out = (draws[..., 0] * self.len_sel).astype(np.int64)
        np.minimum(out, self.n_sel - 1, out=out)
        out += self.off_sel
        inn = (draws[..., 1] * self.len_unsel).astype(np.int64)
        np.minimum(inn, self.n_unsel - 1, out=inn)
        inn += self.off_unsel
        self._blk_out = out
        self._blk_in = inn
        exp_draws = rng.random((rounds, self.size))
        # Pre-fold the eq. (8) log-mean base and the Exp(1) inversion so a
        # round's timer is just two gathers and two adds on (T,) arrays.
        self._blk_timer_base = self.log_mean_base + np.log(
            np.maximum(-np.log1p(-exp_draws), 1e-300)
        )

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
        scalar rejection loop's.
        """
        if self.size == 0:
            self.last_rows = self.last_groups = np.empty(0, dtype=np.int64)
            self.last_best_row = -1
            return 0
        flat_out = self._blk_out[block_round]  # (T,) lane-0 pair rows
        flat_in = self._blk_in[block_round]
        timer_base = self._blk_timer_base[block_round]
        rejected = (
            self.tx_unsel.take(flat_in) - self.tx_sel.take(flat_out)
        ) > self.slack
        timers = (
            timer_base
            - self.hbv_unsel.take(flat_in)
            + self.hbv_sel.take(flat_out)
        )
        if rejected.any():
            pend = np.flatnonzero(rejected)
            tries = self.pair_tries - 1
            if tries == 0:
                timers[pend] = np.inf  # single-try budget: rejected rows park
            else:
                if self.retry_rng is None:
                    raise RuntimeError(
                        "race_round needs a retry stream once a lane-0 pair is "
                        "rejected; construct _VectorState with retry_rng"
                    )
                retry = self.retry_rng.random((pend.size, tries, 2))
                sub_out = (retry[..., 0] * self.len_sel[pend, None]).astype(np.int64)
                np.minimum(sub_out, self.n_sel[pend, None] - 1, out=sub_out)
                sub_out += self.off_sel[pend, None]
                sub_in = (retry[..., 1] * self.len_unsel[pend, None]).astype(np.int64)
                np.minimum(sub_in, self.n_unsel[pend, None] - 1, out=sub_in)
                sub_in += self.off_unsel[pend, None]
                accepted = (
                    self.tx_unsel.take(sub_in) - self.tx_sel.take(sub_out)
                ) <= self.slack[pend, None]
                lane = np.argmax(accepted, axis=1)  # first feasible lane
                sub_rows = self.rows[: pend.size]
                pend_out = sub_out[sub_rows, lane]
                pend_in = sub_in[sub_rows, lane]
                flat_out = flat_out.copy()
                flat_in = flat_in.copy()
                flat_out[pend] = pend_out
                flat_in[pend] = pend_in
                timers[pend] = (
                    timer_base.take(pend)
                    - self.hbv_unsel.take(pend_in)
                    + self.hbv_sel.take(pend_out)
                )
                # Parked: no feasible pair within the budget.
                timers[pend[~accepted.any(axis=1)]] = np.inf
        # Segmented per-replica argmin over the static inf-padded rectangle.
        padded = self._padded
        padded[self._pad_pos] = timers
        rect = padded.reshape(self.num_groups, self._pad_width)
        slots = rect.argmin(axis=1)
        win_log = rect[self._group_index, slots]
        # Empty groups / all-parked replicas stay at inf and do not fire.
        groups = np.flatnonzero(np.isfinite(win_log))
        if groups.size == 0:
            self.last_rows = self.last_groups = np.empty(0, dtype=np.int64)
            self.last_best_row = -1
            return 0
        rows = self.group_starts[groups] + slots[groups]
        self.virtual_times[groups] += np.exp(
            np.clip(win_log[groups], LOG_DURATION_MIN, LOG_DURATION_MAX)
        )
        # Batched State Transit over the winning rows.
        f_out = flat_out[rows]
        f_in = flat_in[rows]
        pos_out = self.sel_flat[f_out]  # fancy gather: already copies
        pos_in = self.unsel_flat[f_in]
        self.sel_flat[f_out] = pos_in
        self.unsel_flat[f_in] = pos_out
        tx_in = self.tx_arr[pos_in]
        tx_out = self.tx_arr[pos_out]
        self.tx_sel[f_out] = tx_in
        self.tx_unsel[f_in] = tx_out
        self.hbv_sel[f_out] = self.hbv_arr[pos_in]
        self.hbv_unsel[f_in] = self.hbv_arr[pos_out]
        weight_delta = tx_in - tx_out
        self.weight[rows] += weight_delta
        self.slack[rows] -= weight_delta
        before = self.utility[rows]
        after = before + (self.values_arr[pos_in] - self.values_arr[pos_out])
        self.utility[rows] = after
        # Same incremental current-utility rule as _Replica.race_round,
        # applied to the whole fire batch: a rise can only raise the max; a
        # downgrade of a max-holder forces one rescan.
        top = int(np.argmax(after))
        top_utility = float(after[top])
        if top_utility > self.racing_current:
            self.racing_current = top_utility
        elif np.any((before == self.racing_current) & (after < before)):
            self.racing_current = float(self.utility.max())
        self.last_rows = rows
        self.last_groups = groups
        self.last_pos_out = pos_out
        self.last_pos_in = pos_in
        self.last_utilities = after
        # Rows are replica-major ascending and argmax takes the first max,
        # so this reproduces the serial lowest-replica tie-break.
        self.last_best_row = int(rows[top])
        self.last_best_utility = top_utility
        return int(rows.size)

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

    def sync_back(self) -> None:
        """Write array state back into the thread objects (event boundaries)."""
        for row, thread in enumerate(self.threads):
            thread.set_solution(self.solution_at(row))
        for group, replica in enumerate(self.replicas):
            replica.virtual_time = float(self.virtual_times[group])
            replica.recompute_current()


def run_vectorized(run: _EngineRun) -> SEResult:
    """Batched single-process race; arrays persist between event boundaries."""
    config = run.config
    telemetry = run.telemetry
    traced = run.traced
    race_rng = run.streams.get("vectorized-race")
    retry_rng = run.streams.get("vectorized-race-retry")
    state: Optional[_VectorState] = None
    iteration = 0
    done = False
    while not done and iteration < config.max_iterations:
        schedule = run.schedule
        if (
            schedule is not None
            and not schedule.exhausted
            and schedule.next_iteration <= iteration
        ):
            if state is not None:
                state.sync_back()
                state = None
            run.apply_due_events(iteration)
        if state is None:
            state = _VectorState(run.replicas, run.instance, config, retry_rng=retry_rng)
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
                    for k in range(transitions):
                        row = int(state.last_rows[k])
                        telemetry.event(
                            "se.transition",
                            iteration=round_index,
                            replica=int(state.last_groups[k]),
                            cardinality=int(state.cards[row]),
                            swap_out=int(state.last_pos_out[k]),
                            swap_in=int(state.last_pos_in[k]),
                            utility=float(state.last_utilities[k]),
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
        state.sync_back()
    return run.result()


# ------------------------------------------------------------------ #
# dispatch
# ------------------------------------------------------------------ #
def run_engine(
    solver: StochasticExploration,
    instance: EpochInstance,
    schedule: Optional[DynamicSchedule] = None,
    probe: Optional[Callable[..., None]] = None,
    warm: Optional[SEWarmState] = None,
) -> SEResult:
    """Run one SE solve on the engine named by ``solver.config.engine``.

    All engines return an :class:`~repro.core.se.SEResult` whose best
    solution satisfies const. (3) ``count >= N_min`` and const. (4)
    ``weight <= Ĉ``; ``serial`` is deterministic for a given
    ``SEConfig.seed`` and ``vectorized`` matches it distributionally.
    ``"auto"`` resolves through :func:`select_engine` (a machine-independent
    scalar-vs-batched split) and logs the decision as an ``engine.auto``
    telemetry event.

    ``warm`` adopts a prior run's replicas/streams/incumbent before the
    race starts (see :meth:`StochasticExploration.solve`).  Both engines
    accept warm state: the scalar loop continues the carried thread
    streams, and the batched kernel rebuilds its flat row
    space from the adopted threads so warm rows enter *pre-scored* (their
    incremental utility/weight caches transfer verbatim) while the
    ``vectorized-race`` streams resume mid-sequence.  ``"auto"``
    re-evaluates its split on the *adopted* population each solve, so the
    scalar-vs-batched choice tracks the committee count as it drifts
    across epochs.
    """
    run = _EngineRun(solver, instance, schedule, probe, warm=warm)
    engine = solver.config.engine
    if engine == AUTO_ENGINE:
        racing = count_racing_threads(run.replicas[0])
        engine, reason = select_engine(solver.config, racing, schedule=schedule)
        if run.traced:
            run.telemetry.event(
                "engine.auto",
                engine=engine,
                reason=reason,
                work=solver.config.num_threads * racing,
                racing_threads=racing,
            )
        run.engine = engine
    if engine == "vectorized":
        return run_vectorized(run)
    return run_serial(run)
