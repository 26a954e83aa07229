"""The Online Distributed Stochastic-Exploration algorithm (Algs. 1-3).

Structure (Section IV-D, Fig. 5): the algorithm runs Γ *distributed
parallel execution threads*; each executor hosts the full family of
solution threads :math:`\\{f_n\\}` -- one per feasible cardinality ``n``
(Alg. 1 line 3) -- together with their timers :math:`\\{T_n\\}`.  Within an
executor the solutions race: every solution holds an armed exponential
timer (Alg. 3) for a pre-chosen swap pair :math:`(\\tilde i, \\ddot i)`
whose mean follows eq. (8); the first timer to expire performs its swap
("State Transit") and broadcasts RESET, so every solution re-draws its pair
and timer against the new utilities.  Across executors the replicas explore
independently and the final committee takes the best converged solution
(Alg. 1 lines 22-27) -- which is exactly why Fig. 8 shows larger Γ
converging faster per iteration and to a higher utility, saturating once
additional replicas stop finding new basins.

One race round is simulated exactly: timers are independent exponentials,
so (i) drawing each solution's pair uniformly and its log-duration from
eq. (8), then (ii) firing the minimum, reproduces the race's distribution;
the RESET broadcast is the re-draw at the top of the next round.

Numerics: timer arithmetic runs in log space (:mod:`repro.core.timers`)
because :math:`\\beta\\,\\Delta U` routinely exceeds float range on the
paper's workloads; durations are clamped into a finite range only when
added to the virtual clock -- the practical realisation of the paper's
:math:`\\tau` "conditional constant [avoiding] the zero-floored computing
error of the exp function".

Dynamic events (Alg. 1 lines 9-12): a LEAVE re-initialises every solution
that contained the failed committee (the trimmed-space behaviour of
Section V) and rebases the rest; a JOIN rebases all solutions onto the
grown instance -- the DDL, and therefore every shard's value, re-evaluates.
Both reset the convergence detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.problem import DEFAULT_BETA, DEFAULT_TAU, EpochInstance
from repro.core.repair import RowRepair, repair_feasibility, resize_rows, row_utility
from repro.core.solution import Solution
from repro.core.timers import clamped_exp
from repro.analysis.contracts import feasible_result
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams, spawn_fast_rng


class InfeasibleEpochError(ValueError):
    """Raised when an epoch admits no feasible selection at all."""


@dataclass(frozen=True)
class SEConfig:
    """Tunables of the SE algorithm (paper defaults: β=2, τ=0).

    ``num_threads`` is the paper's Γ, the number of executor replicas.
    ``max_solution_threads`` caps how many per-cardinality solution threads
    :math:`f_n` each replica instantiates (the feasible cardinality range
    is subsampled evenly when wider); ``None`` means one per feasible
    cardinality, exactly as in Alg. 1.  ``pair_tries`` bounds the rejection
    sampling used to find a capacity-feasible swap pair in Set-timer();
    ``init_tries`` bounds Alg. 2's "re-pick until Cons. (4) holds" loop.

    ``engine`` selects the execution engine (:mod:`repro.core.engine`):
    the default ``"auto"`` resolves per solve via
    :func:`repro.core.engine.select_engine` (machine-independent
    scalar-vs-batched split, so seeded trajectories reproduce everywhere);
    ``"serial"`` is the reference scalar loop and ``"vectorized"`` runs
    the fully-batched Γ×thread race kernel validated distributionally.
    """

    beta: float = DEFAULT_BETA
    tau: float = DEFAULT_TAU
    num_threads: int = 10
    max_iterations: int = 10_000
    convergence_window: int = 1_000
    tolerance: float = 1e-9
    seed: int = 0
    pair_tries: int = 16
    init_tries: int = 200
    include_full_solution: bool = True
    max_solution_threads: Optional[int] = 64
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.num_threads <= 0:
            raise ValueError("num_threads (Gamma) must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.pair_tries <= 0 or self.init_tries <= 0:
            raise ValueError("retry budgets must be positive")
        if self.max_solution_threads is not None and self.max_solution_threads <= 0:
            raise ValueError("max_solution_threads must be positive or None")
        # Mirrors repro.core.engine.SELECTABLE_ENGINES (engine imports se,
        # so validating against the literal avoids the circular import).
        if self.engine not in ("auto", "serial", "vectorized"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected auto, serial "
                "or vectorized"
            )


@dataclass
class SEResult:
    """Outcome of one SE run.

    ``utility_trace[k]`` is the best utility seen up to race round ``k``;
    ``current_trace[k]`` is the best *current* solution utility across
    replicas at round ``k`` -- the series that dips when a committee fails
    (Fig. 9a).  ``virtual_time_trace`` is cumulative virtual seconds (the
    parallel executors' wall clock, i.e. the slowest replica's race time).
    ``engine`` names the engine that ran (``serial`` or ``vectorized``;
    ``"auto"`` is resolved before the race starts).
    """

    best_mask: np.ndarray
    best_utility: float
    best_weight: int
    best_count: int
    iterations: int
    converged: bool
    utility_trace: np.ndarray
    current_trace: np.ndarray
    virtual_time_trace: np.ndarray
    thread_cardinalities: List[int]
    engine: str
    num_replicas: int = 1
    events_applied: List[CommitteeEvent] = field(default_factory=list)
    final_instance: Optional[EpochInstance] = None
    warm_state: Optional["SEWarmState"] = None

    @property
    def valuable_degree_inputs(self) -> tuple:
        """(mask, instance) pair for metrics; instance reflects final dynamics."""
        return self.best_mask, self.final_instance


@dataclass
class SEWarmState:
    """Carryable solver state: everything epoch *e+1* can reuse from epoch *e*.

    ``population`` is the live Γ×thread population (:class:`_Population`:
    one mask matrix with the per-row solution caches, thread streams and
    replica clocks); ``streams`` is the run's
    :class:`~repro.sim.rng.RandomStreams` registry, whose cached generators
    *continue* (init/leave/vectorized-race streams resume mid-sequence
    rather than restarting); ``best`` is the incumbent λ and ``instance``
    the epoch it was scored against.  ``generation`` counts warm handoffs
    and namespaces the streams of threads spawned after the first epoch, so
    cross-epoch spawns never correlate.

    A warm state is *consumed* by ``solve(warm=...)``: the adopting run
    re-seats this population in place and races it, so reusing one warm
    state for two solves is undefined.  Chain linearly — each result's
    ``warm_state`` seeds exactly the next solve (the serve loop's usage).
    """

    population: "_Population"
    streams: RandomStreams
    best: Solution
    instance: EpochInstance
    generation: int = 1

    @property
    def replicas(self) -> List["_Replica"]:
        """The population as executor/thread objects (built on first read)."""
        return self.population.replicas


class _ThreadRng:
    """Per-thread random stream for the race hot path.

    The race needs tens of millions of scalar draws; the stdlib Mersenne
    Twister's C-level ``random()`` is an order of magnitude cheaper per
    call than a ``numpy.random.Generator`` scalar draw, and each thread
    owning its own named stream (via :func:`repro.sim.rng.spawn_fast_rng`)
    preserves stream isolation.  Only the serial engine draws from it, so
    the stream is seeded on its first draw: a thread that never races
    scalar never pays the seed derivation.
    """

    __slots__ = ("_seed_stream", "_stream")

    def __init__(self, root_seed: int, name: str) -> None:
        # Deferred, not skipped: the first draw runs this seeding (and the
        # stream-key lint still sees ``name`` flow into spawn_fast_rng).
        self._seed_stream = lambda: spawn_fast_rng(root_seed, name)
        self._stream = None

    @property
    def _rnd(self):
        """The Mersenne Twister behind this stream (seeded on first use)."""
        if self._stream is None:
            self._stream = self._seed_stream()
        return self._stream

    @property
    def uniform(self):
        """The bound ``random()`` method (bind once per hot loop)."""
        return self._rnd.random


# A thread's armed timer is the tuple (log_duration, index_out, index_in);
# plain tuples keep the race's per-round allocation cost negligible.
class _SolutionThread:
    """One solution thread :math:`f_n` (state machine of Fig. 6)."""

    __slots__ = ("cardinality", "rng", "config", "solution", "timer", "active", "sel", "unsel", "loc", "last_swap")

    def __init__(self, cardinality: int, thread_rng: _ThreadRng, config: SEConfig) -> None:
        self.cardinality = cardinality
        self.rng = thread_rng
        self.config = config
        self.solution: Optional[Solution] = None
        self.timer: Optional[tuple] = None
        self.active = False
        # Index bookkeeping for O(1) uniform pair sampling: ``sel``/``unsel``
        # list the selected/unselected positions and ``loc[p]`` is position
        # p's slot in whichever list currently holds it.
        self.sel: list = []
        self.unsel: list = []
        self.loc: list = []
        self.last_swap: Optional[tuple] = None

    def set_solution(self, solution: Optional[Solution]) -> None:
        """Install a solution and rebuild the pair-sampling index lists.

        Vectorised: ``flatnonzero`` yields the same ascending position
        order the original scalar scan produced, so serial trajectories
        (which draw pairs by list slot) are byte-identical either way.
        This runs Γ×T times at spawn and at every engine sync-back, which
        made the scalar scan a measurable fixed cost for the batched
        kernel on thread-rich instances.
        """
        self.solution = solution
        self.timer = None
        if solution is None:
            self.sel, self.unsel, self.loc = [], [], []
            self.active = False
            return
        mask = solution.mask
        sel_arr = np.flatnonzero(mask)
        unsel_arr = np.flatnonzero(~mask)
        loc = np.empty(mask.size, dtype=np.int64)
        loc[sel_arr] = np.arange(sel_arr.size)
        loc[unsel_arr] = np.arange(unsel_arr.size)
        self.sel = sel_arr.tolist()
        self.unsel = unsel_arr.tolist()
        self.loc = loc.tolist()
        self.active = True

    # -------------------------------------------------------------- #
    # Alg. 2: Initialization()
    # -------------------------------------------------------------- #
    def initialize(self, instance: EpochInstance, np_rng: np.random.Generator) -> bool:
        """Random feasible solution with exactly ``self.cardinality`` shards.

        Alg. 2 for this one thread: :func:`_initialize_rows` over a
        single row, so a thread re-seated at a dynamic event draws exactly
        as a bootstrapped one.
        """
        rows = _initialize_rows(instance, [(np_rng, [self.cardinality])])
        self.set_solution(_row_solution(instance, rows, 0) if rows.ok[0] else None)
        return bool(rows.ok[0])

    # -------------------------------------------------------------- #
    # Alg. 3: Set-timer()
    # -------------------------------------------------------------- #
    def set_timer(self) -> None:
        """Choose a random swap pair and arm an exponential timer (eq. 8).

        Pairs whose swap would violate the capacity are rejected and
        redrawn; if no feasible pair surfaces within the retry budget the
        thread parks (no timer) until the next RESET re-arms it.

        Hot path: the pair is drawn uniformly from the maintained
        selected/unselected index lists (two draws, no rejection against
        the mask) and scalar reads go through the instance's plain-list
        mirrors.
        """
        self.timer = None
        solution = self.solution
        if not self.active or solution is None:
            return
        sel, unsel = self.sel, self.unsel
        len_sel, len_unsel = len(sel), len(unsel)
        if len_sel == 0 or len_unsel == 0:
            return
        uniform = self.rng.uniform
        instance = solution.instance
        slack = instance.capacity - solution.weight
        tx_counts = instance.tx_counts_list
        values = instance.values_list
        half_beta = 0.5 * self.config.beta
        log_mean_base = self.config.tau - math.log(len_unsel)
        for _ in range(self.config.pair_tries):
            index_out = sel[int(uniform() * len_sel)]
            index_in = unsel[int(uniform() * len_unsel)]
            if tx_counts[index_in] - tx_counts[index_out] > slack:
                continue
            delta = values[index_in] - values[index_out]
            # log T = log(mean) + log(Exp(1) sample), computed stably
            # (log_timer_mean inlined: tau - beta/2*delta - log(open)).
            log_exp1 = math.log(max(-math.log1p(-uniform()), 1e-300))
            self.timer = (log_mean_base - half_beta * delta + log_exp1, index_out, index_in)
            return

    # -------------------------------------------------------------- #
    # Alg. 1: State Transit
    # -------------------------------------------------------------- #
    def fire(self) -> None:
        """Apply the armed swap: :math:`x_{\\tilde i} \\to 0`, :math:`x_{\\ddot i} \\to 1`."""
        if self.timer is None or self.solution is None:
            raise RuntimeError("fire() called with no armed timer")
        _, index_out, index_in = self.timer
        self.solution.swap(index_out, index_in)
        # Keep the pair-sampling lists in sync: out joins unsel in in's old
        # slot; in joins sel in out's old slot.
        loc = self.loc
        slot_out, slot_in = loc[index_out], loc[index_in]
        self.sel[slot_out] = index_in
        self.unsel[slot_in] = index_out
        loc[index_in], loc[index_out] = slot_out, slot_in
        self.last_swap = (index_out, index_in)
        self.timer = None

    @property
    def utility(self) -> float:
        """Current solution utility (-inf when uninitialised)."""
        return self.solution.utility if self.solution is not None else float("-inf")


class _Replica:
    """One executor hosting the full solution-thread family (Fig. 5).

    ``replica_id`` is the executor's stable identity: every named stream the
    replica consumes (init, dynamic re-init, leave re-init) is keyed by it,
    never by the replica's position in a list — so the Γ replicas stay
    independent regardless of iteration order (the premise behind Fig. 8).
    """

    __slots__ = ("replica_id", "threads", "virtual_time", "current_utility")

    def __init__(self, replica_id: int, threads: List[_SolutionThread]) -> None:
        self.replica_id = replica_id
        self.threads = threads
        self.virtual_time = 0.0
        self.current_utility = float("-inf")
        self.recompute_current()

    def recompute_current(self) -> None:
        """Rebuild the running current-utility max from a full thread scan.

        Only needed at bootstrap and dynamic-event boundaries; inside the
        race :meth:`race_round` maintains the max incrementally (exactly one
        thread mutates per round, so a full ``O(threads)`` rescan per round
        was pure overhead).
        """
        best = float("-inf")
        for thread in self.threads:
            solution = thread.solution
            if solution is not None and solution.utility > best:
                best = solution.utility
        self.current_utility = best

    def race_round(self) -> Optional[_SolutionThread]:
        """Arm every solution (the RESET re-draw), fire the earliest timer.

        Returns the fired thread, or ``None`` when no solution could arm a
        feasible pair this round.
        """
        winner: Optional[_SolutionThread] = None
        winner_log = math.inf
        for thread in self.threads:
            thread.set_timer()
            timer = thread.timer
            if timer is not None and timer[0] < winner_log:
                winner_log = timer[0]
                winner = thread
        if winner is None:
            return None
        self.virtual_time += clamped_exp(winner_log)
        before = winner.solution.utility
        winner.fire()
        after = winner.solution.utility
        # Incremental current-utility maintenance: the fired thread is the
        # only mutation this round.  Its rise can only raise the max; its
        # fall forces a rescan only when it held the max alone.
        if after > self.current_utility:
            self.current_utility = after
        elif before == self.current_utility and after < before:
            self.recompute_current()
        return winner

    def best_solution(self) -> Optional[Solution]:
        """This replica's best current solution (None if none live)."""
        best = None
        for thread in self.threads:
            if thread.solution is not None:
                if best is None or thread.solution.utility > best.utility:
                    best = thread.solution
        return best


class _Population:
    """The Γ×thread population of Fig. 5 as one ``(Γ·T, N)`` mask matrix.

    Row ``g * T + k`` is the solution thread :math:`f_n`,
    ``n = cardinalities[k]``, of executor ``replica_ids[g]`` (every replica
    hosts the same family).  ``rows`` holds them as one
    :class:`~repro.core.repair.RowRepair`: a row holds a solution iff
    ``rows.ok[row]``, and ``masks``/``utility``/``weight``/``count`` are its
    selection and the :class:`Solution` caches, carried verbatim from
    whatever produced them (Alg. 2, the adoption repair or the race
    kernel).  ``rngs[row]`` is the thread's scalar stream and
    ``virtual_times[g]`` replica ``g``'s race clock.

    The vectorized engine and warm adoption work on these arrays alone.
    Executor/thread objects (:class:`_Replica`, :class:`_SolutionThread`)
    are built from them only when something reads them — the serial
    engine, dynamic events, probes — and from then on the objects own the
    state (they may be mutated in place); :meth:`settle` folds them back
    into rows.  The queries below read whichever form owns the state, so
    they never force a conversion.
    """

    def __init__(
        self,
        config: SEConfig,
        instance: EpochInstance,
        replica_ids: Sequence[int],
        cardinalities: Sequence[int],
        rows: RowRepair,
        rngs: List[_ThreadRng],
        virtual_times: np.ndarray,
    ) -> None:
        self.config = config
        self.replica_ids = list(replica_ids)
        self.virtual_times = virtual_times
        self.reseat(instance, cardinalities, rows, rngs)

    def reseat(
        self,
        instance: EpochInstance,
        cardinalities: Sequence[int],
        rows: RowRepair,
        rngs: List[_ThreadRng],
    ) -> None:
        """Install a new thread family's rows (replica clocks carry over)."""
        self.instance = instance
        self.cardinalities = np.asarray(cardinalities, dtype=np.int64)
        self.rows = rows
        self.rngs = rngs
        self._replicas: Optional[List[_Replica]] = None

    @property
    def replicas(self) -> List[_Replica]:
        """The population as executor/thread objects, built on first read."""
        if self._replicas is None:
            rows = self.rows
            size = len(self.cardinalities)
            replicas = []
            for group, replica_id in enumerate(self.replica_ids):
                threads = []
                for k, cardinality in enumerate(self.cardinalities.tolist()):
                    row = group * size + k
                    thread = _SolutionThread(cardinality, self.rngs[row], self.config)
                    if rows.ok[row]:
                        thread.set_solution(_row_solution(self.instance, rows, row))
                    threads.append(thread)
                replica = _Replica(replica_id, threads)
                replica.virtual_time = float(self.virtual_times[group])
                replicas.append(replica)
            self._replicas = replicas
        return self._replicas

    def settle(self) -> None:
        """Fold built thread objects back into the rows (no-op when none exist)."""
        replicas = self._replicas
        if replicas is None:
            return
        threads = [thread for replica in replicas for thread in replica.threads]
        solutions = [thread.solution for thread in threads]
        held = [s for s in solutions if s is not None]
        ok = np.array([s is not None for s in solutions], dtype=bool)
        utility = np.zeros(len(threads))
        weight = np.zeros(len(threads), dtype=np.int64)
        count = np.zeros(len(threads), dtype=np.int64)
        utility[ok] = [s.utility for s in held]
        weight[ok] = [s.weight for s in held]
        count[ok] = [s.count for s in held]
        self.virtual_times = np.array([replica.virtual_time for replica in replicas])
        self.reseat(
            self.instance,
            [thread.cardinality for thread in replicas[0].threads],
            RowRepair(ok, _solution_masks(solutions, self.instance.num_shards),
                      utility, weight, count),
            [thread.rng for thread in threads],
        )

    def rebind(self, instance: EpochInstance) -> None:
        """Point every solution at a value-equal ``instance``; disarm timers."""
        self.instance = instance
        for replica in self._replicas or ():
            for thread in replica.threads:
                thread.timer = None
                if thread.solution is not None:
                    # Identity rebind only: the instance is value-equal, so
                    # every cache stays bit-valid.
                    thread.solution.instance = instance

    def thread_cardinalities(self) -> List[int]:
        """Each replica's thread family, in row order."""
        if self._replicas is not None:
            return [thread.cardinality for thread in self._replicas[0].threads]
        return self.cardinalities.tolist()

    def any_active(self) -> bool:
        """True when at least one thread holds a solution."""
        if self._replicas is not None:
            return any(t.active for replica in self._replicas for t in replica.threads)
        return bool(self.rows.ok.any())

    def racing_threads(self) -> int:
        """Threads of one replica that can race (hold a swappable solution)."""
        if self._replicas is not None:
            return sum(
                1 for t in self._replicas[0].threads
                if t.solution is not None and t.sel and t.unsel
            )
        head = slice(0, len(self.cardinalities))
        count = self.rows.count[head]
        return int(np.count_nonzero(
            self.rows.ok[head] & (count > 0) & (count < self.instance.num_shards)
        ))

    def best(self) -> Solution:
        """A copy of the best current solution; ties go to the first row."""
        if self._replicas is not None:
            best = None
            for replica in self._replicas:
                candidate = replica.best_solution()
                if candidate is not None and (best is None or candidate.utility > best.utility):
                    best = candidate
            if best is None:
                raise InfeasibleEpochError("all solution threads are inactive")
            return best.copy()
        rows = self.rows
        if not rows.ok.any():
            raise InfeasibleEpochError("all solution threads are inactive")
        return _row_solution(
            self.instance, rows, int(np.argmax(np.where(rows.ok, rows.utility, -np.inf)))
        )


def instances_match(a: EpochInstance, b: EpochInstance) -> bool:
    """True when two instances are interchangeable for a warm start.

    Value equality over everything a thread's cached scores depend on:
    membership (ids *and* positions), tx counts, latencies, the DDL (hence
    ages/values) and the constraint parameters.  Used to pick the
    cache-verbatim zero-drift adoption path, so it must be exact — a single
    changed value forces the re-score path.
    """
    return (
        a is b
        or (
            a.shard_ids == b.shard_ids
            and a.capacity == b.capacity
            and a.n_min == b.n_min
            and a.ddl == b.ddl
            and a.config.alpha == b.config.alpha
            and np.array_equal(a.tx_counts, b.tx_counts)
            and np.array_equal(a.latencies, b.latencies)
        )
    )


def should_bootstrap(instance: EpochInstance) -> bool:
    """Alg. 1 line 1's trigger condition.

    The algorithm only starts once (a) enough member committees have
    arrived to satisfy the cardinality floor and (b) the submitted shards
    overflow the final block (otherwise everything fits and there is
    nothing to schedule).
    """
    return (
        instance.num_shards >= instance.n_min
        and int(instance.tx_counts.sum()) > instance.capacity
    )


def _solution_masks(solutions: Sequence[Optional[Solution]], num_shards: int) -> np.ndarray:
    """Stack solutions' selections into one ``(R, N)`` matrix (``None`` rows empty)."""
    blank = bytes(num_shards)
    joined = b"".join(blank if s is None else s.selected for s in solutions)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(solutions), num_shards) != 0


def _rebased_masks(
    rows: "np.ndarray | Sequence[Solution]", old: EpochInstance, new: EpochInstance
) -> np.ndarray:
    """Project selections scored on ``old`` onto ``new`` by shard id, as one matrix.

    ``rows`` is an ``(R, N_old)`` mask matrix or a sequence of solutions.
    Row ``r`` of the result equals ``Solution(old, rows[r]).rebase(new).mask``:
    members whose committee left are dropped and joined committees start
    unselected.
    """
    if not isinstance(rows, np.ndarray):
        rows = _solution_masks(rows, old.num_shards)
    position = {shard_id: p for p, shard_id in enumerate(new.shard_ids)}
    target = np.array([position.get(sid, -1) for sid in old.shard_ids], dtype=np.int64)
    kept = target >= 0
    masks = np.zeros((len(rows), new.num_shards), dtype=bool)
    masks[:, target[kept]] = rows[:, kept]
    return masks


def _relieve_capacity(
    instance: EpochInstance, permutation: np.ndarray, n: int, deficit: int
) -> np.ndarray:
    """Alg. 2's repair of one over-Ĉ draw; returns the ``n`` chosen positions.

    The draw is the first ``n`` positions of ``permutation``.  Its
    heaviest members swap for the lightest outsiders (both orders stable
    over the permutation, so ties go to the earlier draw) until the
    ``deficit`` is shed; when no number of swaps sheds it, the ``n``
    lightest shards are chosen instead.
    """
    tx_counts = instance.tx_counts
    chosen, outside = permutation[:n], permutation[n:]
    heavy_first = chosen[np.argsort(-tx_counts[chosen], kind="stable")]
    light_first = outside[np.argsort(tx_counts[outside], kind="stable")]
    swaps = min(len(heavy_first), len(light_first))
    # relief[k] = weight shed by the first k+1 swaps.  Its increments
    # (heaviest-in minus lightest-out) are non-increasing and can go
    # *negative* once the remaining outsiders outweigh the remaining
    # picks, so relief itself is NOT sorted — searchsorted on it is
    # undefined and used to collapse repairable draws to lightest-n.
    # The running maximum is sorted and crosses the deficit at the
    # same minimal k, so search that instead.
    relief = np.cumsum(tx_counts[heavy_first[:swaps]] - tx_counts[light_first[:swaps]])
    best_relief = np.maximum.accumulate(relief)
    needed = int(np.searchsorted(best_relief, deficit, side="left")) + 1
    if needed <= swaps and best_relief[needed - 1] >= deficit:
        return np.concatenate([heavy_first[needed:], light_first[:needed]])
    return np.argsort(tx_counts, kind="stable")[:n]  # lightest-n fallback


def _initialize_rows(
    instance: EpochInstance,
    draws: Sequence[Tuple[np.random.Generator, Sequence[int]]],
) -> RowRepair:
    """Alg. 2 for a batch of solution threads, one random feasible solution per row.

    ``draws`` lists, per executor replica, its init stream and the
    cardinalities to initialise from it, in order; the rows come back in
    that order.  Alg. 2 re-picks random ``n``-subsets until Cons. (4)
    holds; we realise the same distribution's support in one pass:

    * each stream draws one uniform permutation of the ``N`` positions per
      row whose cardinality ``n`` lies in ``(0, N]``, as one
      ``Generator.permuted`` call (it consumes exactly what that many
      successive ``permutation(N)`` calls would), and the row selects the
      permutation's first ``n`` positions;
    * an over-Ĉ row takes :func:`_relieve_capacity`'s swap repair.

    A row is ``ok`` when its cardinality was in range and its selection
    fits Ĉ.  The utility cache is a per-count row sum, bit-equal to
    ``values[mask].sum()`` (:func:`repro.core.repair.row_utility`), so a row
    carries exactly the caches a :class:`Solution` built from its mask
    would compute.
    """
    num_shards = instance.num_shards
    tx_counts = instance.tx_counts
    capacity = instance.capacity
    cardinalities = np.concatenate(
        [np.asarray(cards, dtype=np.int64).reshape(-1) for _, cards in draws]
    )
    drawn = (cardinalities > 0) & (cardinalities <= num_shards)
    # Rows that draw nothing keep the identity order; their masks are
    # empty (n <= 0) or full (n > N) and never ok.
    permutations = np.tile(np.arange(num_shards), (cardinalities.size, 1))
    start = 0
    for rng, cards in draws:
        rows = start + np.flatnonzero(drawn[start : start + len(cards)])
        if rows.size:
            permutations[rows] = rng.permuted(permutations[rows], axis=1)
        start += len(cards)
    masks = np.zeros(permutations.shape, dtype=bool)
    masks[np.arange(cardinalities.size)[:, None], permutations] = (
        np.arange(num_shards) < cardinalities[:, None]
    )
    weight = np.where(masks, tx_counts, 0).sum(axis=1)
    for row in np.flatnonzero(drawn & (weight > capacity) & (cardinalities < num_shards)):
        n = int(cardinalities[row])
        chosen = _relieve_capacity(
            instance, permutations[row], n, int(weight[row]) - capacity
        )
        masks[row] = False
        masks[row, chosen] = True
        weight[row] = tx_counts[chosen].sum()
    count = np.clip(cardinalities, 0, num_shards)
    utility = row_utility(instance.values, masks, count)
    return RowRepair(drawn & (weight <= capacity), masks, utility, weight, count)


def _row_solution(instance: EpochInstance, rows: RowRepair, row: int) -> Solution:
    """Row ``row`` of a row batch as a :class:`Solution`, caches verbatim."""
    return Solution.from_cached(
        instance,
        rows.masks[row].tobytes(),
        float(rows.utility[row]),
        int(rows.weight[row]),
        int(rows.count[row]),
    )


class StochasticExploration:
    """Driver implementing Alg. 1's event loop over Γ executor replicas.

    ``telemetry`` is an injected :class:`repro.obs.telemetry.NullTelemetry`
    hub (rule MV007: core never constructs its own -- that would smuggle a
    clock into replayable code).  With the default ``NULL_TELEMETRY`` the
    race loop pays only a hoisted boolean check, and :meth:`solve` produces
    byte-identical results either way: the instrumentation draws no
    randomness and never branches on telemetry state.
    """

    def __init__(
        self,
        config: SEConfig = SEConfig(),
        telemetry: NullTelemetry = NULL_TELEMETRY,
    ) -> None:
        self.config = config
        self.telemetry = telemetry

    # -------------------------------------------------------------- #
    # public API
    # -------------------------------------------------------------- #
    @feasible_result
    def solve(
        self,
        instance: EpochInstance,
        schedule: Optional[DynamicSchedule] = None,
        probe: Optional[Callable[..., None]] = None,
        warm: Optional[object] = None,
    ) -> SEResult:
        """Run SE on one epoch, optionally with a dynamic event schedule.

        The returned best solution satisfies const. (3) ``count >= N_min``
        and const. (4) ``weight <= Ĉ`` with a finite utility; set
        ``REPRO_CONTRACTS=1`` to assert this at the boundary.

        ``warm`` seeds the run from a prior epoch: pass the previous
        :class:`SEResult` (its ``warm_state``) or an :class:`SEWarmState`
        directly.  Instead of re-bootstrapping the Γ replicas from scratch,
        the run adopts the carried thread population — retained committees
        are re-scored against the new instance, only invalidated threads
        (departed member, or the re-valued weight busting Ĉ) re-seat from
        the continued init streams, and the incumbent is rebased and
        repaired via :mod:`repro.core.repair`.  With zero drift (an
        unchanged instance) adoption is cache-verbatim, so a warm scalar
        solve is byte-identical to continuing the same solve.  Warm states
        are consumed; chain them linearly (see :class:`SEWarmState`).

        ``probe``, when given, is invoked at every dynamic-event boundary —
        after the events are applied, the replicas re-seated and the
        incumbent rebased — as ``probe(iteration=..., events=...,
        instance=..., best=..., replicas=...)``.  It may raise to abort the
        run; :mod:`repro.faultinject` uses it to arm feasibility /
        conservation invariants during churn storms.  The probe draws no
        randomness, so passing one never perturbs the seeded trajectory.

        The race itself executes on the engine selected by
        ``config.engine`` (:mod:`repro.core.engine`): the serial reference
        loop or the batched vectorized kernel.  Probes and telemetry always
        run on this driver regardless of engine.
        """
        from repro.core import engine as engine_module  # deferred: engine imports se

        if isinstance(warm, SEResult):
            warm = warm.warm_state
        if warm is not None and not isinstance(warm, SEWarmState):
            raise TypeError(
                f"warm must be an SEResult or SEWarmState, got {type(warm).__name__}"
            )
        return engine_module.run_engine(self, instance, schedule, probe, warm=warm)

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def thread_cardinalities(self, instance: EpochInstance) -> List[int]:
        """Cardinalities instantiated per replica (Alg. 1 line 3).

        The feasible range is ``[n_lo, n_hi]`` with ``n_lo`` the (effective)
        ``n_min`` floor and ``n_hi`` the capacity cardinality cap --
        cardinalities outside it can never satisfy constraints (3)-(4), so
        their :math:`f_n` could never enter the candidate set λ.  When
        ``max_solution_threads`` caps the count, the range is subsampled
        evenly (always keeping both endpoints).
        """
        n_hi = max(instance.max_feasible_cardinality, 1)
        n_hi = min(n_hi, instance.num_shards)
        n_lo = max(1, min(instance.n_min, n_hi))
        cardinalities = list(range(n_lo, n_hi + 1))
        cap = self.config.max_solution_threads
        if cap is not None and len(cardinalities) > cap:
            positions = np.linspace(0, len(cardinalities) - 1, num=cap)
            cardinalities = sorted({cardinalities[int(round(p))] for p in positions})
        return cardinalities

    def _bootstrap(self, instance: EpochInstance, streams: RandomStreams) -> _Population:
        """Alg. 1 line 3: every replica's thread family, each with an Alg. 2 solution.

        One :func:`_initialize_rows` batch over all Γ×T rows; replica ``g``
        draws its rows' permutations from ``replica-{g}-init``.  Thread
        streams are named here and seeded only if the serial engine draws.
        """
        cardinalities = self.thread_cardinalities(instance)
        replica_ids = range(self.config.num_threads)
        rows = _initialize_rows(
            instance,
            [(streams.get(f"replica-{replica_id}-init"), cardinalities)
             for replica_id in replica_ids],
        )
        rngs = [
            _ThreadRng(streams.seed, f"replica-{replica_id}-n{cardinality}")
            for replica_id in replica_ids
            for cardinality in cardinalities
        ]
        return _Population(
            self.config, instance, replica_ids, cardinalities, rows, rngs,
            np.zeros(self.config.num_threads),
        )

    def _adopt_replicas(
        self, warm: SEWarmState, instance: EpochInstance
    ) -> dict:
        """Re-seat a prior run's population onto ``instance`` (warm start).

        The generalisation of :meth:`_apply_events`'s join/leave re-seating
        to "the whole population drifted": every retained thread's solution
        is *re-scored* by rebasing it onto the new instance (shard ids are
        stable across epochs; tx counts, latencies, the DDL and therefore
        every value may all have changed), and only *invalidated* threads —
        a selected committee departed (cardinality broke const. 3's exact-n
        family shape) or the re-valued weight busted Ĉ (const. 4) — that
        the repair cannot restore re-initialise, drawing from the replica's
        *continued* init stream.  The feasible cardinality range is
        recomputed for the new instance; threads whose cardinality fell out
        of range are dropped and missing cardinalities spawn with
        generation-namespaced streams so the Mersenne sequences of
        different epochs' spawns never coincide.

        The whole adoption works on the population's mask matrix: the
        carried rows are rebased as one matrix, one
        :func:`repro.core.repair.resize_rows` pass pads/trims them back to
        their cardinality and re-anchors them with a few improving swaps,
        and one :func:`_initialize_rows` batch re-draws the spawned and
        unrepairable rows.  The repair draws no randomness, so only those
        rows touch the init streams — in replica/cardinality order, as a
        thread-by-thread adoption would draw them.  No thread object is
        built.

        With zero drift (a value-equal instance) adoption is cache-verbatim:
        the population, thread objects included when the serial engine
        built them, carries over untouched (recomputing a utility from the
        mask can differ in the last bit), which is what makes a warm scalar
        solve byte-identical to continuing the same solve.  Mutates
        ``warm.population`` in place; returns re-seat stats for the
        ``se.warm_start`` event.
        """
        population = warm.population
        gamma = len(population.replica_ids)
        if gamma != self.config.num_threads:
            raise ValueError(
                f"warm state carries {gamma} replicas but config.num_threads "
                f"(Gamma) is {self.config.num_threads}; warm starts cannot resize Gamma"
            )
        streams = warm.streams
        if instances_match(warm.instance, instance):
            population.rebind(instance)
            return {"retained": gamma * len(population.thread_cardinalities()),
                    "reseated": 0, "spawned": 0, "zero_drift": True}
        population.settle()
        old = population.rows
        cardinalities = self.thread_cardinalities(instance)
        family = np.array(cardinalities, dtype=np.int64)
        column = {int(c): k for k, c in enumerate(population.cardinalities.tolist())}
        seat = np.array([column.get(c, -1) for c in cardinalities], dtype=np.int64)
        seated = np.tile(seat >= 0, gamma)
        source = np.where(
            seated,
            (np.arange(gamma)[:, None] * len(population.cardinalities) + seat).reshape(-1),
            0,
        )
        # Departed members are padded back and the stale membership
        # re-anchored with a few cardinality-preserving improving swaps;
        # each row keeps its own carried base, so the population keeps
        # its diversity.
        carried = np.flatnonzero(seated & old.ok[source])
        repair = resize_rows(
            instance,
            _rebased_masks(old.masks[source[carried]], warm.instance, instance),
            np.tile(family, gamma)[carried],
        )
        size = gamma * len(cardinalities)
        rows = RowRepair(
            np.zeros(size, dtype=bool),
            np.zeros((size, instance.num_shards), dtype=bool),
            np.zeros(size),
            np.zeros(size, dtype=np.int64),
            np.zeros(size, dtype=np.int64),
        )
        for mine, theirs in zip(rows, repair):
            mine[carried] = theirs
        # The init stream continues across epochs, exactly as it does
        # across dynamic events within one solve (see _apply_events).
        redo = ~rows.ok.reshape(gamma, len(cardinalities))
        fresh = _initialize_rows(
            instance,
            [
                # repro: ignore[MV101]
                (streams.get(f"replica-{replica_id}-init"), family[redo[group]])
                for group, replica_id in enumerate(population.replica_ids)
            ],
        )
        for mine, theirs in zip(rows, fresh):
            mine[redo.reshape(-1)] = theirs
        rngs = []
        for group, replica_id in enumerate(population.replica_ids):
            for k, cardinality in enumerate(cardinalities):
                rngs.append(
                    population.rngs[source[group * len(cardinalities) + k]]
                    if seat[k] >= 0
                    else _ThreadRng(
                        streams.seed,
                        f"replica-{replica_id}-gen{warm.generation}-n{cardinality}",
                    )
                )
        population.reseat(instance, cardinalities, rows, rngs)
        spawned = int(np.count_nonzero(~seated))
        retained = int(np.count_nonzero(repair.ok))
        return {"retained": retained, "reseated": size - spawned - retained,
                "spawned": spawned, "zero_drift": False}

    @staticmethod
    def _pick_better(best: Solution, candidate: Optional[Solution]) -> Solution:
        if candidate is not None and candidate.utility > best.utility:
            return candidate.copy()
        return best

    def _maybe_full_solution(self, instance: EpochInstance, best: Solution) -> Solution:
        """Alg. 1 line 25: also consider :math:`f_{|I_j|}` when Ĉ allows it."""
        if not self.config.include_full_solution:
            return best
        full = Solution(instance, np.ones(instance.num_shards, dtype=bool))
        if full.capacity_feasible:
            return self._pick_better(best, full)
        return best

    def _rebase_best(self, best: Solution, instance: EpochInstance) -> Solution:
        """Carry the incumbent across a dynamic event, restoring const. (3)-(4).

        Rebasing by shard id can break both constraints: a LEAVE drops
        selected shards (cardinality can fall below ``N_min``) and a
        DDL-shifting JOIN re-values everything (the carried weight can
        exceed Ĉ).  Trimming alone used to leave the incumbent
        cardinality-infeasible yet still able to win ``_pick_better`` on raw
        utility; the shared :func:`repro.core.repair.repair_feasibility`
        re-establishes the capacity trim *and* the ``N_min`` pad.
        """
        rebased = best.rebase(instance)
        if not rebased.feasible:
            repair_feasibility(instance, rebased)
        return rebased

    def _apply_events(
        self,
        instance: EpochInstance,
        replicas: Sequence[_Replica],
        events: Sequence[CommitteeEvent],
        streams: RandomStreams,
        generation: int = 0,
    ) -> EpochInstance:
        """Alg. 1 lines 9-12: update ``I_j`` and re-seat every solution.

        ``generation`` namespaces the streams of threads spawned mid-run:
        generation 0 (a cold solve) keeps the original ``dyn`` names, so
        pre-warm trajectories replay byte-identically; warm runs
        (generation >= 1) prefix theirs so a cardinality that disappears
        and reappears across epochs never re-reads the same sequence.
        """
        for event in events:
            if event.kind is EventKind.LEAVE:
                instance = self._apply_leave(instance, replicas, event, streams)
            else:
                instance = self._apply_join(instance, replicas, event)
        # Re-spread cardinalities over the (possibly resized) feasible range.
        cardinalities = self.thread_cardinalities(instance)
        spawned = reinitialised = 0
        for replica in replicas:
            replica_id = replica.replica_id
            # Intentionally the same stream as _bootstrap: a reseated
            # replica *continues* its init sequence rather than restarting
            # it, so replay stays byte-identical across dynamic events.
            # repro: ignore[MV101]
            init_rng = streams.get(f"replica-{replica_id}-init")
            existing = {thread.cardinality: thread for thread in replica.threads}
            reseated = []
            for cardinality in cardinalities:
                thread = existing.pop(cardinality, None)
                if thread is None:
                    stream_name = (
                        f"replica-{replica_id}-dyn-n{cardinality}"
                        if generation == 0
                        else f"replica-{replica_id}-gen{generation}-dyn-n{cardinality}"
                    )
                    rng = _ThreadRng(streams.seed, stream_name)
                    thread = _SolutionThread(cardinality=cardinality, thread_rng=rng, config=self.config)
                    thread.initialize(instance, init_rng)
                    spawned += 1
                elif thread.solution is None or not thread.active:
                    thread.initialize(instance, init_rng)
                    reinitialised += 1
                thread.timer = None
                reseated.append(thread)
            replica.threads = reseated
            replica.recompute_current()
        if self.telemetry.enabled:
            self.telemetry.event(
                "se.reseat",
                events=len(events),
                threads_spawned=spawned,
                threads_reinitialised=reinitialised,
                num_shards=instance.num_shards,
            )
        return instance

    @staticmethod
    def _apply_leave(
        instance: EpochInstance,
        replicas: Sequence[_Replica],
        event: CommitteeEvent,
        streams: RandomStreams,
    ) -> EpochInstance:
        if event.shard_id not in instance.shard_ids:
            return instance  # committee already gone; tolerate duplicates
        if instance.num_shards <= 1:
            raise InfeasibleEpochError(
                f"LEAVE of shard {event.shard_id} would empty the epoch; "
                "no committee remains to schedule"
            )
        new_instance = instance.without(event.shard_id)
        for replica in replicas:
            # Per-replica named stream: a shared "leave-reinit" stream would
            # correlate post-failure exploration across the Γ replicas and
            # make it depend on replica iteration order, breaking the
            # replica-independence premise behind Fig. 8.
            init_rng = streams.get(f"replica-{replica.replica_id}-leave")
            for thread in replica.threads:
                if thread.solution is None:
                    continue
                if event.shard_id in thread.solution.selected_ids():
                    # Section V: solutions containing the failed committee
                    # are trimmed out of the space -- re-initialise.
                    thread.initialize(new_instance, init_rng)
                else:
                    thread.set_solution(thread.solution.rebase(new_instance))
        return new_instance

    @staticmethod
    def _apply_join(
        instance: EpochInstance,
        replicas: Sequence[_Replica],
        event: CommitteeEvent,
    ) -> EpochInstance:
        if event.shard_id in instance.shard_ids:
            return instance
        new_instance = instance.with_shard(event.shard_id, event.tx_count, event.latency)
        for replica in replicas:
            for thread in replica.threads:
                if thread.solution is not None:
                    thread.set_solution(thread.solution.rebase(new_instance))
        return new_instance
