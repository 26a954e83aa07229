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

The Γ×thread population is one ``(Γ·T, N)`` mask matrix with per-row
solution caches (:class:`_Population`).  Dynamic events (Alg. 1 lines
9-12) work on its rows: a LEAVE re-initialises every row that contained
the failed committee (the trimmed-space behaviour of Section V) and
rebases the rest; a JOIN rebases all rows onto the grown instance -- the
DDL, and therefore every shard's value, re-evaluates.  The thread family
is then re-spread over the new feasible range by the same re-seat warm
adoption uses.  Both reset the convergence detector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.problem import DEFAULT_BETA, DEFAULT_TAU, EpochInstance
from repro.core.repair import RowRepair, repair_feasibility, resize_rows, row_utility
from repro.core.solution import Solution
from repro.analysis.contracts import feasible_result
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams, isolated_streams


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
    sampling used to find a capacity-feasible swap pair in Set-timer().

    Every solve races on the batched Γ×thread kernel
    (:mod:`repro.core.engine`).  ``engine`` only names it: ``"vectorized"``,
    or ``"auto"``, a retired name kept as its alias; anything else raises.
    """

    beta: float = DEFAULT_BETA
    tau: float = DEFAULT_TAU
    num_threads: int = 10
    max_iterations: int = 10_000
    convergence_window: int = 1_000
    tolerance: float = 1e-9
    seed: int = 0
    pair_tries: int = 16
    include_full_solution: bool = True
    max_solution_threads: Optional[int] = 64
    engine: str = "vectorized"

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.num_threads <= 0:
            raise ValueError("num_threads (Gamma) must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.pair_tries <= 0:
            raise ValueError("pair_tries must be positive")
        if self.max_solution_threads is not None and self.max_solution_threads <= 0:
            raise ValueError("max_solution_threads must be positive or None")
        # perfbench/workloads.py still passes the retired "auto"; alias it.
        if self.engine == "auto":
            object.__setattr__(self, "engine", "vectorized")
        if self.engine != "vectorized":
            raise ValueError(
                f"unknown engine {self.engine!r}: SE races only the batched "
                "kernel ('vectorized'); the serial reference loop is the test "
                "oracle in tests/serial_oracle.py"
            )


@dataclass
class SEResult:
    """Outcome of one SE run.

    ``utility_trace[k]`` is the best utility seen up to race round ``k``;
    ``current_trace[k]`` is the best *current* solution utility across
    replicas at round ``k`` -- the series that dips when a committee fails
    (Fig. 9a).  ``virtual_time_trace`` is cumulative virtual seconds (the
    parallel executors' wall clock, i.e. the slowest replica's race time).
    ``engine`` names the race that ran: ``vectorized``, or ``serial``
    when a test raced the oracle.
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


class _Population:
    """The Γ×thread population of Fig. 5 as one ``(Γ·T, N)`` mask matrix.

    Row ``g * T + k`` is the solution thread :math:`f_n`,
    ``n = cardinalities[k]``, of executor ``replica_ids[g]`` (every replica
    hosts the same family).  ``rows`` holds them as one
    :class:`~repro.core.repair.RowRepair`: a row holds a solution iff
    ``rows.ok[row]``, and ``masks``/``utility``/``weight``/``count`` are its
    selection and the :class:`Solution` caches, carried verbatim from
    whatever produced them (Alg. 2, the adoption repair, a dynamic event
    or the race).  ``stream_names[row]`` names the thread's scalar stream
    (only the serial test oracle draws from it), ``virtual_times[g]`` is
    replica ``g``'s race clock and ``reseats`` the number of event batches
    applied so far (it names the threads they spawn, see
    :meth:`StochasticExploration._apply_events`).

    This is the population's only form: bootstrap, warm adoption, dynamic
    events and probes work on these arrays, and the race kernel races them.
    """

    def __init__(
        self,
        instance: EpochInstance,
        replica_ids: Sequence[int],
        cardinalities: Sequence[int],
        rows: RowRepair,
        stream_names: List[str],
        virtual_times: np.ndarray,
    ) -> None:
        self.replica_ids = list(replica_ids)
        self.virtual_times = virtual_times
        self.reseats = 0
        self.reseat(instance, cardinalities, rows, stream_names)

    def reseat(
        self,
        instance: EpochInstance,
        cardinalities: Sequence[int],
        rows: RowRepair,
        stream_names: List[str],
    ) -> None:
        """Install a new thread family's rows (replica clocks carry over)."""
        self.instance = instance
        self.cardinalities = np.asarray(cardinalities, dtype=np.int64)
        self.rows = rows
        self.stream_names = stream_names

    def best(self) -> Solution:
        """A copy of the best current solution; ties go to the first row."""
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


def _rebased_masks(masks: np.ndarray, old: EpochInstance, new: EpochInstance) -> np.ndarray:
    """Project an ``(R, N_old)`` mask matrix scored on ``old`` onto ``new`` by shard id.

    Row ``r`` of the result equals ``Solution(old, masks[r]).rebase(new).mask``:
    members whose committee left are dropped and joined committees start
    unselected.
    """
    position = {shard_id: p for p, shard_id in enumerate(new.shard_ids)}
    target = np.array([position.get(sid, -1) for sid in old.shard_ids], dtype=np.int64)
    kept = target >= 0
    rebased = np.zeros((len(masks), new.num_shards), dtype=bool)
    rebased[:, target[kept]] = masks[:, kept]
    return rebased


def _rebased_rows(rows: RowRepair, old: EpochInstance, new: EpochInstance) -> RowRepair:
    """``rows`` projected onto ``new`` and re-scored, as :meth:`Solution.rebase` would.

    The utility cache is :func:`repro.core.repair.row_utility`, bit-equal to
    the rebased solution's ``values[mask].sum()``; ``ok`` carries over.
    """
    masks = _rebased_masks(rows.masks, old, new)
    count = masks.sum(axis=1, dtype=np.int64)
    return RowRepair(
        rows.ok.copy(),
        masks,
        row_utility(new.values, masks, count),
        np.where(masks, new.tx_counts, 0).sum(axis=1),
        count,
    )


def _blank_rows(size: int, num_shards: int) -> RowRepair:
    """``size`` rows holding no solution."""
    return RowRepair(
        np.zeros(size, dtype=bool),
        np.zeros((size, num_shards), dtype=bool),
        np.zeros(size),
        np.zeros(size, dtype=np.int64),
        np.zeros(size, dtype=np.int64),
    )


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
    @isolated_streams
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
        unchanged instance) adoption is cache-verbatim, so a warm solve
        raced on the serial test oracle is byte-identical to continuing the
        same solve.  Warm states are consumed; chain them linearly (see
        :class:`SEWarmState`).

        ``probe``, when given, is invoked at every dynamic-event boundary —
        after the events are applied, the replicas re-seated and the
        incumbent rebased — as ``probe(iteration=..., events=...,
        instance=..., best=..., population=...)``, ``population`` being the
        re-seated :class:`_Population`, whose rows the probe may read but
        must not write.  It may raise to abort the run;
        :mod:`repro.faultinject` uses it to arm feasibility / conservation
        invariants during churn storms.  The probe draws no randomness, so
        passing one never perturbs the seeded trajectory.

        The race itself runs on the batched kernel
        (:mod:`repro.core.engine`); probes and telemetry run on its driver.
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
        streams are only named here.
        """
        cardinalities = self.thread_cardinalities(instance)
        replica_ids = range(self.config.num_threads)
        rows = _initialize_rows(
            instance,
            [(streams.get(f"replica-{replica_id}-init"), cardinalities)
             for replica_id in replica_ids],
        )
        stream_names = [
            f"replica-{replica_id}-n{cardinality}"
            for replica_id in replica_ids
            for cardinality in cardinalities
        ]
        return _Population(
            instance, replica_ids, cardinalities, rows, stream_names,
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
        generation-namespaced streams (``gen{g}``) so the Mersenne sequences
        of different epochs' spawns never coincide.

        The whole adoption works on the population's mask matrix: the
        carried rows are rebased as one matrix, one
        :func:`repro.core.repair.resize_rows` pass pads/trims them back to
        their cardinality and re-anchors them with a few improving swaps,
        and :meth:`_reseat_family` re-draws the spawned and unrepairable
        rows as one batch.  The repair draws no randomness, so only those
        rows touch the init streams — in replica/cardinality order, as a
        thread-by-thread adoption would draw them.

        With zero drift (a value-equal instance) adoption is cache-verbatim:
        the population carries over untouched (recomputing a utility from
        the mask can differ in the last bit), which is what makes a warm
        solve on the serial test oracle byte-identical to continuing the
        same solve.  Mutates ``warm.population`` in place; returns re-seat
        stats for the ``se.warm_start`` event.
        """
        population = warm.population
        gamma = len(population.replica_ids)
        if gamma != self.config.num_threads:
            raise ValueError(
                f"warm state carries {gamma} replicas but config.num_threads "
                f"(Gamma) is {self.config.num_threads}; warm starts cannot resize Gamma"
            )
        if instances_match(warm.instance, instance):
            population.instance = instance
            return {"retained": gamma * len(population.cardinalities),
                    "reseated": 0, "spawned": 0, "zero_drift": True}
        old = population.rows
        family = np.tile(population.cardinalities, gamma)

        def carry(source: np.ndarray) -> RowRepair:
            # Departed members are padded back and the stale membership
            # re-anchored with a few cardinality-preserving improving swaps;
            # each row keeps its own carried base, so the population keeps
            # its diversity.
            rows = _blank_rows(source.size, instance.num_shards)
            carried = old.ok[source]
            repair = resize_rows(
                instance,
                _rebased_masks(old.masks[source[carried]], warm.instance, instance),
                family[source[carried]],
            )
            for mine, theirs in zip(rows, repair):
                mine[carried] = theirs
            return rows

        stats = self._reseat_family(
            population, instance, warm.streams, f"gen{warm.generation}", carry
        )
        return {**stats, "zero_drift": False}

    def _reseat_family(
        self,
        population: _Population,
        instance: EpochInstance,
        streams: RandomStreams,
        spawn_tag: str,
        carry: Callable[[np.ndarray], RowRepair],
    ) -> dict:
        """Move ``population`` onto ``instance``'s thread family (Alg. 1 line 3).

        Shared by dynamic events and warm adoption.  Each cardinality of the
        new family takes over the old column holding it: ``carry(source)``
        returns those carried rows already on ``instance`` (``source`` lists
        their old row indices) and each keeps its thread stream.  Columns
        that fell out of range are dropped; new cardinalities spawn with the
        stream ``replica-{id}-{spawn_tag}-n{n}`` (``spawn_tag`` is
        ``dyn{r}`` or ``gen{g}-dyn{r}`` for the ``r``-th event batch,
        ``gen{g}`` for adoption), a name no earlier spawn of the population
        used.  Every row left without a solution then re-draws (Alg. 2) as
        one batch per replica from ``replica-{id}-init`` in row order: a
        re-seated replica *continues* its init sequence rather than
        restarting it, within a solve and across epochs, so replay stays
        byte-identical.
        Returns the retained/reseated/spawned row counts.
        """
        gamma = len(population.replica_ids)
        cardinalities = self.thread_cardinalities(instance)
        size = gamma * len(cardinalities)
        column = {c: k for k, c in enumerate(population.cardinalities.tolist())}
        seat = np.array([column.get(c, -1) for c in cardinalities], dtype=np.int64)
        seated = np.tile(seat >= 0, gamma)
        source = (np.arange(gamma)[:, None] * len(column) + seat).reshape(-1)
        rows = _blank_rows(size, instance.num_shards)
        for mine, theirs in zip(rows, carry(source[seated])):
            mine[seated] = theirs
        retained = int(np.count_nonzero(rows.ok))
        redo = ~rows.ok.reshape(gamma, len(cardinalities))
        family = np.array(cardinalities, dtype=np.int64)
        fresh = _initialize_rows(
            instance,
            [
                (streams.get(f"replica-{replica_id}-init"), family[redo[group]])
                for group, replica_id in enumerate(population.replica_ids)
            ],
        )
        for mine, theirs in zip(rows, fresh):
            mine[redo.reshape(-1)] = theirs
        stream_names = [
            population.stream_names[source[row]] if seated[row]
            else f"replica-{replica_id}-{spawn_tag}-n{cardinality}"
            for row, (replica_id, cardinality) in enumerate(
                itertools.product(population.replica_ids, cardinalities)
            )
        ]
        population.reseat(instance, cardinalities, rows, stream_names)
        spawned = int(np.count_nonzero(~seated))
        return {"retained": retained, "reseated": size - spawned - retained,
                "spawned": spawned}

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
        population: _Population,
        events: Sequence[CommitteeEvent],
        streams: RandomStreams,
        generation: int = 0,
    ) -> None:
        """Alg. 1 lines 9-12: update ``I_j`` and re-seat every solution row.

        Each event moves the rows onto its new instance in turn:

        * a LEAVE re-draws (Alg. 2, on the shrunk instance) every row that
          holds the failed committee — Section V's trimmed space — as one
          batch per replica from ``replica-{id}-leave``, in row order, and
          rebases the rest.  Per-replica streams keep the Γ replicas'
          post-failure exploration independent of each other and of their
          order (the premise behind Fig. 8);
        * a JOIN rebases every row onto the grown instance: the DDL, and
          therefore every shard's value, may re-evaluate.

        A LEAVE of an absent or a JOIN of a present committee is a tolerated
        duplicate.  :meth:`_reseat_family` then re-spreads the thread family
        over the new feasible range; when no event changed the instance and
        every row holds a solution that re-seat is the identity, so the rows
        are left as they are.

        The threads this re-seat spawns are named ``dyn{r}``, ``r`` being
        the population's count of event batches before this one, so a
        cardinality that disappears and reappears within a solve spawns a
        fresh stream rather than replaying its earlier incarnation's.  Warm
        runs (``generation`` >= 1) prefix the tag with ``gen{g}-``, so no
        spawn name of one epoch recurs in another.
        """
        instance, rows = population.instance, population.rows
        for event in events:
            if event.kind is EventKind.LEAVE:
                if event.shard_id not in instance.shard_ids:
                    continue
                if instance.num_shards <= 1:
                    raise InfeasibleEpochError(
                        f"LEAVE of shard {event.shard_id} would empty the epoch; "
                        "no committee remains to schedule"
                    )
                held = rows.ok & rows.masks[:, instance.position_of(event.shard_id)]
                new = instance.without(event.shard_id)
                rows = _rebased_rows(rows, instance, new)
                by_replica = held.reshape(len(population.replica_ids), -1)
                # Each replica's leave stream continues across the events of a
                # batch, as across batches.
                fresh = _initialize_rows(
                    new,
                    [
                        (streams.get(f"replica-{replica_id}-leave"),
                         population.cardinalities[by_replica[group]])
                        for group, replica_id in enumerate(population.replica_ids)
                    ],
                )
                for mine, theirs in zip(rows, fresh):
                    mine[held] = theirs
            else:
                if event.shard_id in instance.shard_ids:
                    continue
                new = instance.with_shard(event.shard_id, event.tx_count, event.latency)
                rows = _rebased_rows(rows, instance, new)
            instance = new
        stats = {"retained": 0, "reseated": 0, "spawned": 0}
        spawn_tag = f"gen{generation}-dyn" if generation else "dyn"
        spawn_tag += str(population.reseats)
        population.reseats += 1
        if instance is not population.instance or not rows.ok.all():
            stats = self._reseat_family(
                population, instance, streams, spawn_tag,
                lambda source: RowRepair(*(field[source] for field in rows)),
            )
        if self.telemetry.enabled:
            self.telemetry.event(
                "se.reseat",
                events=len(events),
                threads_spawned=stats["spawned"],
                threads_reinitialised=stats["reseated"],
                num_shards=instance.num_shards,
            )
