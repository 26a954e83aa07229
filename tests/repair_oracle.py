"""Scalar oracles for the batched population moves.

These are the one-thread-at-a-time moves that SE used before the
Γ×thread population became one mask matrix: the warm-adoption repair that
:func:`repro.core.repair.resize_rows` batches, the Alg. 2 bootstrap that
``repro.core.se._initialize_rows`` batches, and the dynamic-event re-seat
that ``StochasticExploration._apply_events`` runs on the rows.  They stay
here, outside the package, as the reference the batched passes must match
bit for bit (``tests/test_repair_properties.py``,
``tests/test_se_bootstrap_properties.py``,
``tests/test_se_events_properties.py``):

* :func:`resize_to_cardinality` coerces one rebased solution back to its
  thread's exact cardinality under Ĉ;
* :func:`greedy_swap_improve` re-anchors it with a few improving swaps;
* :func:`initialize_scalar` is Alg. 2 for one thread;
* :func:`spawn_scalar` is the per-thread cold bootstrap built on it;
* :func:`adopt_scalar` is the whole per-thread adoption loop;
* :func:`apply_events_scalar` is the per-thread LEAVE/JOIN re-seat.

:func:`threads_of` and :func:`reseat_threads` convert a population's rows
to executor/thread objects and back.
"""

from __future__ import annotations

import numpy as np

from repro.core.dynamics import EventKind
from repro.core.problem import EpochInstance
from repro.core.repair import RowRepair
from repro.core.se import InfeasibleEpochError, SEWarmState, StochasticExploration
from repro.core.solution import Solution
from repro.sim.rng import RandomStreams

from tests.serial_oracle import _Replica, _solution_masks, _SolutionThread, _ThreadRng


def threads_of(population, config) -> list:
    """The population's rows as executor/thread objects (slots ascending).

    Each thread holds an unseeded stream of its row's name; nothing here
    draws from it.
    """
    rows = population.rows
    family = population.cardinalities.tolist()
    replicas = []
    for group, replica_id in enumerate(population.replica_ids):
        threads = []
        for k, cardinality in enumerate(family):
            row = group * len(family) + k
            rng = _ThreadRng(config.seed, population.stream_names[row])
            thread = _SolutionThread(cardinality, rng, config)
            if rows.ok[row]:
                thread.set_solution(Solution.from_cached(
                    population.instance, rows.masks[row].tobytes(),
                    float(rows.utility[row]), int(rows.weight[row]), int(rows.count[row]),
                ))
            threads.append(thread)
        replica = _Replica(replica_id, threads)
        replica.virtual_time = float(population.virtual_times[group])
        replicas.append(replica)
    return replicas


def reseat_threads(population, instance: EpochInstance, replicas: list) -> None:
    """Install thread objects as the population's rows on ``instance``."""
    threads = [thread for replica in replicas for thread in replica.threads]
    solutions = [thread.solution for thread in threads]
    held = [s is not None for s in solutions]
    rows = RowRepair(
        np.array(held, dtype=bool),
        _solution_masks(solutions, instance.num_shards),
        np.array([s.utility if s is not None else 0.0 for s in solutions]),
        np.array([s.weight if s is not None else 0 for s in solutions], dtype=np.int64),
        np.array([s.count if s is not None else 0 for s in solutions], dtype=np.int64),
    )
    population.reseat(instance, [thread.cardinality for thread in replicas[0].threads],
                      rows, [thread.rng.name for thread in threads])


def resize_to_cardinality(
    instance: EpochInstance, solution: Solution, cardinality: int
) -> bool:
    """Coerce ``solution`` to exactly ``cardinality`` members, under Ĉ.

    The repair a warm-started solution thread :math:`f_n` needs when
    committee churn broke its exact-``n`` family shape: departed members
    leave the rebased count short (or a shrunken range leaves it long).
    Trims the lowest-value members while over; pads with the best-value
    fitting outsider while short, falling back to weight-reducing swaps
    (heaviest member for lightest outsider) when nothing fits; finishes
    with the same swap loop until const. (4) holds.  Returns ``True`` on
    success — the caller keeps the repaired carried solution — and
    ``False`` when the target shape is unreachable, in which case the
    solution should be discarded and re-initialised instead.
    """
    values = instance.values
    tx_counts = instance.tx_counts
    while solution.count > cardinality:
        selected = solution.selected_positions()
        solution.flip(int(selected[np.argmin(values[selected])]))
    while solution.count < cardinality:
        unselected = solution.unselected_positions()
        if not len(unselected):
            return False
        slack = instance.capacity - solution.weight
        fitting = unselected[tx_counts[unselected] <= slack]
        if len(fitting):
            solution.flip(int(fitting[np.argmax(values[fitting])]))
            continue
        selected = solution.selected_positions()
        if not len(selected):
            return False
        heaviest = int(selected[np.argmax(tx_counts[selected])])
        lightest = int(unselected[np.argmin(tx_counts[unselected])])
        if int(tx_counts[lightest]) >= int(tx_counts[heaviest]):
            return False
        solution.swap(heaviest, lightest)
    while not solution.capacity_feasible:
        selected = solution.selected_positions()
        unselected = solution.unselected_positions()
        if not len(selected) or not len(unselected):
            return False
        heaviest = int(selected[np.argmax(tx_counts[selected])])
        lighter = unselected[tx_counts[unselected] < int(tx_counts[heaviest])]
        if not len(lighter):
            return False
        solution.swap(heaviest, int(lighter[np.argmax(values[lighter])]))
    return True


def greedy_swap_improve(
    instance: EpochInstance, solution: Solution, max_swaps: int = 4
) -> None:
    """Cardinality-preserving improving swaps in place (at most ``max_swaps``).

    The fixed-cardinality counterpart of :func:`repro.core.repair.greedy_improve`, for
    retained solution threads :math:`f_n` whose cardinality contract must
    survive a warm-start rebase: repeatedly swap the lowest-value member
    for the best-value outsider that fits the freed capacity, stopping at
    the first non-improving exchange.  ``max_swaps`` is deliberately small
    — the pass re-anchors a stale thread to the drifted instance without
    collapsing the Γ replicas' population diversity onto one greedy point.
    """
    values = instance.values
    tx_counts = instance.tx_counts
    for _ in range(max_swaps):
        selected = solution.selected_positions()
        unselected = solution.unselected_positions()
        if not len(selected) or not len(unselected):
            return
        worst = int(selected[np.argmin(values[selected])])
        slack = instance.capacity - solution.weight + int(tx_counts[worst])
        fitting = unselected[tx_counts[unselected] <= slack]
        if not len(fitting):
            return
        best = int(fitting[np.argmax(values[fitting])])
        if values[best] <= values[worst]:
            return
        solution.swap(worst, best)


def initialize_scalar(
    thread: _SolutionThread, instance: EpochInstance, np_rng: np.random.Generator
) -> bool:
    """Alg. 2 for one thread: a random feasible solution of its cardinality.

    Draws one ``permutation(N)`` and takes its first ``n`` positions; an
    over-Ĉ draw swaps its heaviest members for the lightest outsiders until
    the capacity holds, falling back to the ``n`` lightest shards.  A
    cardinality outside ``(0, N]`` draws nothing and deactivates.
    """
    n = thread.cardinality
    thread.timer = None
    if not 0 < n <= instance.num_shards:
        thread.set_solution(None)
        return False
    tx_counts = instance.tx_counts
    permutation = np_rng.permutation(instance.num_shards)
    chosen, outside = permutation[:n], permutation[n:]
    weight = int(tx_counts[chosen].sum())
    if weight > instance.capacity and len(outside):
        heavy_first = chosen[np.argsort(-tx_counts[chosen], kind="stable")]
        light_first = outside[np.argsort(tx_counts[outside], kind="stable")]
        swaps = min(len(heavy_first), len(light_first))
        relief = np.cumsum(tx_counts[heavy_first[:swaps]] - tx_counts[light_first[:swaps]])
        best_relief = np.maximum.accumulate(relief)
        deficit = weight - instance.capacity
        needed = int(np.searchsorted(best_relief, deficit, side="left")) + 1
        if needed <= swaps and best_relief[needed - 1] >= deficit:
            chosen = np.concatenate([heavy_first[needed:], light_first[:needed]])
        else:
            chosen = np.argsort(tx_counts, kind="stable")[:n]  # lightest-n fallback
    candidate = Solution.from_indices(instance, chosen)
    if candidate.capacity_feasible:
        thread.set_solution(candidate)
        return True
    thread.set_solution(None)
    return False


def spawn_scalar(
    solver: StochasticExploration, instance: EpochInstance, streams: RandomStreams
) -> list:
    """The cold bootstrap one thread at a time (the batched pass's reference).

    Same contract as ``StochasticExploration._bootstrap``: replica ``g``
    initialises its threads in cardinality order from ``replica-{g}-init``.
    """
    cardinalities = solver.thread_cardinalities(instance)
    replicas = []
    for replica_id in range(solver.config.num_threads):
        init_rng = streams.get(f"replica-{replica_id}-init")
        threads = []
        for cardinality in cardinalities:
            rng = _ThreadRng(streams.seed, f"replica-{replica_id}-n{cardinality}")
            thread = _SolutionThread(cardinality=cardinality, thread_rng=rng, config=solver.config)
            initialize_scalar(thread, instance, init_rng)
            threads.append(thread)
        replicas.append(_Replica(replica_id, threads))
    return replicas


def adopt_scalar(
    solver: StochasticExploration, warm: SEWarmState, instance: EpochInstance
) -> dict:
    """Drift adoption one thread at a time (the batched pass's reference).

    Same contract as ``StochasticExploration._adopt_replicas`` on a drifted
    instance: rebase every carried thread, resize and improve it, and
    re-initialise spawned or unrepairable threads from the continued init
    streams in replica/cardinality order.
    """
    streams = warm.streams
    cardinalities = solver.thread_cardinalities(instance)
    retained = reseated = spawned = 0
    replicas = threads_of(warm.population, solver.config)
    for replica in replicas:
        replica_id = replica.replica_id
        init_rng = streams.get(f"replica-{replica_id}-init")
        existing = {thread.cardinality: thread for thread in replica.threads}
        threads = []
        for cardinality in cardinalities:
            thread = existing.pop(cardinality, None)
            if thread is None:
                rng = _ThreadRng(
                    streams.seed, f"replica-{replica_id}-gen{warm.generation}-n{cardinality}"
                )
                thread = _SolutionThread(
                    cardinality=cardinality, thread_rng=rng, config=solver.config
                )
                initialize_scalar(thread, instance, init_rng)
                spawned += 1
            else:
                rebased = (
                    thread.solution.rebase(instance) if thread.solution is not None else None
                )
                if rebased is not None and resize_to_cardinality(
                    instance, rebased, cardinality
                ):
                    greedy_swap_improve(instance, rebased)
                    thread.set_solution(rebased)
                    retained += 1
                else:
                    initialize_scalar(thread, instance, init_rng)
                    reseated += 1
            thread.timer = None
            threads.append(thread)
        replica.threads = threads
    reseat_threads(warm.population, instance, replicas)
    return {"retained": retained, "reseated": reseated, "spawned": spawned,
            "zero_drift": False}


def apply_events_scalar(
    solver: StochasticExploration,
    population,
    events,
    streams: RandomStreams,
    generation: int = 0,
) -> dict:
    """The dynamic-event re-seat one thread at a time (the row path's reference).

    Same contract as ``StochasticExploration._apply_events``: per event, a
    LEAVE re-initialises every thread holding the departed committee from
    ``replica-{id}-leave`` and rebases the rest, a JOIN rebases every
    thread; then each replica's family is re-spread over the new feasible
    range, spawning missing cardinalities and re-initialising threads
    without a solution from ``replica-{id}-init``.  Returns the
    ``se.reseat`` counts.
    """
    instance = population.instance
    replicas = threads_of(population, solver.config)
    spawn_tag = f"gen{generation}-dyn" if generation else "dyn"
    spawn_tag += str(population.reseats)
    population.reseats += 1
    for event in events:
        if event.kind is EventKind.LEAVE:
            if event.shard_id not in instance.shard_ids:
                continue
            if instance.num_shards <= 1:
                raise InfeasibleEpochError("LEAVE would empty the epoch")
            new_instance = instance.without(event.shard_id)
            for replica in replicas:
                init_rng = streams.get(f"replica-{replica.replica_id}-leave")
                for thread in replica.threads:
                    if thread.solution is None:
                        continue
                    if event.shard_id in thread.solution.selected_ids():
                        initialize_scalar(thread, new_instance, init_rng)
                    else:
                        thread.set_solution(thread.solution.rebase(new_instance))
        else:
            if event.shard_id in instance.shard_ids:
                continue
            new_instance = instance.with_shard(event.shard_id, event.tx_count, event.latency)
            for replica in replicas:
                for thread in replica.threads:
                    if thread.solution is not None:
                        thread.set_solution(thread.solution.rebase(new_instance))
        instance = new_instance
    cardinalities = solver.thread_cardinalities(instance)
    spawned = reinitialised = 0
    for replica in replicas:
        replica_id = replica.replica_id
        init_rng = streams.get(f"replica-{replica_id}-init")
        existing = {thread.cardinality: thread for thread in replica.threads}
        threads = []
        for cardinality in cardinalities:
            thread = existing.pop(cardinality, None)
            if thread is None:
                name = f"replica-{replica_id}-{spawn_tag}-n{cardinality}"
                thread = _SolutionThread(cardinality, _ThreadRng(streams.seed, name),
                                         solver.config)
                initialize_scalar(thread, instance, init_rng)
                spawned += 1
            elif thread.solution is None:
                initialize_scalar(thread, instance, init_rng)
                reinitialised += 1
            threads.append(thread)
        replica.threads = threads
    reseat_threads(population, instance, replicas)
    return {"threads_spawned": spawned, "threads_reinitialised": reinitialised}
