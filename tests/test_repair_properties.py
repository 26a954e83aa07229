"""Property suite for the const. (3)/(4) repair moves.

The batched warm-adoption repair, :func:`repro.core.repair.resize_rows`,
must match the scalar per-thread moves it replaced
(:mod:`tests.repair_oracle`) bit for bit: the same ok flags and masks, and
the same utility/weight/count caches, not just close ones.  Generated
instances include zero-tx shards (whose value is a pure negative age), a
capacity Ĉ tight enough to bind, rows both over and under their
cardinality, and cardinalities above the capacity cap, which no repair can
reach.  Every repaired row must also land exactly on its cardinality under
Ĉ with a utility cache matching a from-scratch recompute.

Warm adoption itself is checked against the scalar adoption loop on
drifted instances, including carried threads with no solution, which take
the re-initialise branch that a serve stream never reaches.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import EpochInstance, MVComConfig
from repro.core.repair import greedy_improve, repair_feasibility, resize_rows
from repro.core.se import SEConfig, StochasticExploration, _rebased_masks
from repro.core.solution import Solution

from tests.repair_oracle import adopt_scalar, greedy_swap_improve, resize_to_cardinality
from tests.serial_oracle import _solution_masks

# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
tx_counts = st.one_of(st.just(0), st.integers(min_value=0, max_value=3_000))
latencies = st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False, allow_infinity=False)


@st.composite
def instances(draw, min_shards=1, max_shards=24):
    shards = draw(st.lists(st.tuples(tx_counts, latencies), min_size=min_shards,
                           max_size=max_shards))
    tx = [s[0] for s in shards]
    # From a Ĉ that barely fits one light shard to one that never binds.
    share = draw(st.floats(min_value=0.02, max_value=1.2))
    config = MVComConfig(
        alpha=draw(st.sampled_from([0.01, 1.5, 10.0])),
        capacity=max(int(share * sum(tx)), 1),
        n_min_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    return EpochInstance(tx, [s[1] for s in shards], config)


@st.composite
def populations(draw):
    """An instance plus rows of (start mask, target cardinality)."""
    instance = draw(instances())
    n = instance.num_shards
    rows = draw(st.integers(min_value=1, max_value=12))
    masks = np.array(
        draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                      min_size=rows, max_size=rows)),
        dtype=bool,
    ).reshape(rows, n)
    cardinalities = np.array(
        draw(st.lists(st.integers(min_value=1, max_value=n), min_size=rows, max_size=rows)),
        dtype=np.int64,
    )
    return instance, masks, cardinalities


def scalar_rows(instance, masks, cardinalities):
    """The oracle: rebase-score, resize and improve each row as one Solution."""
    solutions, ok = [], []
    for mask, cardinality in zip(masks, cardinalities):
        solution = Solution(instance, mask)
        repaired = resize_to_cardinality(instance, solution, int(cardinality))
        if repaired:
            greedy_swap_improve(instance, solution)
        solutions.append(solution)
        ok.append(repaired)
    return solutions, ok


def assert_matches_oracle(instance, masks, cardinalities):
    batched = resize_rows(instance, masks, cardinalities)
    solutions, ok = scalar_rows(instance, masks, cardinalities)
    assert batched.ok.tolist() == ok
    for row, solution in enumerate(solutions):
        assert np.array_equal(batched.masks[row], solution.mask)
        # Bit equality: the caches must evolve exactly as the scalar moves'.
        assert float(batched.utility[row]).hex() == float(solution.utility).hex()
        assert int(batched.weight[row]) == solution.weight
        assert int(batched.count[row]) == solution.count
    return batched


# --------------------------------------------------------------------- #
# batched repair vs the scalar oracle
# --------------------------------------------------------------------- #
@given(populations())
@settings(max_examples=300, deadline=None)
def test_resize_rows_matches_the_scalar_moves(population):
    assert_matches_oracle(*population)


@given(populations())
@settings(max_examples=200, deadline=None)
def test_repaired_rows_meet_their_contract(population):
    instance, masks, cardinalities = population
    batched = resize_rows(instance, masks, cardinalities)
    for row in np.flatnonzero(batched.ok):
        mask = batched.masks[row]
        assert batched.count[row] == cardinalities[row] == mask.sum()
        assert batched.weight[row] == instance.weight(mask) <= instance.capacity
        exact = instance.utility(mask)
        assert abs(batched.utility[row] - exact) <= 1e-9 * max(1.0, abs(exact))


@given(populations())
@settings(max_examples=150, deadline=None)
def test_feasible_cardinalities_always_repair(population):
    """Any cardinality within the capacity cap is reachable from any start."""
    instance, masks, cardinalities = population
    if instance.max_feasible_cardinality == 0:
        return
    reachable = np.minimum(cardinalities, instance.max_feasible_cardinality)
    assert resize_rows(instance, masks, reachable).ok.all()


def test_unreachable_cardinalities_fail_like_the_oracle():
    """Above the capacity cap no pad or swap can succeed: the re-seat branch."""
    instance = EpochInstance(
        tx_counts=[0, 900, 400, 0, 700, 300],
        latencies=[5.0, 1.0, 2.0, 9.0, 3.0, 1.5],
        config=MVComConfig(capacity=1_000, n_min_fraction=0.5),
    )
    cap = instance.max_feasible_cardinality
    masks = np.array([
        [True, True, True, True, True, True],      # over Ĉ and over n
        [False, False, False, False, False, False],  # empty, short
        [False, True, False, False, True, False],  # heavy and short
        [True, False, True, True, False, True],    # feasible start
    ])
    cardinalities = np.array([cap + 1, cap + 2, instance.num_shards, cap], dtype=np.int64)
    batched = assert_matches_oracle(instance, masks, cardinalities)
    assert batched.ok.tolist() == [False, False, False, True]


def test_zero_tx_negative_shards_are_trimmed_first():
    """Weightless shards are not free: their value is a negative age."""
    instance = EpochInstance(
        tx_counts=[0, 0, 500, 600, 700],
        latencies=[0.0, 1.0, 9.0, 9.0, 9.0],
        config=MVComConfig(alpha=0.001, capacity=2_000, n_min_fraction=0.2),
    )
    assert instance.values[0] < 0 and instance.values[1] < 0
    masks = np.ones((1, 5), dtype=bool)
    batched = assert_matches_oracle(instance, masks, np.array([3]))
    assert batched.masks[0].tolist() == [False, False, True, True, True]


@given(instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_repair_feasibility_lands_feasible(instance, data):
    """const. (3)/(4) hold after repair whenever N_min is reachable.

    They still hold, with no utility lost, after the greedy pass that
    follows the repair on a carried incumbent.
    """
    assert instance.n_min <= instance.max_feasible_cardinality
    mask = np.array(
        data.draw(st.lists(st.booleans(), min_size=instance.num_shards,
                           max_size=instance.num_shards)),
        dtype=bool,
    )
    solution = Solution(instance, mask)
    repair_feasibility(instance, solution)
    assert solution.feasible
    assert instance.is_feasible(solution.mask)
    before = solution.utility
    greedy_improve(instance, solution)
    assert solution.feasible
    assert solution.utility >= before


# --------------------------------------------------------------------- #
# warm adoption vs the scalar adoption loop
# --------------------------------------------------------------------- #
@given(instances(min_shards=2), st.data())
@settings(max_examples=60, deadline=None)
def test_rebased_masks_match_solution_rebase(instance, data):
    n = instance.num_shards
    ids = list(instance.shard_ids)
    kept = data.draw(st.lists(st.sampled_from(ids), unique=True, min_size=1))
    joined = list(range(1_000, 1_000 + data.draw(st.integers(0, 4))))
    drifted = EpochInstance(
        [7] * (len(kept) + len(joined)), [1.0] * (len(kept) + len(joined)),
        instance.config, shard_ids=kept + joined,
    )
    solutions = [
        Solution(instance, np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                                         max_size=n)), dtype=bool))
        for _ in range(3)
    ]
    masks = _rebased_masks(_solution_masks(solutions, n), instance, drifted)
    for row, solution in enumerate(solutions):
        assert np.array_equal(masks[row], solution.rebase(drifted).mask)


def _drifted(instance, seed):
    """Churn sibling: committees leave and join, the rest re-value."""
    rng = np.random.default_rng(seed)
    keep = rng.random(instance.num_shards) > 0.3
    keep[0] = True
    joined = int(rng.integers(0, 6))
    tx = np.concatenate([
        np.maximum(instance.tx_counts[keep] + rng.integers(-400, 400, int(keep.sum())), 0),
        rng.integers(0, 3_000, joined),
    ])
    latencies = np.concatenate([
        instance.latencies[keep] * rng.uniform(0.8, 1.2, int(keep.sum())),
        rng.uniform(100.0, 1_500.0, joined),
    ])
    ids = [sid for sid, k in zip(instance.shard_ids, keep) if k]
    ids += list(range(10_000, 10_000 + joined))
    return EpochInstance(tx, latencies, instance.config, shard_ids=ids)


def _population_state(warm):
    population = warm.population
    rows = population.rows
    return [
        (
            replica_id,
            cardinality,
            rows.masks[row].tobytes() if rows.ok[row] else None,
            float(rows.utility[row]).hex() if rows.ok[row] else None,
            int(rows.weight[row]) if rows.ok[row] else None,
            int(rows.count[row]) if rows.ok[row] else None,
            population.stream_names[row],
        )
        for row, (replica_id, cardinality) in enumerate(
            itertools.product(population.replica_ids, population.cardinalities.tolist())
        )
    ]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("drop_solutions", [False, True])
def test_adoption_matches_the_scalar_loop(seed, drop_solutions, serial_race):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(12, 40))
    tx = rng.integers(0, 3_000, n)
    tx[rng.random(n) < 0.2] = 0  # drained committees: zero tx, negative value
    instance = EpochInstance(
        tx, rng.gamma(4.0, 150.0, n),
        MVComConfig(capacity=int(tx.sum() * rng.uniform(0.2, 0.7)) + 1),
    )
    solver = StochasticExploration(SEConfig(
        num_threads=3, max_iterations=150, convergence_window=10_000, seed=seed,
    ))
    warm = solver.solve(instance).warm_state
    if drop_solutions:
        # No serve shape reaches the unrepairable branch, so force it: a
        # carried thread without a solution re-initialises from the init
        # stream, interleaved in order with the spawned cardinalities.
        warm.population.rows.ok.reshape(3, -1)[:, ::3] = False
    scalar = copy.deepcopy(warm)
    drifted = _drifted(instance, seed)
    stats = solver._adopt_replicas(warm, drifted)
    expected = adopt_scalar(solver, scalar, drifted)
    assert stats == expected
    if drop_solutions:
        assert stats["reseated"] > 0
    assert _population_state(warm) == _population_state(scalar)
    for replica_id in range(3):
        name = f"replica-{replica_id}-init"
        assert (warm.streams.get(name).bit_generator.state
                == scalar.streams.get(name).bit_generator.state)
