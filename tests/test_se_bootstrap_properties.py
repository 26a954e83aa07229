"""Property suite for the batched Alg. 2 bootstrap.

``repro.core.se._initialize_rows`` draws every solution thread's random
feasible start (Alg. 1 line 3, Alg. 2) for the whole Γ×thread population
in one array pass.  It must match the per-thread loop it replaced
(:func:`tests.repair_oracle.initialize_scalar`,
:func:`tests.repair_oracle.spawn_scalar`) bit for bit: the same ok flags
and masks, the same utility/weight/count caches, and every
``replica-*-init`` stream left at the same position.

Generated instances include zero-tx shards (a pure negative age), a Ĉ
tight enough that most draws take the heavy/light swap repair, draws no
swap count can repair (the lightest-n fallback), and cardinalities of zero
and above ``N``, which draw nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import se as se_module
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import SEConfig, StochasticExploration
from repro.sim.rng import RandomStreams

from tests.repair_oracle import initialize_scalar, spawn_scalar, threads_of
from tests.serial_oracle import _SolutionThread, _ThreadRng
from tests.test_repair_properties import instances


def _scalar_rows(instance, draws):
    """Per-thread Alg. 2 over ``draws`` (the batched call's argument shape)."""
    threads = []
    for rng, cardinalities in draws:
        for cardinality in cardinalities:
            thread = _SolutionThread(cardinality, _ThreadRng(0, "oracle"), SEConfig())
            initialize_scalar(thread, instance, rng)
            threads.append(thread)
    return threads


def _assert_rows_match(rows, threads):
    assert rows.ok.tolist() == [t.solution is not None for t in threads]
    for row, thread in enumerate(threads):
        if thread.solution is None:
            continue
        solution = thread.solution
        assert rows.masks[row].tobytes() == bytes(solution.selected)
        assert float(rows.utility[row]).hex() == float(solution.utility).hex()
        assert int(rows.weight[row]) == solution.weight
        assert int(rows.count[row]) == solution.count


def _streams(seed, replicas):
    streams = RandomStreams(seed)
    return [streams.get(f"replica-{g}-init") for g in range(replicas)]


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_permuted_equals_successive_permutations(n, k, seed):
    """The draw identity the batched bootstrap rests on, on the installed numpy."""
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = batched.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
    expected = np.array([scalar.permutation(n) for _ in range(k)]).reshape(k, n)
    assert np.array_equal(rows, expected)
    assert batched.bit_generator.state == scalar.bit_generator.state


@given(instances(), st.data())
@settings(max_examples=120, deadline=None)
def test_initialize_rows_matches_the_scalar_alg2(instance, data):
    n = instance.num_shards
    replicas = data.draw(st.integers(min_value=1, max_value=4))
    families = [
        data.draw(st.lists(st.integers(min_value=-1, max_value=n + 2), max_size=8))
        for _ in range(replicas)
    ]
    seed = data.draw(st.integers(min_value=0, max_value=1_000))
    batched, scalar = _streams(seed, replicas), _streams(seed, replicas)
    rows = se_module._initialize_rows(instance, list(zip(batched, families)))
    _assert_rows_match(rows, _scalar_rows(instance, list(zip(scalar, families))))
    for mine, theirs in zip(batched, scalar):
        assert mine.bit_generator.state == theirs.bit_generator.state


@given(instances(min_shards=2), st.integers(min_value=1, max_value=4),
       st.sampled_from([None, 1, 3, 64]), st.integers(min_value=0, max_value=1_000))
@settings(max_examples=60, deadline=None)
def test_bootstrap_matches_the_scalar_spawn(instance, gamma, cap, seed):
    solver = StochasticExploration(SEConfig(num_threads=gamma, max_solution_threads=cap,
                                            seed=seed))
    batched, scalar = RandomStreams(seed), RandomStreams(seed)
    replicas = threads_of(solver._bootstrap(instance, batched), solver.config)
    expected = spawn_scalar(solver, instance, scalar)
    for replica, twin in zip(replicas, expected, strict=True):
        assert replica.replica_id == twin.replica_id
        assert replica.current_utility == twin.current_utility
        assert replica.virtual_time == twin.virtual_time == 0.0
        for thread, twin_thread in zip(replica.threads, twin.threads, strict=True):
            assert thread.cardinality == twin_thread.cardinality
            assert (thread.sel, thread.unsel, thread.loc, thread.active) == (
                twin_thread.sel, twin_thread.unsel, twin_thread.loc, twin_thread.active
            )
            assert thread.rng._rnd.getstate() == twin_thread.rng._rnd.getstate()
            mine, theirs = thread.solution, twin_thread.solution
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert bytes(mine.selected) == bytes(theirs.selected)
                assert float(mine.utility).hex() == float(theirs.utility).hex()
                assert (mine.weight, mine.count) == (theirs.weight, theirs.count)
    for g in range(gamma):
        name = f"replica-{g}-init"
        assert batched.get(name).bit_generator.state == scalar.get(name).bit_generator.state


# Each Alg. 2 branch, forced by construction (draws from a fixed seed).
BRANCHES = {
    # Ĉ never binds: every draw is accepted as drawn.
    "accepted": ([100, 200, 300, 400, 500, 600], 10_000, [1, 3, 6]),
    # Five of six shards always include the heavy one, which busts Ĉ:
    # the swap repair sheds it.
    "swap_repair": ([5_000, 10, 10, 0, 0, 0], 60, [5, 5, 5]),
    # Two equal heavy shards and n = 1: no swap sheds the deficit, and the
    # lightest-1 fallback still busts Ĉ, so the row deactivates.
    "fallback_infeasible": ([10, 10], 5, [1, 1, 1]),
    # Out-of-range cardinalities draw nothing.
    "out_of_range": ([10, 20, 30], 100, [0, 4, 9]),
}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_each_alg2_branch_matches_the_scalar_oracle(branch, monkeypatch):
    tx, capacity, family = BRANCHES[branch]
    instance = EpochInstance(tx, [10.0 * (i + 1) for i in range(len(tx))],
                             MVComConfig(capacity=capacity))
    repairs = []
    relieve = se_module._relieve_capacity
    monkeypatch.setattr(se_module, "_relieve_capacity",
                        lambda *args: repairs.append(args) or relieve(*args))
    batched, scalar = _streams(4, 2), _streams(4, 2)
    rows = se_module._initialize_rows(instance, [(rng, family) for rng in batched])
    _assert_rows_match(rows, _scalar_rows(instance, [(rng, family) for rng in scalar]))
    for mine, theirs in zip(batched, scalar):
        assert mine.bit_generator.state == theirs.bit_generator.state
    if branch == "accepted":
        assert rows.ok.all() and not repairs
    elif branch == "swap_repair":
        assert rows.ok.all() and repairs
    elif branch == "fallback_infeasible":
        assert not rows.ok.any() and len(repairs) == rows.ok.size
    else:
        assert not rows.ok.any() and not repairs
