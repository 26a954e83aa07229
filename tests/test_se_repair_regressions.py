"""Regression tests for the SE repair bugs exposed by churn storms.

Three dynamic-path bugs, each pinned by a construction that fails on the
pre-fix code:

1. Alg. 2's initialisation (now ``_initialize_rows``) ran
   ``np.searchsorted`` over the raw swap-relief cumsum, which is concave
   (its increments can go negative) and therefore NOT sorted — bisection
   fell off the peak and collapsed perfectly repairable draws to the
   lightest-``n`` fallback.
2. ``_rebase_best`` never re-established const. (3) ``count >= N_min``
   after a LEAVE shrank the carried incumbent below the floor; the
   infeasible incumbent could then win ``_pick_better`` on raw utility.
3. The LEAVE re-seat (now in ``_apply_events``) drew every replica's
   re-initialisation from one shared ``"leave-reinit"`` stream, correlating
   the Γ replicas' post-failure exploration and making it depend on replica
   iteration order.
"""

import numpy as np

from repro.core.dynamics import CommitteeEvent, EventKind
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.repair import (
    RowRepair,
    repair_capacity,
    repair_cardinality,
    repair_feasibility,
)
from repro.core.se import SEConfig, StochasticExploration, _initialize_rows
from repro.core.solution import Solution
from repro.sim.rng import RandomStreams

from tests.conftest import random_instance


class _IdentityRng:
    """A stand-in numpy RNG whose permutations are the identity (rigged draws)."""

    @staticmethod
    def permutation(n):
        return np.arange(n)

    @staticmethod
    def permuted(x, axis=None):
        return np.array(x)


class TestInitializeSearchsorted:
    """Bug 1: bisection over the non-monotone relief sequence."""

    def _instance(self) -> EpochInstance:
        # Rigged so the identity permutation picks positions 0-4 (weight 370,
        # deficit 25 over Ĉ=345).  Swap-relief increments are [30, 10, -20,
        # -25, -30]: the cumsum [30, 40, 20, -5, -35] crosses the deficit at
        # k=1 but is NOT sorted, so raw bisection probes 20, -5, -35, decides
        # six swaps are needed (> 5 available) and wrongly falls back to the
        # lightest-5 — a different index set than the one-swap repair.
        return EpochInstance(
            tx_counts=[100, 90, 65, 60, 55, 70, 80, 85, 85, 85],
            latencies=[10.0] * 10,
            config=MVComConfig(alpha=1.5, capacity=345, n_min_fraction=0.3),
        )

    def test_minimal_swap_repair_not_lightest_n_fallback(self):
        instance = self._instance()
        rows = _initialize_rows(instance, [(_IdentityRng(), [5])])
        assert rows.ok[0]
        picked = set(int(p) for p in np.flatnonzero(rows.masks[0]))
        # One swap (heaviest pick 0 out, lightest outsider 5 in) repairs the
        # draw; the broken bisection instead returned the lightest five
        # shards {2, 3, 4, 5, 6}, erasing the randomness of Alg. 2.
        assert picked == {1, 2, 3, 4, 5}
        assert picked != {2, 3, 4, 5, 6}
        assert rows.weight[0] <= instance.capacity

    def test_initialize_feasible_across_random_draws(self):
        """Whatever the draw, a feasible cardinality must initialise feasible."""
        for seed in range(8):
            instance = random_instance(14, seed=seed, capacity=None)
            streams = RandomStreams(seed)
            np_rng = streams.get("init")
            for cardinality in range(1, instance.max_feasible_cardinality + 1):
                rows = _initialize_rows(instance, [(np_rng, [cardinality])])
                assert rows.ok[0]
                assert rows.count[0] == cardinality
                assert rows.weight[0] <= instance.capacity


class TestRebaseBestRepairs:
    """Bug 2: the carried incumbent must come back feasible after a rebase."""

    def _instance(self, n: int = 10) -> EpochInstance:
        return EpochInstance(
            tx_counts=[100] * n,
            latencies=[1.0] * n,
            config=MVComConfig(alpha=1.5, capacity=100 * n, n_min_fraction=0.5),
        )

    def test_leave_below_n_min_repads_cardinality(self):
        instance = self._instance(10)  # n_min = 5
        solver = StochasticExploration(SEConfig())
        best = Solution.from_indices(instance, [0, 1, 2, 3, 4])
        assert best.feasible
        smaller = instance.without(0)  # 9 shards -> n_min = ceil(4.5) = 5
        assert smaller.n_min == 5
        rebased = solver._rebase_best(best, smaller)
        # The raw rebase has count 4 < 5; capacity was never violated, so the
        # old trim-only path returned it infeasible as-is.
        assert rebased.count >= smaller.n_min
        assert rebased.feasible

    def test_rebase_preserves_surviving_selection(self):
        instance = self._instance(10)
        solver = StochasticExploration(SEConfig())
        best = Solution.from_indices(instance, [0, 1, 2, 3, 4])
        smaller = instance.without(9)  # victim was not selected
        rebased = solver._rebase_best(best, smaller)
        assert set(rebased.selected_ids()) == {0, 1, 2, 3, 4}


class TestRepairMoves:
    """The shared repair moves in repro.core.repair."""

    def test_repair_capacity_trims_lowest_value(self):
        instance = random_instance(12, seed=3, capacity=6_000)
        over = Solution(instance, np.ones(12, dtype=bool))
        assert not over.capacity_feasible
        repair_capacity(instance, over)
        assert over.capacity_feasible

    def test_repair_feasibility_restores_both_constraints(self):
        for seed in range(6):
            instance = random_instance(15, seed=seed)
            broken = Solution(instance, np.ones(15, dtype=bool))
            repair_feasibility(instance, broken)
            assert broken.feasible, f"seed {seed}: {broken}"

    def test_repair_cardinality_reexported_from_baselines(self):
        """Compat: the historical import path must keep working."""
        from repro.baselines.base import repair_cardinality as reexported

        assert reexported is repair_cardinality


class TestLeaveStreamIsolation:
    """Bug 3: per-replica leave streams, keyed by stable replica identity."""

    def _spawn(self, instance, seed=7):
        solver = StochasticExploration(SEConfig(num_threads=4, seed=seed))
        streams = RandomStreams(seed)
        return solver, streams, solver._bootstrap(instance, streams)

    def test_leave_reinit_independent_of_replica_order(self):
        instance = random_instance(16, seed=11)
        solver, streams_fwd, forward = self._spawn(instance)
        _, streams_rev, reverse = self._spawn(instance)
        # The same population with its replicas (row blocks) in reverse order.
        gamma, size = len(reverse.replica_ids), len(reverse.cardinalities)
        order = (np.arange(gamma)[::-1, None] * size + np.arange(size)).reshape(-1)
        reverse.replica_ids.reverse()
        reverse.reseat(instance, reverse.cardinalities,
                       RowRepair(*(field[order] for field in reverse.rows)),
                       [reverse.stream_names[row] for row in order])
        # Victim: some shard that at least one thread currently selects, so
        # the leave actually re-initialises solutions.
        rows = forward.rows
        victim = instance.shard_ids[int(np.flatnonzero(rows.masks[np.argmax(rows.ok)])[0])]
        event = CommitteeEvent(iteration=0, kind=EventKind.LEAVE, shard_id=victim)
        solver._apply_events(forward, [event], streams_fwd)
        solver._apply_events(reverse, [event], streams_rev)
        size = len(forward.cardinalities)
        by_id = {replica_id: g for g, replica_id in enumerate(reverse.replica_ids)}
        assert np.array_equal(forward.cardinalities, reverse.cardinalities)
        for group, replica_id in enumerate(forward.replica_ids):
            mine = slice(group * size, (group + 1) * size)
            twin = slice(by_id[replica_id] * size, (by_id[replica_id] + 1) * size)
            assert np.array_equal(forward.rows.ok[mine], reverse.rows.ok[twin])
            held = forward.rows.ok[mine]
            # A shared stream hands each replica a different slice of one
            # sequence, so reversing iteration order permuted the
            # re-initialised solutions across replicas.
            assert np.array_equal(forward.rows.masks[mine][held],
                                  reverse.rows.masks[twin][held])

    def test_replica_ids_are_stable_identities(self):
        instance = random_instance(12, seed=2)
        _, _, population = self._spawn(instance)
        assert population.replica_ids == list(range(len(population.replica_ids)))
