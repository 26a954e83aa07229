"""Regression tests for the SE repair bugs exposed by churn storms.

Three dynamic-path bugs, each pinned by a construction that fails on the
pre-fix code:

1. ``_SolutionThread.initialize`` ran ``np.searchsorted`` over the raw
   swap-relief cumsum, which is concave (its increments can go negative)
   and therefore NOT sorted — bisection fell off the peak and collapsed
   perfectly repairable draws to the lightest-``n`` fallback.
2. ``_rebase_best`` never re-established const. (3) ``count >= N_min``
   after a LEAVE shrank the carried incumbent below the floor; the
   infeasible incumbent could then win ``_pick_better`` on raw utility.
3. ``_apply_leave`` drew every replica's re-initialisation from one shared
   ``"leave-reinit"`` stream, correlating the Γ replicas' post-failure
   exploration and making it depend on replica iteration order.
"""

import numpy as np

from repro.core.dynamics import CommitteeEvent, EventKind
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.repair import repair_capacity, repair_cardinality, repair_feasibility
from repro.core.se import SEConfig, StochasticExploration, _SolutionThread, _ThreadRng
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


def _thread(cardinality: int, config: SEConfig = SEConfig()) -> _SolutionThread:
    return _SolutionThread(
        cardinality=cardinality, thread_rng=_ThreadRng(0, "regression"), config=config
    )


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
        thread = _thread(cardinality=5)
        assert thread.initialize(instance, _IdentityRng())
        picked = set(int(p) for p in thread.solution.selected_positions())
        # One swap (heaviest pick 0 out, lightest outsider 5 in) repairs the
        # draw; the broken bisection instead returned the lightest five
        # shards {2, 3, 4, 5, 6}, erasing the randomness of Alg. 2.
        assert picked == {1, 2, 3, 4, 5}
        assert picked != {2, 3, 4, 5, 6}
        assert thread.solution.capacity_feasible

    def test_initialize_feasible_across_random_draws(self):
        """Whatever the draw, a feasible cardinality must initialise feasible."""
        for seed in range(8):
            instance = random_instance(14, seed=seed, capacity=None)
            streams = RandomStreams(seed)
            np_rng = streams.get("init")
            for cardinality in range(1, instance.max_feasible_cardinality + 1):
                thread = _thread(cardinality)
                assert thread.initialize(instance, np_rng)
                assert thread.solution.count == cardinality
                assert thread.solution.capacity_feasible


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
        return solver, streams, solver._bootstrap(instance, streams).replicas

    def test_leave_reinit_independent_of_replica_order(self):
        instance = random_instance(16, seed=11)
        _, streams_fwd, replicas_fwd = self._spawn(instance)
        _, streams_rev, replicas_rev = self._spawn(instance)
        # Victim: some shard that at least one thread currently selects, so
        # the leave actually re-initialises solutions.
        victim = next(
            sid
            for replica in replicas_fwd
            for thread in replica.threads
            if thread.solution is not None
            for sid in thread.solution.selected_ids()
        )
        event = CommitteeEvent(iteration=0, kind=EventKind.LEAVE, shard_id=victim)
        StochasticExploration._apply_leave(instance, replicas_fwd, event, streams_fwd)
        StochasticExploration._apply_leave(
            instance, list(reversed(replicas_rev)), event, streams_rev
        )
        by_id = {replica.replica_id: replica for replica in replicas_rev}
        for replica in replicas_fwd:
            twin = by_id[replica.replica_id]
            for thread, twin_thread in zip(replica.threads, twin.threads):
                assert thread.cardinality == twin_thread.cardinality
                if thread.solution is None:
                    assert twin_thread.solution is None
                else:
                    # A shared stream hands each replica a different slice of
                    # one sequence, so reversing iteration order permuted the
                    # re-initialised solutions across replicas.
                    assert thread.solution.selected == twin_thread.solution.selected

    def test_replica_ids_are_stable_identities(self):
        instance = random_instance(12, seed=2)
        _, _, replicas = self._spawn(instance)
        assert [replica.replica_id for replica in replicas] == list(range(len(replicas)))
