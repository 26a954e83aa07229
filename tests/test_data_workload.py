"""Tests for epoch workload generation."""

import numpy as np
import pytest

from repro.core.dynamics import EventKind
from repro.data.workload import (
    WorkloadConfig,
    arrived_shards,
    generate_epoch_workload,
    generate_online_workload,
)


class TestStaticWorkload:
    def test_arrival_cutoff_is_nmax_fraction(self):
        workload = generate_epoch_workload(WorkloadConfig(num_committees=50, capacity=40_000, seed=1))
        assert workload.instance.num_shards == 40  # 80% of 50
        assert len(workload.shards) == 50

    def test_instance_ddl_is_slowest_arrival(self):
        workload = generate_epoch_workload(WorkloadConfig(num_committees=50, capacity=40_000, seed=1))
        assert workload.instance.ddl == pytest.approx(workload.instance.latencies.max())

    def test_stragglers_excluded(self):
        workload = generate_epoch_workload(WorkloadConfig(num_committees=50, capacity=40_000, seed=1))
        excluded = sorted(s.latency for s in workload.shards)[40:]
        assert min(excluded) >= workload.instance.ddl

    def test_bootstrap_condition_holds(self):
        """Alg. 1 line 1: total submitted TXs exceed the capacity."""
        for seed in (1, 2, 3):
            workload = generate_epoch_workload(
                WorkloadConfig(num_committees=100, capacity=100_000, seed=seed)
            )
            assert workload.instance.tx_counts.sum() > workload.instance.capacity

    def test_n_min_feasible_without_relaxation(self):
        for seed in (1, 2, 3):
            workload = generate_epoch_workload(
                WorkloadConfig(num_committees=100, capacity=100_000, seed=seed)
            )
            assert not workload.instance.n_min_relaxed

    def test_deterministic_per_seed(self):
        a = generate_epoch_workload(WorkloadConfig(num_committees=40, capacity=40_000, seed=7))
        b = generate_epoch_workload(WorkloadConfig(num_committees=40, capacity=40_000, seed=7))
        assert np.array_equal(a.instance.tx_counts, b.instance.tx_counts)
        assert np.array_equal(a.instance.latencies, b.instance.latencies)

    def test_seeds_differ(self):
        a = generate_epoch_workload(WorkloadConfig(num_committees=40, capacity=40_000, seed=7))
        b = generate_epoch_workload(WorkloadConfig(num_committees=40, capacity=40_000, seed=8))
        assert not np.array_equal(a.instance.tx_counts, b.instance.tx_counts)

    def test_mean_shard_size_calibration(self):
        """blocks_per_committee=1.3 should give ~1.3 * 1088 TXs per shard."""
        workload = generate_epoch_workload(WorkloadConfig(num_committees=200, capacity=200_000, seed=5))
        mean = np.mean([s.tx_count for s in workload.shards])
        assert 1100 <= mean <= 1750

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_committees=0)
        with pytest.raises(ValueError):
            WorkloadConfig(blocks_per_committee=0)


class TestArrivedShards:
    def test_sorted_by_latency(self):
        workload = generate_epoch_workload(WorkloadConfig(num_committees=30, capacity=30_000, seed=2))
        arrived = arrived_shards(workload.shards, 0.8)
        latencies = [s.latency for s in arrived]
        assert latencies == sorted(latencies)

    def test_full_fraction_keeps_all(self):
        workload = generate_epoch_workload(WorkloadConfig(num_committees=30, capacity=30_000, seed=2))
        assert len(arrived_shards(workload.shards, 1.0)) == 30

    def test_invalid_fraction_rejected(self):
        workload = generate_epoch_workload(WorkloadConfig(num_committees=30, capacity=30_000, seed=2))
        with pytest.raises(ValueError):
            arrived_shards(workload.shards, 0.0)
        with pytest.raises(ValueError):
            arrived_shards(workload.shards, 1.2)


class TestOnlineWorkload:
    def test_initial_plus_joins_equals_window(self):
        workload = generate_online_workload(
            WorkloadConfig(num_committees=50, capacity=40_000, seed=3),
            num_initial=17, join_start=100, join_spacing=50,
        )
        assert workload.instance.num_shards == 17
        assert len(workload.schedule) == 40 - 17 == 23  # the paper's 23 joins

    def test_joins_in_latency_order(self):
        workload = generate_online_workload(
            WorkloadConfig(num_committees=50, capacity=40_000, seed=3),
            num_initial=17, join_start=100, join_spacing=50,
        )
        latencies = [e.latency for e in workload.schedule]
        assert latencies == sorted(latencies)
        assert all(e.kind is EventKind.JOIN for e in workload.schedule)

    def test_initial_committees_are_fastest(self):
        workload = generate_online_workload(
            WorkloadConfig(num_committees=50, capacity=40_000, seed=3),
            num_initial=17, join_start=100, join_spacing=50,
        )
        slowest_initial = workload.instance.latencies.max()
        first_join = workload.schedule.events[0].latency
        assert first_join >= slowest_initial

    def test_num_initial_beyond_window_rejected(self):
        with pytest.raises(ValueError):
            generate_online_workload(
                WorkloadConfig(num_committees=50, capacity=40_000, seed=3),
                num_initial=45, join_start=100, join_spacing=50,
            )

    def test_num_initial_zero_rejected(self):
        with pytest.raises(ValueError):
            generate_online_workload(
                WorkloadConfig(num_committees=50, capacity=40_000, seed=3),
                num_initial=0, join_start=100, join_spacing=50,
            )

