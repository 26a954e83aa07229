"""Cross-module integration tests: trace -> workload -> schedulers -> chain."""

import numpy as np
import pytest

from repro import (
    SEConfig,
    StochasticExploration,
    WorkloadConfig,
    generate_epoch_workload,
    summarize_schedule,
)
from repro.baselines import SimulatedAnnealingScheduler
from repro.chain import ChainParams, ElasticoSimulation, ShardBlock
from repro.chain.final import take_everything
from repro.core import MVComConfig
from repro.core.exact import branch_and_bound_optimum
from repro.core.problem import build_instance, carry_over_latency
from repro.data.workload import arrived_shards


class TestEndToEndScheduling:
    def test_se_beats_unscheduled_elastico(self):
        """The paper's premise: scheduling beats taking shards in arrival order."""
        wins = 0
        for seed in (1, 2, 3):
            workload = generate_epoch_workload(
                WorkloadConfig(num_committees=60, capacity=55_000, seed=seed)
            )
            instance = workload.instance
            se = StochasticExploration(
                SEConfig(num_threads=5, max_iterations=3_000, convergence_window=800, seed=seed)
            ).solve(instance)
            naive = instance.utility(take_everything(instance))
            if se.best_utility > naive:
                wins += 1
        assert wins == 3

    def test_se_certified_against_exact_on_workload(self):
        workload = generate_epoch_workload(
            WorkloadConfig(num_committees=20, capacity=18_000, seed=4)
        )
        instance = workload.instance
        optimum = branch_and_bound_optimum(instance)
        se = StochasticExploration(
            SEConfig(num_threads=8, max_iterations=4_000, convergence_window=1_200, seed=2)
        ).solve(instance)
        assert se.best_utility >= 0.98 * optimum.utility

    def test_summary_consistent_across_algorithms(self):
        workload = generate_epoch_workload(
            WorkloadConfig(num_committees=30, capacity=25_000, seed=5)
        )
        instance = workload.instance
        sa = SimulatedAnnealingScheduler(seed=1).solve(instance, 1_000)
        summary = summarize_schedule(instance, sa.mask, "SA")
        assert summary.utility == pytest.approx(sa.utility)
        assert summary.throughput_txs == sa.weight


class TestChainWithSeScheduler:
    def test_full_protocol_with_se_final_committee(self):
        def scheduler(instance):
            result = StochasticExploration(
                SEConfig(num_threads=3, max_iterations=800, convergence_window=300, seed=6)
            ).solve(instance)
            return result.best_mask

        simulation = ElasticoSimulation(
            ChainParams(num_nodes=160, committee_size=8, seed=11),
            mvcom_config=MVComConfig(alpha=1.5, capacity=12_000),
            scheduler=scheduler,
        )
        outcome = simulation.run_epoch()
        assert outcome.final is not None
        assert outcome.final.permitted_txs <= 12_000
        assert simulation.chain.verify()

    def test_shard_blocks_feed_core_problem_directly(self):
        simulation = ElasticoSimulation(ChainParams(num_nodes=160, committee_size=8, seed=12))
        outcome = simulation.run_epoch()
        shard_blocks = [
            ShardBlock(
                committee_id=c.committee_id,
                epoch=outcome.epoch,
                tx_count=c.shard_tx_count,
                formation_latency=c.formation_latency,
                consensus_latency=c.consensus_latency,
            )
            for c in outcome.committees
            if c.committee_id in outcome.consensus_latencies
        ]
        instance = build_instance(shard_blocks, MVComConfig(alpha=1.5, capacity=10_000))
        assert instance.num_shards == outcome.shards_submitted
        assert instance.ddl == pytest.approx(
            max(block.two_phase_latency for block in shard_blocks)
        )
        # The epoch's own N_max window is the fastest prefix of the same shards.
        arrived = outcome.final.instance
        assert set(arrived.shard_ids) <= set(instance.shard_ids)
        assert arrived.ddl <= instance.ddl


class TestMultiEpochCarryOver:
    def test_refused_committees_get_faster_next_epoch(self):
        """Fig. 3's cross-epoch rule lowers refused committees' latencies."""
        workload = generate_epoch_workload(
            WorkloadConfig(num_committees=40, capacity=30_000, seed=6)
        )
        window = arrived_shards(workload.shards, 0.8)
        refused = [s for s in workload.shards if s not in window]
        assert refused  # the 20% stragglers
        ddl = workload.instance.ddl
        for shard in refused:
            carried = carry_over_latency(shard.latency, ddl)
            assert carried < shard.latency
            assert carried >= 1.0
