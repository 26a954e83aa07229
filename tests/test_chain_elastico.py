"""Tests for committees, final consensus, the epoch orchestrator, and Fig. 2."""

import numpy as np
import pytest

from repro.chain.committee import Committee, assign_shard_workload, calibrated_verify_mean
from repro.chain.elastico import ElasticoSimulation
from repro.chain.final import take_everything
from repro.chain.measurement import linear_growth_check, measure_two_phase_latency
from repro.chain.node import spawn_nodes
from repro.chain.params import ChainParams
from repro.core.problem import MVComConfig

PARAMS = ChainParams(num_nodes=160, committee_size=8, seed=77)


@pytest.fixture(scope="module")
def epoch_outcome():
    simulation = ElasticoSimulation(PARAMS, mvcom_config=MVComConfig(alpha=1.5, capacity=15_000))
    return simulation.run_epoch()


class TestCommittee:
    def test_quorum_reachability(self):
        nodes = spawn_nodes(7, 0.0, np.random.default_rng(0))
        committee = Committee(committee_id=0, epoch=0, members=nodes)
        assert committee.can_reach_quorum
        for node in nodes[:3]:
            node.honest = False
        assert not committee.can_reach_quorum

    def test_workload_assignment(self):
        nodes = spawn_nodes(8, 0.0, np.random.default_rng(0))
        committees = [Committee(i, 0, nodes) for i in range(3)]
        assign_shard_workload(committees, [10, 20, 30])
        assert [c.shard_tx_count for c in committees] == [10, 20, 30]
        with pytest.raises(ValueError):
            assign_shard_workload(committees, [1])

    def test_verify_mean_calibration_positive(self):
        assert calibrated_verify_mean(PARAMS) > 0

    def test_empty_committee_rejected(self):
        with pytest.raises(ValueError):
            Committee(committee_id=0, epoch=0, members=[])


class TestEpoch:
    def test_five_stages_produce_final_block(self, epoch_outcome):
        assert epoch_outcome.final is not None
        assert epoch_outcome.final.block.total_txs > 0
        assert epoch_outcome.randomness != ""

    def test_shard_blocks_carry_two_phase_latency(self, epoch_outcome):
        consensus = epoch_outcome.consensus_latencies
        formation = epoch_outcome.formation_latencies
        assert len(consensus) == epoch_outcome.shards_submitted > 0
        for committee_id, consensus_latency in consensus.items():
            assert consensus_latency > 0
            assert formation[committee_id] > consensus_latency  # Fig. 2 shape
        # The final committee sees each arrival's two-phase l_i.
        instance = epoch_outcome.final.instance
        for shard_id, latency in zip(instance.shard_ids, instance.latencies):
            assert latency == formation[shard_id] + consensus[shard_id]

    def test_final_respects_capacity(self, epoch_outcome):
        assert epoch_outcome.final.permitted_txs <= 15_000

    def test_nmax_cutoff_applied(self, epoch_outcome):
        arrived = epoch_outcome.final.instance.num_shards
        submitted = epoch_outcome.shards_submitted
        assert arrived == max(1, int(np.floor(0.8 * submitted)))

    def test_chain_extends_across_epochs(self):
        simulation = ElasticoSimulation(PARAMS, mvcom_config=MVComConfig(alpha=1.5, capacity=15_000))
        for _ in range(2):
            simulation.run_epoch()
        assert simulation.chain.height == 2
        assert simulation.chain.verify()

    def test_randomness_differs_across_epochs(self):
        simulation = ElasticoSimulation(PARAMS)
        first = simulation.run_epoch().randomness
        second = simulation.run_epoch().randomness
        assert first != second

    def test_scheduler_violating_capacity_rejected(self):
        def cheater(instance):
            return np.ones(instance.num_shards, dtype=bool)

        simulation = ElasticoSimulation(
            PARAMS, mvcom_config=MVComConfig(alpha=1.5, capacity=10), scheduler=cheater
        )
        with pytest.raises(ValueError):
            simulation.run_epoch()

    def test_take_everything_fills_in_arrival_order(self, epoch_outcome):
        instance = epoch_outcome.final.instance
        mask = take_everything(instance)
        assert instance.weight(mask) <= instance.capacity
        # Adding the fastest unselected shard must exceed the capacity
        # (otherwise take_everything would have taken it).
        unselected = np.flatnonzero(~mask)
        if len(unselected):
            cheapest = unselected[np.argmin(instance.tx_counts[unselected])]
            assert instance.weight(mask) + instance.tx_counts[cheapest] > instance.capacity


class TestFig2Shape:
    def test_formation_dominates_and_grows_linearly(self):
        measurements = measure_two_phase_latency(
            ChainParams(num_nodes=100, committee_size=8, seed=5),
            network_sizes=[100, 250, 400, 700],
            epochs_per_size=1,
        )
        for m in measurements:
            assert m.mean_formation > 3 * m.mean_consensus
        fit = linear_growth_check(measurements)
        assert fit["slope"] > 0
        assert fit["r_squared"] > 0.6

    def test_consensus_flat_in_network_size(self):
        measurements = measure_two_phase_latency(
            ChainParams(num_nodes=100, committee_size=8, seed=5),
            network_sizes=[100, 400],
            epochs_per_size=1,
        )
        small, large = measurements
        assert large.mean_consensus < 2 * small.mean_consensus

    def test_cdf_is_valid_distribution(self):
        measurements = measure_two_phase_latency(
            ChainParams(num_nodes=100, committee_size=8, seed=5), [150], 1
        )
        values, fractions = measurements[0].cdf("formation")
        assert list(values) == sorted(values)
        assert fractions[-1] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            measurements[0].cdf("nonsense")
