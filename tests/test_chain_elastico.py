"""Tests for committees, final consensus, the epoch orchestrator, and Fig. 2."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain import committee as committee_module
from repro.chain.committee import (
    Committee,
    CommitteeArrays,
    assign_shard_workload,
    calibrated_verify_mean,
    quorum_and_stack,
)
from repro.chain.elastico import ElasticoSimulation
from repro.chain.final import take_everything
from repro.chain.measurement import linear_growth_check, measure_two_phase_latency
from repro.chain.node import Node, spawn_nodes
from repro.chain.params import ChainParams
from repro.chain.pbft import run_pbft_round
from repro.core.problem import MVComConfig

PARAMS = ChainParams(num_nodes=160, committee_size=8, seed=77)


@pytest.fixture(scope="module")
def epoch_outcome():
    simulation = ElasticoSimulation(PARAMS, mvcom_config=MVComConfig(alpha=1.5, capacity=15_000))
    return simulation.run_epoch()


class TestCommittee:
    def test_quorum_reachability(self):
        """Liveness needs 2f+1 honest members, f = (size-1)//3: with
        size != 3f+1 that admits more than f silent ones."""
        nodes = list(spawn_nodes(7, 0.0, np.random.default_rng(0)))
        committee = Committee(committee_id=0, epoch=0, members=nodes)
        assert committee.can_reach_quorum
        for node in nodes[:3]:
            node.honest = False
        assert not committee.can_reach_quorum
        for size, byzantine, reachable in [
            (7, 2, True), (8, 3, True), (9, 3, True), (9, 4, True), (9, 5, False),
            (16, 5, True), (16, 6, False), (128, 42, True), (128, 43, True),
            (128, 44, False),
        ]:
            nodes = list(spawn_nodes(size, 0.0, np.random.default_rng(0)))
            for node in nodes[size - byzantine:]:
                node.honest = False
            committee = Committee(committee_id=0, epoch=0, members=nodes)
            assert committee.can_reach_quorum is reachable, (size, byzantine)

    @pytest.mark.parametrize(
        "size,byzantine", [(7, 3), (8, 3), (9, 3), (9, 4)]
    )
    def test_quorum_predicate_matches_pbft_round(self, size, byzantine):
        """The predicate says a round commits exactly when PbftRound does
        (silent non-primary members, loss-free network)."""
        params = ChainParams()
        nodes = list(spawn_nodes(size, 0.0, np.random.default_rng(size)))
        for node in nodes[size - byzantine:]:
            node.honest = False
        outcome = run_pbft_round(
            members=nodes, rng=np.random.default_rng(byzantine),
            network_params=params.network, verify_mean_s=calibrated_verify_mean(params),
        )
        committee = Committee(committee_id=0, epoch=0, members=nodes)
        assert outcome.committed is committee.can_reach_quorum

    def test_workload_assignment(self):
        nodes = spawn_nodes(8, 0.0, np.random.default_rng(0))
        committees = CommitteeArrays.of([Committee(i, 0, nodes) for i in range(3)])
        assign_shard_workload(committees, [10, 20, 30])
        assert [c.shard_tx_count for c in committees] == [10, 20, 30]
        with pytest.raises(ValueError):
            assign_shard_workload(committees, [1])

    def test_verify_mean_calibration_positive(self):
        assert calibrated_verify_mean(PARAMS) > 0

    def test_empty_committee_rejected(self):
        with pytest.raises(ValueError):
            Committee(committee_id=0, epoch=0, members=[])


@st.composite
def silent_patterns(draw):
    """Committees of one size in 4..40, each with a random set of silent members."""
    size = draw(st.integers(4, 40))
    count = draw(st.integers(1, 8))
    return size, [draw(st.sets(st.integers(0, size - 1), max_size=size)) for _ in range(count)]


class TestCommitteeArrays:
    """The router's array quorum filter and stack order against the
    ``Committee`` path they replaced, and the objects an epoch builds."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pattern=silent_patterns(), data=st.data())
    @example(pattern=(8, [{5, 6, 7}, {0, 6, 7}, {0, 1, 2, 3}]), data=None)
    @example(pattern=(9, [{0}, {1, 2, 3, 4}, {0, 1, 2, 3, 4}]), data=None)
    @example(pattern=(40, [set(range(13)), set(range(14)), {0, 39}]), data=None)
    def test_filter_and_stack_match_the_committee_path(self, pattern, data):
        size, silent = pattern
        committees = [
            Committee(
                committee_id=k, epoch=0,
                members=[Node(node_id=k * size + i, hash_power=1.0, honest=i not in quiet)
                         for i in range(size)],
            )
            for k, quiet in enumerate(silent)
        ]
        # The epoch's layout: members are positions in a shared, shuffled node pool.
        flat = [node for committee in committees for node in committee.members]
        shuffle = list(range(len(flat))) if data is None else data.draw(st.permutations(range(len(flat))))
        pool = [flat[i] for i in shuffle]
        position = {node.node_id: p for p, node in enumerate(pool)}
        arrays = CommitteeArrays(
            epoch=0,
            ids=np.arange(len(committees)),
            members=np.array([[position[n.node_id] for n in c.members] for c in committees]),
            nodes=pool,
            honest=np.array([node.honest for node in pool]),
            verify_speed=np.ones(len(pool)),
        )
        reachable = [committee.can_reach_quorum for committee in committees]
        expected_stack = sorted(
            (k for k in range(len(committees)) if reachable[k]),
            key=lambda k: not committees[k].members[0].honest,
        )
        for packed in (arrays, CommitteeArrays.of(committees)):
            quorum, stack = quorum_and_stack(packed.honest[packed.members])
            assert quorum.tolist() == reachable
            assert stack.tolist() == expected_stack
            assert [c.members for c in packed] == [c.members for c in committees]

    def test_fastpath_epoch_builds_only_the_final_seat(self, monkeypatch):
        """A loss-free fastpath epoch runs every member committee off the
        arrays: the one ``Committee`` it builds is the final seat."""
        built = [0]
        original = committee_module.Committee.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(committee_module.Committee, "__init__", counting)
        params = ChainParams(num_nodes=480, committee_size=8, seed=5,
                             byzantine_fraction=0.2, chain_engine="fastpath")
        outcome = ElasticoSimulation(params).run_epoch()
        assert len(outcome.committees) > 1 and outcome.final is not None
        assert built[0] == 1
        assert outcome.committees[0].committee_id == outcome.committees.ids[0]
        assert built[0] == 2  # an outcome reader builds the one it asks for


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


class TestQuorumInEpoch:
    @pytest.mark.parametrize("engine", ["des", "fastpath"])
    def test_committee_with_more_than_f_silent_members_submits(self, engine):
        """At c = 8 (f = 2, quorum 5) a member committee with 3 silent
        members can still commit, and stage 3 lets it."""
        params = ChainParams(num_nodes=480, committee_size=8, seed=5,
                             byzantine_fraction=0.2, chain_engine=engine)
        outcome = ElasticoSimulation(params).run_epoch()
        members = outcome.committees[:-1]
        submitted = [
            c for c in members
            if sum(not node.honest for node in c.members) == 3 and c.consensus_latency is not None
        ]
        assert submitted
        assert all(c.consensus_latency is None for c in members if not c.can_reach_quorum)


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
