"""Tests for the gossip overlay and epidemic broadcast (``tests/gossip_oracle.py``)."""

import numpy as np
import pytest

from repro.chain.params import NetworkParams

from tests.gossip_oracle import (
    GossipNetwork,
    broadcast_completion_times,
    is_connected,
    random_regular_topology,
)

PARAMS = NetworkParams(base_delay=1.0, jitter_sigma=0.2)


class TestTopology:
    def test_connected(self):
        rng = np.random.default_rng(0)
        topology = random_regular_topology(50, 4, rng)
        assert is_connected(topology)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        topology = random_regular_topology(30, 4, rng)
        for node, peers in topology.items():
            for peer in peers:
                assert node in topology[peer]

    def test_no_self_loops(self):
        rng = np.random.default_rng(0)
        topology = random_regular_topology(30, 4, rng)
        assert all(node not in peers for node, peers in topology.items())

    def test_mean_degree_near_target(self):
        rng = np.random.default_rng(0)
        topology = random_regular_topology(100, 6, rng)
        mean_degree = np.mean([len(peers) for peers in topology.values()])
        assert 5.0 <= mean_degree <= 6.5

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_regular_topology(2, 2, rng)
        with pytest.raises(ValueError):
            random_regular_topology(10, 1, rng)
        with pytest.raises(ValueError):
            random_regular_topology(10, 10, rng)


class TestBroadcast:
    def test_reaches_every_node(self):
        rng = np.random.default_rng(1)
        topology = random_regular_topology(40, 4, rng)
        network = GossipNetwork(topology, PARAMS, rng)
        result = network.broadcast(origin=0)
        assert result.reached == 40

    def test_origin_receives_at_time_zero(self):
        rng = np.random.default_rng(1)
        network = GossipNetwork(random_regular_topology(20, 4, rng), PARAMS, rng)
        result = network.broadcast(origin=3)
        assert result.first_received[3] == 0.0

    def test_completion_fraction_monotone(self):
        rng = np.random.default_rng(1)
        network = GossipNetwork(random_regular_topology(40, 4, rng), PARAMS, rng)
        result = network.broadcast(origin=0)
        assert result.completion_time(0.5) <= result.completion_time(0.9) <= result.completion_time(1.0)
        with pytest.raises(ValueError):
            result.completion_time(0.0)

    def test_unknown_origin_rejected(self):
        rng = np.random.default_rng(1)
        network = GossipNetwork(random_regular_topology(20, 4, rng), PARAMS, rng)
        with pytest.raises(KeyError):
            network.broadcast(origin=99)

    def test_disconnected_overlay_rejected(self):
        rng = np.random.default_rng(1)
        disconnected = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        with pytest.raises(ValueError):
            GossipNetwork(disconnected, PARAMS, rng)

    def test_logarithmic_scaling(self):
        """Epidemic broadcast grows ~log n: 10x the nodes is far less than
        10x the time."""
        rng = np.random.default_rng(2)
        small = np.mean(broadcast_completion_times(30, 4, PARAMS, rng, trials=4))
        large = np.mean(broadcast_completion_times(300, 4, PARAMS, rng, trials=4))
        assert large < 4 * small

    def test_higher_degree_faster(self):
        rng = np.random.default_rng(3)
        sparse = np.mean(broadcast_completion_times(100, 3, PARAMS, rng, trials=4))
        dense = np.mean(broadcast_completion_times(100, 12, PARAMS, rng, trials=4))
        assert dense < sparse
