"""Tests for chain parameters, nodes, and the network model."""

import numpy as np
import pytest

from repro.chain.network import Network
from repro.chain.node import Node, NodeTable, spawn_nodes
from repro.chain.params import ChainParams, NetworkParams
from repro.sim.engine import SimulationEngine


class TestParams:
    def test_defaults_valid(self):
        params = ChainParams()
        assert params.num_committees == params.num_nodes // params.committee_size
        assert params.max_byzantine_per_committee == (params.committee_size - 1) // 3

    @pytest.mark.parametrize("kwargs", [
        {"num_nodes": 3, "committee_size": 8},
        {"committee_size": 3},
        {"byzantine_fraction": 0.34},
        {"byzantine_fraction": -0.1},
        {"pow_mean_solve_s": 0},
        {"identity_registration_rate": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChainParams(**kwargs)

    def test_network_params_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(base_delay=0)
        with pytest.raises(ValueError):
            NetworkParams(jitter_sigma=-1)
        with pytest.raises(ValueError):
            NetworkParams(bandwidth_msgs_per_s=0)


class TestNodes:
    def test_spawn_count_and_byzantine_fraction(self):
        rng = np.random.default_rng(0)
        nodes = spawn_nodes(100, byzantine_fraction=0.2, rng=rng)
        assert len(nodes) == 100
        assert sum(1 for n in nodes if not n.honest) == 20

    def test_heterogeneous_hash_power(self):
        rng = np.random.default_rng(0)
        nodes = spawn_nodes(200, byzantine_fraction=0.0, rng=rng)
        powers = [n.hash_power for n in nodes]
        assert np.std(powers) > 0.1
        assert np.mean(powers) == pytest.approx(1.0, rel=0.15)

    def test_invalid_node_rejected(self):
        with pytest.raises(ValueError):
            Node(node_id=0, hash_power=0.0)
        with pytest.raises(ValueError):
            Node(node_id=0, hash_power=1.0, verify_speed=0.0)

    def test_table_validates_its_arrays(self):
        ones = np.ones(4)
        honest = np.ones(4, dtype=bool)
        with pytest.raises(ValueError, match="hash_power"):
            NodeTable(hash_power=np.array([1.0, 0.0, 1.0, 1.0]), honest=honest, verify_speed=ones)
        with pytest.raises(ValueError, match="verify_speed"):
            NodeTable(hash_power=ones, honest=honest, verify_speed=-ones)
        with pytest.raises(ValueError, match="length"):
            NodeTable(hash_power=ones, honest=honest[:3], verify_speed=ones)
        with pytest.raises(ValueError, match="count"):
            NodeTable(hash_power=ones[:0], honest=honest[:0], verify_speed=ones[:0])

    def test_indexed_node_is_a_detached_snapshot(self):
        nodes = spawn_nodes(8, byzantine_fraction=0.0, rng=np.random.default_rng(0))
        node = nodes[-1]
        assert node.node_id == 7 and node.hash_power == nodes.hash_power[7]
        node.honest = False
        assert nodes[7].honest and nodes.honest.all()
        with pytest.raises(IndexError):
            nodes[8]

    def test_spawn_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            spawn_nodes(0, 0.1, rng)
        with pytest.raises(ValueError):
            spawn_nodes(10, 1.0, rng)


class TestNetwork:
    def _network(self):
        engine = SimulationEngine()
        network = Network(engine, NetworkParams(base_delay=1.0, jitter_sigma=0.1),
                          np.random.default_rng(0))
        return engine, network

    def test_message_delivered_to_handler(self):
        engine, network = self._network()
        received = []
        network.register(1, lambda m: received.append(m))
        network.register(2, lambda m: None)
        network.send(2, 1, "ping", payload="hello")
        engine.run()
        assert len(received) == 1
        assert received[0].payload == "hello"
        assert received[0].kind == "ping"

    def test_delivery_takes_positive_time(self):
        engine, network = self._network()
        times = []
        network.register(1, lambda m: times.append(engine.now))
        network.register(2, lambda m: None)
        network.send(2, 1, "ping")
        engine.run()
        assert times[0] > 0.0

    def test_unknown_recipient_rejected(self):
        _, network = self._network()
        network.register(1, lambda m: None)
        with pytest.raises(KeyError):
            network.send(1, 99, "ping")

    def test_duplicate_registration_rejected(self):
        _, network = self._network()
        network.register(1, lambda m: None)
        with pytest.raises(ValueError):
            network.register(1, lambda m: None)

    def test_broadcast_excludes_sender(self):
        engine, network = self._network()
        received = {i: [] for i in range(4)}
        for i in range(4):
            network.register(i, lambda m, i=i: received[i].append(m))
        network.broadcast(0, range(4), "vote")
        engine.run()
        assert len(received[0]) == 0
        assert all(len(received[i]) == 1 for i in (1, 2, 3))

    def test_sender_nic_serialises_bursts(self):
        """A large fan-out from one sender must take longer than a single send."""
        engine, network = self._network()
        times = []
        for i in range(101):
            network.register(i, lambda m: times.append(engine.now))
        network.broadcast(0, range(1, 101), "blast")
        engine.run()
        # 100 messages at 500 msg/s serialise over >= 0.2 s before jitter.
        assert max(times) - min(times) > 0.1

    def test_message_counter(self):
        engine, network = self._network()
        network.register(1, lambda m: None)
        network.register(2, lambda m: None)
        network.send(1, 2, "a")
        network.send(2, 1, "b")
        assert network.messages_sent == 2
