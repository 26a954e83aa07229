"""Overlay gossip reference: topology and epidemic broadcast latency.

Elastico's overlay configuration and committee discovery run over a gossip
network, not all-to-all links.  This test oracle models that layer
explicitly:

* :func:`random_regular_topology` -- a connected k-regular-ish random
  overlay (each node picks ``degree`` peers; the union graph is symmetric);
* :class:`GossipNetwork` -- epidemic push broadcast on the DES engine: each
  informed node forwards to its neighbors with per-hop delays, giving the
  classic O(log n) round growth;
* :func:`broadcast_completion_times` -- convenience wrapper measuring when
  every node (or a fraction) has the message.

The chain's overlay gossip delay (``gossip_delay_mean`` of
:func:`repro.chain.fastpath.formation_kernel`) is calibrated as a single
exponential draw per committee; nothing in the package runs this
mechanistic version, so it lives beside the tests
(``tests/test_chain_gossip.py``) that check its O(log n) growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.chain.params import NetworkParams
from repro.sim.engine import SimulationEngine


def random_regular_topology(
    num_nodes: int,
    degree: int,
    rng: np.random.Generator,
    max_attempts: int = 50,
) -> Dict[int, Set[int]]:
    """A connected undirected overlay where each node knows ~``degree`` peers.

    Construction: a Hamiltonian ring (guarantees connectivity) plus random
    chords until the average degree reaches ``degree``.
    """
    if num_nodes < 3:
        raise ValueError("topology needs at least 3 nodes")
    if not 2 <= degree < num_nodes:
        raise ValueError("degree must lie in [2, num_nodes)")
    adjacency: Dict[int, Set[int]] = {node: set() for node in range(num_nodes)}
    order = rng.permutation(num_nodes)
    for position in range(num_nodes):  # ring for connectivity
        a, b = int(order[position]), int(order[(position + 1) % num_nodes])
        adjacency[a].add(b)
        adjacency[b].add(a)
    target_edges = num_nodes * degree // 2
    edges = num_nodes
    attempts = 0
    while edges < target_edges and attempts < max_attempts * target_edges:
        attempts += 1
        a, b = int(rng.integers(num_nodes)), int(rng.integers(num_nodes))
        if a == b or b in adjacency[a]:
            continue
        adjacency[a].add(b)
        adjacency[b].add(a)
        edges += 1
    return adjacency


def is_connected(adjacency: Dict[int, Set[int]]) -> bool:
    """BFS connectivity check."""
    if not adjacency:
        return False
    start = next(iter(adjacency))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(adjacency)


@dataclass
class GossipResult:
    """When each node first received the broadcast."""

    first_received: Dict[int, float]
    origin: int

    def completion_time(self, fraction: float = 1.0) -> float:
        """Time until ``fraction`` of the nodes are informed."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        times = sorted(self.first_received.values())
        index = max(int(np.ceil(fraction * len(times))) - 1, 0)
        return times[index]

    @property
    def reached(self) -> int:
        """How many nodes received the broadcast."""
        return len(self.first_received)


class GossipNetwork:
    """Epidemic push broadcast over a fixed overlay."""

    def __init__(
        self,
        adjacency: Dict[int, Set[int]],
        params: NetworkParams,
        rng: np.random.Generator,
    ) -> None:
        if not is_connected(adjacency):
            raise ValueError("gossip overlay must be connected")
        self.adjacency = adjacency
        self.params = params
        self.rng = rng

    def _hop_delay(self) -> float:
        mu = np.log(self.params.base_delay)
        return float(self.rng.lognormal(mean=mu, sigma=self.params.jitter_sigma))

    def broadcast(self, origin: int, engine: Optional[SimulationEngine] = None) -> GossipResult:
        """Push-gossip a message from ``origin``; returns first-receipt times.

        Each newly informed node forwards to every neighbor after an
        independent per-link delay (push flooding -- Elastico's overlay
        broadcast).  Duplicate deliveries are ignored.
        """
        if origin not in self.adjacency:
            raise KeyError(f"origin {origin} not in overlay")
        engine = engine or SimulationEngine()
        result = GossipResult(first_received={origin: engine.now}, origin=origin)

        def deliver(node: int) -> None:
            """Forward the message to every neighbor after per-link delays."""
            for neighbor in self.adjacency[node]:
                delay = self._hop_delay()
                engine.schedule(delay, lambda n=neighbor: receive(n))

        def receive(node: int) -> None:
            """First receipt at a node: record the time and keep pushing."""
            if node in result.first_received:
                return
            result.first_received[node] = engine.now
            deliver(node)

        deliver(origin)
        engine.run()
        return result


def broadcast_completion_times(
    num_nodes: int,
    degree: int,
    params: NetworkParams,
    rng: np.random.Generator,
    trials: int = 5,
) -> List[float]:
    """Full-coverage broadcast times over fresh random overlays."""
    times = []
    for _ in range(trials):
        topology = random_regular_topology(num_nodes, degree, rng)
        network = GossipNetwork(topology, params, rng)
        origin = int(rng.integers(num_nodes))
        times.append(network.broadcast(origin).completion_time())
    return times
