"""Blockchain nodes (miners/processors).

Nodes carry heterogeneous hash power (lognormal around 1.0) -- the paper's
"heterogeneous processing capabilities" -- and an honesty flag used by the
PBFT simulation (Byzantine members stay silent, forcing quorums to wait for
honest votes).

A deployment holds its validators as a :class:`NodeTable`: one array per
attribute, a node's id being its position.  Formation and stage 3 read
those arrays directly; a :class:`Node` is built only when a consumer asks
the table for one (the final seat, a DES round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class Node:
    """One network processor."""

    node_id: int
    hash_power: float
    honest: bool = True
    #: verification throughput multiplier (affects PBFT processing delays)
    verify_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.hash_power <= 0:
            raise ValueError("hash_power must be positive")
        if self.verify_speed <= 0:
            raise ValueError("verify_speed must be positive")


@dataclass(frozen=True, eq=False)
class NodeTable(Sequence[Node]):
    """A validator set as per-node arrays; node ``i`` has id ``i``.

    The arrays are validated once, here, with :class:`Node`'s rules.  An
    integer index builds that node's :class:`Node` (a detached snapshot:
    writing to it leaves the table as it was), a slice builds a list of
    them, and iteration builds one per step.
    """

    hash_power: np.ndarray
    honest: np.ndarray
    verify_speed: np.ndarray

    def __post_init__(self) -> None:
        count = len(self.hash_power)
        if not count:
            raise ValueError("count must be positive")
        if len(self.honest) != count or len(self.verify_speed) != count:
            raise ValueError("per-node arrays must share one length")
        if not (self.hash_power > 0).all():
            raise ValueError("hash_power must be positive")
        if not (self.verify_speed > 0).all():
            raise ValueError("verify_speed must be positive")

    def __len__(self) -> int:
        return len(self.hash_power)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(len(self))[key]]
        i = range(len(self))[key]
        return Node(
            node_id=i,
            hash_power=float(self.hash_power[i]),
            honest=bool(self.honest[i]),
            verify_speed=float(self.verify_speed[i]),
        )


def spawn_nodes(
    count: int,
    byzantine_fraction: float,
    rng: np.random.Generator,
    hash_power_sigma: float = 0.3,
    verify_speed_sigma: float = 0.4,
) -> NodeTable:
    """Create ``count`` nodes with heterogeneous capabilities.

    Exactly ``floor(byzantine_fraction * count)`` nodes are Byzantine, at
    random positions, so a sampled committee's Byzantine count is
    hypergeometric (occasionally above average -- those are the straggler
    committees of Fig. 1).  Three draws, in this order: the Byzantine
    positions, the hash powers, the verification speeds.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0 <= byzantine_fraction < 1:
        raise ValueError("byzantine_fraction must lie in [0, 1)")
    honest = np.ones(count, dtype=bool)
    honest[rng.choice(count, size=int(byzantine_fraction * count), replace=False)] = False
    hash_powers = rng.lognormal(mean=-0.5 * hash_power_sigma**2, sigma=hash_power_sigma, size=count)
    verify_speeds = rng.lognormal(mean=-0.5 * verify_speed_sigma**2, sigma=verify_speed_sigma, size=count)
    return NodeTable(hash_power=hash_powers, honest=honest, verify_speed=verify_speeds)
