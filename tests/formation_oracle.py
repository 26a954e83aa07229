"""Scalar reference for committee formation (stages 1-2) and the node draw.

The vectorized :func:`repro.chain.fastpath.formation_kernel` and the
array-backed :func:`repro.chain.node.spawn_nodes` are checked bit for bit
against the per-node loops kept here:

* :func:`spawn_node_list` -- the validator draw as one :class:`Node` per
  validator (the Byzantine positions, then the hash powers, then the
  verification speeds);
* stage 1, PoW-based committee election.  Elastico elects committee
  members by PoW: each node grinds on a puzzle seeded with the epoch
  randomness; the solution's low-order bits assign the solver to a
  committee.  PoW solving is memoryless, so node ``v``'s solve time is
  exponential with mean ``difficulty / hash_power(v)``.  A committee's
  formation latency is when it reaches its full size ``c`` -- the
  ``c``-th order statistic of its members' solve times -- plus the
  overlay time.  The difficulty is calibrated so the expected solve time
  of a unit-hash-power node matches the paper's 600 s;
* stage 2, overlay configuration.  After a node solves its PoW, it
  registers its identity with the directory committee and learns its
  committee's membership.  Registration is serial at the directory (a
  fixed per-identity processing rate), which couples the
  overlay-configuration time to the *network size*: doubling the nodes
  roughly doubles the registration backlog -- the mechanism behind
  Fig. 2a's near-linear growth of formation latency with network size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.chain.node import Node


def spawn_node_list(
    count: int,
    byzantine_fraction: float,
    rng: np.random.Generator,
    hash_power_sigma: float = 0.3,
    verify_speed_sigma: float = 0.4,
) -> List[Node]:
    """The validator draw, one :class:`Node` per validator."""
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0 <= byzantine_fraction < 1:
        raise ValueError("byzantine_fraction must lie in [0, 1)")
    num_byzantine = int(byzantine_fraction * count)
    byzantine_ids = set(rng.choice(count, size=num_byzantine, replace=False).tolist())
    hash_powers = rng.lognormal(mean=-0.5 * hash_power_sigma**2, sigma=hash_power_sigma, size=count)
    verify_speeds = rng.lognormal(mean=-0.5 * verify_speed_sigma**2, sigma=verify_speed_sigma, size=count)
    return [
        Node(
            node_id=node_id,
            hash_power=float(hash_powers[node_id]),
            honest=node_id not in byzantine_ids,
            verify_speed=float(verify_speeds[node_id]),
        )
        for node_id in range(count)
    ]


# ---------------------------------------------------------------------- #
# stage 1: PoW election
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PowSolution:
    """One node's puzzle solution."""

    node_id: int
    solve_time: float
    committee_index: int
    nonce_hash: str


def solve_times(nodes: Sequence[Node], mean_solve_s: float, rng: np.random.Generator) -> np.ndarray:
    """Exponential solve times with per-node rates proportional to hash power."""
    if mean_solve_s <= 0:
        raise ValueError("mean_solve_s must be positive")
    scales = np.array([mean_solve_s / node.hash_power for node in nodes])
    return rng.exponential(scales)


def committee_of(node_id: int, epoch_randomness: str, num_committees: int) -> int:
    """Elastico's identity-to-committee mapping: low bits of H(randomness, id)."""
    digest = hashlib.sha256(f"{epoch_randomness}:{node_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % num_committees


def run_pow_election(
    nodes: Sequence[Node],
    num_committees: int,
    mean_solve_s: float,
    epoch_randomness: str,
    rng: np.random.Generator,
) -> List[PowSolution]:
    """Run the PoW race and assign every solver to a committee.

    Returns solutions sorted by solve time (arrival order at the directory).
    """
    if num_committees <= 0:
        raise ValueError("num_committees must be positive")
    times = solve_times(nodes, mean_solve_s, rng)
    solutions = []
    for node, solve_time in zip(nodes, times):
        committee_index = committee_of(node.node_id, epoch_randomness, num_committees)
        digest = hashlib.sha256(
            f"{epoch_randomness}:{node.node_id}:{solve_time:.6f}".encode("utf-8")
        ).hexdigest()
        solutions.append(
            PowSolution(
                node_id=node.node_id,
                solve_time=float(solve_time),
                committee_index=committee_index,
                nonce_hash=digest,
            )
        )
    solutions.sort(key=lambda solution: solution.solve_time)
    return solutions


def committee_fill_times(
    solutions: Sequence[PowSolution],
    num_committees: int,
    committee_size: int,
) -> Dict[int, float]:
    """When each committee reaches ``committee_size`` members.

    Committees that never fill (not enough solvers hashed into them) are
    absent from the result -- they simply do not form this epoch, exactly
    like slow groups missing the final committee's deadline.
    """
    counts = {index: 0 for index in range(num_committees)}
    fill_times: Dict[int, float] = {}
    for solution in solutions:
        index = solution.committee_index
        if index in fill_times:
            continue
        counts[index] += 1
        if counts[index] == committee_size:
            fill_times[index] = solution.solve_time
    return fill_times


def committee_members(
    solutions: Sequence[PowSolution],
    num_committees: int,
    committee_size: int,
) -> Dict[int, List[int]]:
    """The first ``committee_size`` solvers hashed into each committee."""
    members: Dict[int, List[int]] = {index: [] for index in range(num_committees)}
    for solution in solutions:
        bucket = members[solution.committee_index]
        if len(bucket) < committee_size:
            bucket.append(solution.node_id)
    return {index: bucket for index, bucket in members.items() if len(bucket) == committee_size}


# ---------------------------------------------------------------------- #
# stage 2: overlay configuration
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class OverlayResult:
    """Per-committee overlay-completion times and identity-service backlog."""

    identity_ready_time: Dict[int, float]   # node_id -> registration complete
    committee_overlay_time: Dict[int, float]  # committee -> all members discovered


def run_overlay_configuration(
    solutions: Sequence[PowSolution],
    members: Dict[int, List[int]],
    registration_rate: float,
    rng: np.random.Generator,
    gossip_delay_mean: float = 4.0,
) -> OverlayResult:
    """Serialise identity registration, then gossip membership lists.

    Each solver joins the directory queue at its solve time; the directory
    serves one identity per ``1 / registration_rate`` seconds.  Once every
    member of a committee is registered, the membership list gossips to the
    committee (one exponential gossip delay per committee).
    """
    if registration_rate <= 0:
        raise ValueError("registration_rate must be positive")
    service_time = 1.0 / registration_rate

    identity_ready: Dict[int, float] = {}
    server_free_at = 0.0
    for solution in solutions:  # already sorted by solve time
        start = max(server_free_at, solution.solve_time)
        server_free_at = start + service_time
        identity_ready[solution.node_id] = server_free_at

    committee_overlay: Dict[int, float] = {}
    for committee_index, node_ids in members.items():
        last_registered = max(identity_ready[node_id] for node_id in node_ids)
        gossip = float(rng.exponential(gossip_delay_mean))
        committee_overlay[committee_index] = last_registered + gossip
    return OverlayResult(identity_ready_time=identity_ready, committee_overlay_time=committee_overlay)
