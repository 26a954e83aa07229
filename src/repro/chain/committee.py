"""Committees: the unit of sharded consensus.

A :class:`Committee` groups the nodes elected into one PoW bucket and
tracks its two-phase latency components;
:func:`run_intra_consensus_streaming` runs stage 3 (one PBFT round per
committee) under either chain engine and folds the submitted shards into
the final committee's crosslink arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.node import Node
from repro.chain.fastpath import (
    _pbft_kernel_batch,
    closed_form_fallback,
    closed_form_outcome,
    kernel_plan,
    replay_pbft_until_commit,
    view_change_timeout,
)
from repro.chain.params import ChainParams
from repro.chain.pbft import run_pbft_round
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry


@dataclass
class Committee:
    """One member committee of an epoch."""

    committee_id: int
    epoch: int
    members: List[Node]
    formation_latency: float = 0.0
    consensus_latency: Optional[float] = None
    shard_tx_count: int = 0

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a committee needs members")
        if self.formation_latency < 0:
            raise ValueError("formation_latency must be non-negative")

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.members)

    @property
    def leader(self) -> Node:
        """The committee's PBFT primary seat (view 0)."""
        return self.members[0]

    @property
    def honest_count(self) -> int:
        """Members that follow the protocol."""
        return sum(1 for node in self.members if node.honest)

    @property
    def byzantine_count(self) -> int:
        """Members that stay silent (crash-equivalent)."""
        return self.size - self.honest_count

    @property
    def can_reach_quorum(self) -> bool:
        """PBFT liveness: at most f = (size-1)//3 silent members."""
        return self.byzantine_count <= (self.size - 1) // 3


def run_intra_consensus_streaming(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    sink,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> int:
    """Stage 3: one PBFT round per committee, folded into a crosslink sink.

    Committees that cannot reach quorum stall without consuming
    randomness.  Under the ``des`` engine, and under ``fastpath`` on a
    lossy network, every other committee runs the reference
    :func:`repro.chain.pbft.run_pbft_round` in committee order, draining
    its whole event queue (the residual tail consumes randomness), so a
    lossy fastpath epoch stays byte-identical to the pure DES epoch.

    Otherwise the ``fastpath`` engine sends every closed-form-eligible
    committee (honest view-0 primary) through one chunked
    order-statistics kernel call (committee chunks on up to one thread
    per CPU, sharing the ``params.max_batch_bytes`` scratch budget;
    byte-identical at any chunk size and worker count).  The rest replay
    afterwards, as do eligible committees whose closed-form commit time
    reaches the view-change timeout: every such fallback
    (``byzantine-primary`` or ``view-change-timeout``; the quorum filter
    above means ``no-quorum`` never reaches this stage) runs
    :func:`repro.chain.fastpath.replay_pbft_until_commit`, byte-identical
    to the reference ``PbftRound`` stopped at the primary's commit, RNG
    end state included.  Committee-vs-committee draw order differs from
    the DES engine's (batch key first, fallbacks second), which is fine
    because all rounds draw independently.

    Stamps ``consensus_latency`` on each committing committee and extends
    ``sink`` -- any object with an ``extend(ids, tx_counts, latencies)``
    method, canonically :class:`repro.chain.final.CrosslinkAggregator` --
    once with three flat arrays in committee order: committee id, ``s_i``
    and the two-phase ``l_i``.  Returns the number of submitted shards.
    """
    if verify_mean_s is None:
        verify_mean_s = calibrated_verify_mean(params)
    lossy = params.network.loss_probability > 0.0
    reference = lossy or params.chain_engine != "fastpath"

    eligible: List[Committee] = []
    fallbacks: List[Tuple[Committee, Optional[str]]] = []
    for committee in committees:
        if not committee.can_reach_quorum:
            continue  # stalls without consuming randomness
        reason = closed_form_fallback(committee.members, params.network)
        if params.chain_engine != "fastpath":
            fallbacks.append((committee, None))  # the DES engine's own round
        elif reason is not None:
            fallbacks.append((committee, reason))
        else:
            eligible.append(committee)

    if eligible:
        timeout_s = view_change_timeout(params.network, verify_mean_s)
        honest = np.array(
            [[node.honest for node in committee.members] for committee in eligible],
            dtype=bool,
        )
        speeds = np.array(
            [[node.verify_speed for node in committee.members] for committee in eligible]
        )
        if telemetry.enabled:
            size = eligible[0].size
            plan = kernel_plan(len(eligible), size, params.max_batch_bytes)
            telemetry.event(
                "chain.fastpath.chunks",
                committees=len(eligible),
                committee_size=size,
                chunk_rows=plan.rows,
                chunks=plan.chunks,
                workers=plan.workers,
                max_batch_bytes=params.max_batch_bytes,
            )
        commit_times, prepared_primary = _pbft_kernel_batch(
            honest,
            speeds,
            rng,
            params.network,
            verify_mean_s,
            max_batch_bytes=params.max_batch_bytes,
        )
        for k, committee in enumerate(eligible):
            outcome = closed_form_outcome(
                float(commit_times[k]),
                float(prepared_primary[k]),
                timeout_s,
                f"epoch{committee.epoch}-committee{committee.committee_id}",
                committee.size,
                telemetry,
            )
            if outcome is None:
                fallbacks.append((committee, "view-change-timeout"))
            else:
                committee.consensus_latency = outcome.commit_time

    replay = run_pbft_round if reference else replay_pbft_until_commit
    for committee, reason in fallbacks:
        round_tag = f"epoch{committee.epoch}-committee{committee.committee_id}"
        if reason is not None and telemetry.enabled:
            telemetry.event("chain.fastpath.fallback", tag=round_tag, reason=reason)
        outcome = replay(
            members=committee.members,
            rng=rng,
            network_params=params.network,
            verify_mean_s=verify_mean_s,
            round_tag=round_tag,
            telemetry=telemetry,
        )
        if outcome.committed:
            committee.consensus_latency = outcome.latency

    committed = [c for c in committees if c.consensus_latency is not None]
    if committed:
        sink.extend(
            np.array([c.committee_id for c in committed], dtype=np.int64),
            np.array([c.shard_tx_count for c in committed], dtype=np.int64),
            np.array(
                [c.formation_latency + c.consensus_latency for c in committed],
                dtype=np.float64,
            ),
        )
    return len(committed)


def calibrated_verify_mean(params: ChainParams) -> float:
    """Per-replica verification mean that hits ``pbft_mean_total_s``.

    The primary's critical path is approximately: pre-prepare hop, replica
    verify, prepare quorum hop, replica verify, commit quorum hop -- i.e.
    two verify delays plus three message quorum waits.  Each quorum wait is
    roughly the ~67th-percentile network delay; we budget the network part
    as ``3 * 1.6 * base_delay`` and split the remainder across the two
    verify delays.
    """
    network_budget = 3 * 1.6 * params.network.base_delay
    verify_budget = max(params.pbft_mean_total_s - network_budget, 1e-3)
    return verify_budget / 2.0


def assign_shard_workload(
    committees: Sequence[Committee],
    tx_counts: Sequence[int],
) -> None:
    """Attach per-committee shard TX counts (from :mod:`repro.data`)."""
    if len(tx_counts) < len(committees):
        raise ValueError("need one tx count per committee")
    for committee, tx_count in zip(committees, tx_counts):
        committee.shard_tx_count = int(tx_count)
