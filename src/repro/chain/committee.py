"""Committees: the unit of sharded consensus.

A :class:`Committee` groups the nodes elected into one PoW bucket, tracks
its two-phase latency components, and runs its intra-committee PBFT round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.blocks import ShardBlock
from repro.chain.node import Node
from repro.chain.fastpath import (
    _pbft_kernel_batch,
    kernel_plan,
    replay_pbft_until_commit,
    run_pbft,
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
    shard_block: Optional[ShardBlock] = None

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

    def run_intra_consensus(
        self,
        params: ChainParams,
        rng: np.random.Generator,
        verify_mean_s: Optional[float] = None,
        telemetry: NullTelemetry = NULL_TELEMETRY,
    ) -> Optional[ShardBlock]:
        """Run stage 3 (PBFT) and produce this committee's shard block.

        ``verify_mean_s`` defaults to a value calibrated so the expected
        total consensus latency matches ``params.pbft_mean_total_s``: the
        round spends roughly two verify delays (prepare + commit votes) and
        four propagation hops on the critical path.
        """
        if not self.can_reach_quorum:
            return None  # this committee stalls and never submits
        if verify_mean_s is None:
            verify_mean_s = calibrated_verify_mean(params)
        outcome = run_pbft(
            params.chain_engine,
            members=self.members,
            rng=rng,
            network_params=params.network,
            verify_mean_s=verify_mean_s,
            round_tag=f"epoch{self.epoch}-committee{self.committee_id}",
            telemetry=telemetry,
        )
        if not outcome.committed:
            return None
        self.consensus_latency = outcome.latency
        self.shard_block = ShardBlock(
            committee_id=self.committee_id,
            epoch=self.epoch,
            tx_count=self.shard_tx_count,
            formation_latency=self.formation_latency,
            consensus_latency=self.consensus_latency,
        )
        return self.shard_block


def _stage3_commit_times(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> List[Committee]:
    """The shared stage-3 core: chunked batch kernel + replayed fallbacks.

    Every closed-form-eligible committee (quorum reachable, honest view-0
    primary, loss-free network) goes through one chunked order-statistics
    kernel call (committee chunks on up to one thread per CPU, sharing
    the ``params.max_batch_bytes`` scratch budget; byte-identical at any
    chunk size and worker count) instead of ``K`` per-committee calls.
    The rest replay afterwards, as do eligible committees whose
    closed-form commit time reaches the view-change timeout.  On a
    loss-free network every fallback (``byzantine-primary``, ``no-quorum``,
    ``view-change-timeout``) runs
    :func:`repro.chain.fastpath.replay_pbft_until_commit`, which is
    byte-identical to the reference ``PbftRound`` stopped at the primary's
    commit, RNG end state included.  Committee-vs-committee draw order
    differs from the serial per-round loop (batch key first, fallbacks
    second), which is fine because all rounds draw independently.  With a
    lossy network nothing is batch-drawn -- not even the Philox key --
    every replay drains its full ``PbftRound`` event queue, and the epoch
    stays byte-identical to the pure DES.

    Stamps ``consensus_latency`` on each committing committee and returns
    the committing committees in committee order; block materialisation
    is left to the caller (:func:`run_intra_consensus_batch` builds
    :class:`ShardBlock` objects, :func:`run_intra_consensus_streaming`
    folds straight into a crosslink sink).
    """
    if verify_mean_s is None:
        verify_mean_s = calibrated_verify_mean(params)
    timeout_s = view_change_timeout(params.network, verify_mean_s)
    lossy = params.network.loss_probability > 0.0

    eligible: List[Committee] = []
    fallbacks: List[Tuple[Committee, str]] = []
    for committee in committees:
        if not committee.can_reach_quorum:
            continue  # stalls without consuming randomness, like the serial path
        if committee.size < 4:
            raise ValueError("PBFT needs at least 4 members (3f+1, f >= 1)")
        if lossy:
            fallbacks.append((committee, "lossy-network"))
        elif not committee.leader.honest:
            fallbacks.append((committee, "byzantine-primary"))
        elif committee.honest_count < 2 * ((committee.size - 1) // 3) + 1:
            fallbacks.append((committee, "no-quorum"))
        else:
            eligible.append(committee)

    if eligible:
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
            commit_time = float(commit_times[k])
            if not np.isfinite(commit_time) or commit_time >= timeout_s:
                fallbacks.append((committee, "view-change-timeout"))
                continue
            committee.consensus_latency = commit_time
            if telemetry.enabled:
                telemetry.record_span(
                    "chain.pbft.round",
                    0.0,
                    commit_time,
                    tag=f"epoch{committee.epoch}-committee{committee.committee_id}",
                    view=0,
                    members=committee.size,
                    stages={
                        "pre-prepare-sent": 0.0,
                        "prepare-quorum": float(prepared_primary[k]),
                        "commit-quorum": commit_time,
                    },
                )

    for committee, reason in fallbacks:
        round_tag = f"epoch{committee.epoch}-committee{committee.committee_id}"
        if telemetry.enabled:
            telemetry.event("chain.fastpath.fallback", tag=round_tag, reason=reason)
        # A lossy epoch must drain each round's whole event queue (the
        # residual tail consumes randomness) to match the pure DES epoch.
        replay = run_pbft_round if lossy else replay_pbft_until_commit
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

    return [c for c in committees if c.consensus_latency is not None]


def run_intra_consensus_batch(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> List[ShardBlock]:
    """Stage 3 for the ``fastpath`` engine: one batched kernel call.

    See :func:`_stage3_commit_times` for the kernel/fallback semantics.
    Returns the submitted shard blocks in committee order and stamps
    ``consensus_latency`` / ``shard_block`` on each committee, exactly
    like per-committee :meth:`Committee.run_intra_consensus` calls.
    """
    blocks: List[ShardBlock] = []
    for committee in _stage3_commit_times(
        committees, params, rng, verify_mean_s=verify_mean_s, telemetry=telemetry
    ):
        committee.shard_block = ShardBlock(
            committee_id=committee.committee_id,
            epoch=committee.epoch,
            tx_count=committee.shard_tx_count,
            formation_latency=committee.formation_latency,
            consensus_latency=committee.consensus_latency,
        )
        blocks.append(committee.shard_block)
    return blocks


def run_intra_consensus_streaming(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    sink,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> int:
    """Stage 3 that folds submissions straight into a crosslink sink.

    Identical consensus semantics (and RNG consumption) to
    :func:`run_intra_consensus_batch`, but instead of materialising one
    :class:`ShardBlock` per committee it extends ``sink`` -- any object
    with an ``extend(ids, tx_counts, latencies)`` method, canonically
    :class:`repro.chain.final.CrosslinkAggregator` -- with three flat
    arrays in committee order.  At eth2 scale this keeps stage 3 -> 4
    hand-off allocation at three arrays instead of ~1024 Python objects
    plus a list.  Returns the number of submitted shards.
    """
    committed = _stage3_commit_times(
        committees, params, rng, verify_mean_s=verify_mean_s, telemetry=telemetry
    )
    if committed:
        count = len(committed)
        ids = np.fromiter((c.committee_id for c in committed), dtype=np.int64, count=count)
        tx_counts = np.fromiter(
            (c.shard_tx_count for c in committed), dtype=np.int64, count=count
        )
        latencies = np.fromiter(
            (c.formation_latency + c.consensus_latency for c in committed),
            dtype=np.float64,
            count=count,
        )
        sink.extend(ids, tx_counts, latencies)
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
