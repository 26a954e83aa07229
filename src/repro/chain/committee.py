"""Committees: the unit of sharded consensus.

A :class:`Committee` groups the nodes elected into one PoW bucket and
tracks its two-phase latency components.  :func:`run_pbft_rounds` is the
one PBFT round router, for member and final committees under either
chain engine; :func:`run_intra_consensus_streaming` runs stage 3 through
it and folds the submitted shards into the final committee's crosslink
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.node import Node
from repro.chain.fastpath import _pbft_kernel_batch, kernel_plan, view_change_timeout
from repro.chain.params import ChainParams
from repro.chain.pbft import PbftOutcome, run_pbft_round
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
    def honest_count(self) -> int:
        """Members that follow the protocol."""
        return sum(1 for node in self.members if node.honest)

    @property
    def byzantine_count(self) -> int:
        """Members that stay silent (crash-equivalent)."""
        return self.size - self.honest_count

    @property
    def can_reach_quorum(self) -> bool:
        """PBFT liveness: at least 2f+1 honest members, f = (size-1)//3.

        The primary commits on 2f+1 COMMIT votes, so this is exactly what
        a :class:`repro.chain.pbft.PbftRound` needs; with ``size != 3f+1``
        it admits more than ``f`` silent members.
        """
        return self.honest_count >= 2 * ((self.size - 1) // 3) + 1


def run_pbft_rounds(
    committees: Sequence[Committee],
    tags: Sequence[str],
    params: ChainParams,
    rng: np.random.Generator,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> List[PbftOutcome]:
    """One PBFT round per committee, tagged ``tags[k]``: the one round router.

    Every committee runs through the same four steps, whatever the chain
    engine and whether it is a member or the final committee:

    1. **Quorum filter.**  A committee with fewer than 2f+1 honest members
       (:attr:`Committee.can_reach_quorum`) stalls without drawing.
    2. **Classifier.**  Under the ``des`` engine every other round falls
       back, and under ``fastpath`` a lossy network falls back as
       ``lossy-network``; neither check draws, so such a round replays
       from the same stream position as the DES would.
    3. **Batched kernel.**  Every other round goes through one chunked
       order-statistics kernel call
       (:func:`repro.chain.fastpath._pbft_kernel_batch`: committee chunks on
       up to one thread per CPU under the ``params.max_batch_bytes``
       scratch budget, byte-identical at any chunk size and worker count).
       Rounds with an honest view-0 primary fill the stack first, then
       those whose leading members are Byzantine, which the kernel runs
       through its closed-form view-change prelude to the first honest
       primary's view ``v``.  A row whose commit reaches that view's
       timer, ``V_v + timeout * 2**v``, falls back as
       ``view-change-timeout``; the others commit there, each with its
       ``chain.pbft.view_change`` events and ``chain.pbft.round`` span.
    4. **Fallback.**  In the order they were queued (pre-draw fallbacks in
       committee order, then timeouts), the fallbacks run the reference
       :func:`repro.chain.pbft.run_pbft_round`, which drains the whole
       event queue, so a lossy fastpath epoch stays byte-identical to the
       pure DES epoch.

    Committee-vs-committee draw order differs from the DES engine's (batch
    key first, fallbacks second), which is fine because all rounds draw
    independently.  Each fallback with a reason emits one
    ``chain.fastpath.fallback`` event, and the kernel call one
    ``chain.fastpath.chunks`` event.  All committees share one size.
    Returns one outcome per committee, in committee order.
    """
    if verify_mean_s is None:
        verify_mean_s = calibrated_verify_mean(params)
    reference = params.chain_engine != "fastpath"
    lossy = params.network.loss_probability > 0.0

    outcomes: List[Optional[PbftOutcome]] = [None] * len(committees)
    eligible: List[int] = []
    fallbacks: List[Tuple[int, Optional[str]]] = []
    for k, committee in enumerate(committees):
        if committee.size < 4:
            raise ValueError("PBFT needs at least 4 members (3f+1, f >= 1)")
        if not committee.can_reach_quorum:
            # Stalls without consuming randomness.
            outcomes[k] = PbftOutcome(committed=False, start_time=0.0, commit_time=None)
        elif reference:
            fallbacks.append((k, None))  # the DES engine's own round
        elif lossy:
            fallbacks.append((k, "lossy-network"))
        else:
            eligible.append(k)

    if eligible:
        # Honest view-0 primaries first, so they keep their counter blocks.
        stack = sorted(eligible, key=lambda k: not committees[k].members[0].honest)
        size = committees[stack[0]].size
        if telemetry.enabled:
            plan = kernel_plan(len(stack), size, params.max_batch_bytes)
            telemetry.event(
                "chain.fastpath.chunks",
                committees=len(stack),
                committee_size=size,
                chunk_rows=plan.rows,
                chunks=plan.chunks,
                workers=plan.workers,
                max_batch_bytes=params.max_batch_bytes,
                view_change_rows=sum(not committees[k].members[0].honest for k in stack),
            )
        members = [committees[k].members for k in stack]
        rounds = _pbft_kernel_batch(
            np.array([[node.honest for node in group] for group in members], dtype=bool),
            np.array([[node.verify_speed for node in group] for group in members]),
            rng,
            params.network,
            verify_mean_s,
            max_batch_bytes=params.max_batch_bytes,
        )
        timeout_s = view_change_timeout(params.network, verify_mean_s)
        for row in sorted(range(len(stack)), key=stack.__getitem__):
            k, view = stack[row], int(rounds.view[row])
            commit_time = float(rounds.commit[row])
            new_views = rounds.new_views[row, :view].tolist()
            start = new_views[-1] if view else 0.0
            # The DES would fire the view-change timer first; the kernel's
            # draws are spent, so this fallback is distributional only.
            if not np.isfinite(commit_time) or commit_time >= start + timeout_s * (2.0**view):
                fallbacks.append((k, "view-change-timeout"))
                continue
            stages = {f"new-view-{j}": at for j, at in enumerate(new_views, start=1)}
            stages["pre-prepare-sent"] = start
            stages["prepare-quorum"] = float(rounds.prepared[row])
            stages["commit-quorum"] = commit_time
            outcomes[k] = PbftOutcome(
                committed=True, start_time=0.0, commit_time=commit_time, stage_times=stages
            )
            if telemetry.enabled:
                for j, at in enumerate(new_views, start=1):
                    telemetry.event("chain.pbft.view_change", tag=tags[k], view=j, at=at)
                telemetry.record_span(
                    "chain.pbft.round", 0.0, commit_time,
                    tag=tags[k], view=view, members=size, stages=dict(stages),
                )

    for k, reason in fallbacks:
        if reason is not None and telemetry.enabled:
            telemetry.event("chain.fastpath.fallback", tag=tags[k], reason=reason)
        outcomes[k] = run_pbft_round(
            members=committees[k].members,
            rng=rng,
            network_params=params.network,
            verify_mean_s=verify_mean_s,
            round_tag=tags[k],
            telemetry=telemetry,
        )
    return outcomes


def run_intra_consensus_streaming(
    committees: Sequence[Committee],
    params: ChainParams,
    rng: np.random.Generator,
    sink,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> int:
    """Stage 3: one PBFT round per committee, folded into a crosslink sink.

    The rounds go through :func:`run_pbft_rounds`, tagged
    ``epoch<e>-committee<id>``.  Stamps ``consensus_latency`` on each
    committing committee and extends ``sink`` -- any object with an
    ``extend(ids, tx_counts, latencies)`` method, canonically
    :class:`repro.chain.final.CrosslinkAggregator` -- once with three flat
    arrays in committee order: committee id, ``s_i`` and the two-phase
    ``l_i``.  Returns the number of submitted shards.
    """
    tags = [f"epoch{c.epoch}-committee{c.committee_id}" for c in committees]
    outcomes = run_pbft_rounds(committees, tags, params, rng, verify_mean_s, telemetry)
    for committee, outcome in zip(committees, outcomes):
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
