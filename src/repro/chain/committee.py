"""Committees: the unit of sharded consensus.

An epoch's committees live as :class:`CommitteeArrays`: one row per
committee, members as positions into the deployment's per-node arrays,
so stage 3 reads honesty and verification speed with gathers instead of
walking ``Node`` objects.  A :class:`Committee` -- one committee with its
member ``Node`` objects -- is built only where a consumer needs one: the
final seat and readers of an epoch's outcome.  :func:`run_pbft_rounds`
is the one PBFT round router, for member and final committees;
:func:`run_intra_consensus_streaming` runs stage 3
through it and folds the submitted shards into the final committee's
crosslink arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.node import Node
from repro.chain.fastpath import _pbft_kernel_batch, kernel_plan, view_change_timeout
from repro.chain.params import ChainParams
from repro.chain.pbft import PbftOutcome, run_pbft_round
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry


def quorum_reachable(honest_count, size):
    """PBFT liveness: at least 2f+1 honest members, f = (size-1)//3.

    The primary commits on 2f+1 COMMIT votes, so this is exactly what
    a :class:`repro.chain.pbft.PbftRound` needs; with ``size != 3f+1``
    it admits more than ``f`` silent members.  Elementwise on arrays: the
    one rule for :attr:`Committee.can_reach_quorum` and the router's
    array filter.
    """
    return honest_count >= 2 * ((size - 1) // 3) + 1


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
    def can_reach_quorum(self) -> bool:
        """:func:`quorum_reachable` over the members' honesty flags."""
        return quorum_reachable(sum(node.honest for node in self.members), self.size)


@dataclass(eq=False)
class CommitteeArrays(Sequence[Committee]):
    """An epoch's committees of one size ``c``, one row each.

    ``members[k]`` holds committee ``k``'s member positions in ``nodes``
    and in the per-node ``honest`` / ``verify_speed`` arrays, which a
    deployment builds once and every epoch shares.  The per-committee
    columns default to no workload and no commit (``nan`` consensus
    latency).  A slice is a :class:`CommitteeArrays` of views, so stage 3
    stamping a slice's latencies stamps the epoch's; an integer index
    builds a detached :class:`Committee` snapshot of that row.
    """

    epoch: int
    #: ``(K,)`` committee ids.
    ids: np.ndarray
    #: ``(K, c)`` member positions.
    members: np.ndarray
    nodes: Sequence[Node]
    honest: np.ndarray
    verify_speed: np.ndarray
    formation_latency: Optional[np.ndarray] = None
    shard_tx_count: Optional[np.ndarray] = None
    consensus_latency: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        count = len(self.ids)
        if self.formation_latency is None:
            self.formation_latency = np.zeros(count)
        if self.shard_tx_count is None:
            self.shard_tx_count = np.zeros(count, dtype=np.int64)
        if self.consensus_latency is None:
            self.consensus_latency = np.full(count, np.nan)

    @classmethod
    def of(cls, committees: Sequence[Committee]) -> "CommitteeArrays":
        """Pack :class:`Committee` objects of one size, over their own members."""
        sizes = {committee.size for committee in committees}
        if len(sizes) > 1:
            raise ValueError("committees of one stack must share one size")
        nodes = [node for committee in committees for node in committee.members]
        return cls(
            epoch=committees[0].epoch if committees else 0,
            ids=np.array([c.committee_id for c in committees], dtype=np.int64),
            members=np.arange(len(nodes)).reshape(len(committees), sizes.pop() if sizes else 0),
            nodes=nodes,
            honest=np.array([node.honest for node in nodes], dtype=bool),
            verify_speed=np.array([node.verify_speed for node in nodes], dtype=np.float64),
            formation_latency=np.array([c.formation_latency for c in committees], dtype=np.float64),
            shard_tx_count=np.array([c.shard_tx_count for c in committees], dtype=np.int64),
            consensus_latency=np.array(
                [np.nan if c.consensus_latency is None else c.consensus_latency for c in committees],
                dtype=np.float64,
            ),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return replace(
                self,
                ids=self.ids[key],
                members=self.members[key],
                formation_latency=self.formation_latency[key],
                shard_tx_count=self.shard_tx_count[key],
                consensus_latency=self.consensus_latency[key],
            )
        k = range(len(self))[key]
        latency = float(self.consensus_latency[k])
        return Committee(
            committee_id=int(self.ids[k]),
            epoch=self.epoch,
            members=[self.nodes[i] for i in self.members[k].tolist()],
            formation_latency=float(self.formation_latency[k]),
            consensus_latency=None if math.isnan(latency) else latency,
            shard_tx_count=int(self.shard_tx_count[k]),
        )


def quorum_and_stack(honest: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The router's quorum filter and kernel stack order for a ``(K, c)`` stack.

    Returns the ``(K,)`` :func:`quorum_reachable` mask and the rows that
    pass it in kernel stack order: honest view-0 primaries first (so they
    keep their counter blocks), then the rest, each group in row order.
    """
    quorum = quorum_reachable(honest.sum(axis=1), honest.shape[1])
    eligible = np.flatnonzero(quorum)
    return quorum, eligible[np.argsort(~honest[eligible, 0], kind="stable")]


def run_pbft_rounds(
    committees: Sequence[Committee],
    tags: Sequence[str],
    params: ChainParams,
    rng: np.random.Generator,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> List[PbftOutcome]:
    """One PBFT round per committee, tagged ``tags[k]``: the one round router.

    ``committees`` is a :class:`CommitteeArrays`, indexed directly, or any
    sequence of :class:`Committee` objects, packed into one first
    (:meth:`CommitteeArrays.of`).  Every committee runs through the same
    four steps, whether it is a member or the final committee:

    1. **Quorum filter.**  A committee with fewer than 2f+1 honest members
       (:func:`quorum_reachable`, on a gather of the per-node honesty
       array) stalls without drawing.
    2. **Classifier.**  On a lossy network every other round falls back
       as ``lossy-network``; the check draws nothing, so such a round
       replays from the same stream position as an all-DES epoch would.
    3. **Batched kernel.**  Every other round goes through one chunked
       order-statistics kernel call
       (:func:`repro.chain.fastpath._pbft_kernel_batch`: committee chunks on
       up to one thread per CPU under the ``params.max_batch_bytes``
       scratch budget, byte-identical at any chunk size and worker count)
       on gathered honesty and speed matrices.  Rounds with an honest
       view-0 primary fill the stack first, then those whose leading
       members are Byzantine (:func:`quorum_and_stack`), which the kernel
       runs through its closed-form view-change prelude to the first
       honest primary's view ``v``.  A row whose commit reaches that
       view's timer, ``V_v + timeout * 2**v``, falls back as
       ``view-change-timeout``; the others commit there, each with its
       ``chain.pbft.view_change`` events and ``chain.pbft.round`` span.
    4. **Fallback.**  In the order they were queued (lossy rounds in
       committee order, then timeouts), the fallbacks run the reference
       :func:`repro.chain.pbft.run_pbft_round` on the members' ``Node``
       objects, which drains the whole event queue, so a lossy epoch
       stays byte-identical to an all-DES epoch.

    The all-DES path, every quorum-reaching round on ``run_pbft_round``
    in committee order, is the test oracle in ``tests/pbft_oracle.py``;
    the kernel matches it in distribution, not draw for draw.  Each
    fallback emits one ``chain.fastpath.fallback`` event, and the kernel
    call one ``chain.fastpath.chunks`` event.  All committees share one
    size.  Returns one outcome per committee, in committee order.
    """
    if not isinstance(committees, CommitteeArrays):
        committees = CommitteeArrays.of(committees)
    if not len(committees):
        return []
    size = committees.members.shape[1]
    if size < 4:
        raise ValueError("PBFT needs at least 4 members (3f+1, f >= 1)")
    if verify_mean_s is None:
        verify_mean_s = calibrated_verify_mean(params)

    honest = committees.honest[committees.members]
    quorum, stack = quorum_and_stack(honest)
    # Stalled committees consume no randomness.
    outcomes: List[Optional[PbftOutcome]] = [
        None if reachable else PbftOutcome(committed=False, start_time=0.0, commit_time=None)
        for reachable in quorum.tolist()
    ]
    fallbacks: List[Tuple[int, str]] = []
    if params.network.loss_probability > 0.0:
        fallbacks = [(k, "lossy-network") for k in np.flatnonzero(quorum).tolist()]
        stack = stack[:0]

    if stack.size:
        view_change_rows = ~honest[stack, 0]
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
                view_change_rows=int(view_change_rows.sum()),
            )
        rounds = _pbft_kernel_batch(
            honest[stack],
            committees.verify_speed[committees.members[stack]],
            rng,
            params.network,
            verify_mean_s,
            max_batch_bytes=params.max_batch_bytes,
        )
        timeout_s = view_change_timeout(params.network, verify_mean_s)
        commits = rounds.commit.tolist()
        prepared = rounds.prepared.tolist()
        views = rounds.view.tolist()
        stack_rows = stack.tolist()
        for row in np.argsort(stack).tolist():
            k, view, commit_time = stack_rows[row], views[row], commits[row]
            new_views = rounds.new_views[row, :view].tolist()
            start = new_views[-1] if view else 0.0
            # The DES would fire the view-change timer first; the kernel's
            # draws are spent, so this fallback is distributional only.
            if not math.isfinite(commit_time) or commit_time >= start + timeout_s * (2.0**view):
                fallbacks.append((k, "view-change-timeout"))
                continue
            stages = {f"new-view-{j}": at for j, at in enumerate(new_views, start=1)}
            stages["pre-prepare-sent"] = start
            stages["prepare-quorum"] = prepared[row]
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
        if telemetry.enabled:
            telemetry.event("chain.fastpath.fallback", tag=tags[k], reason=reason)
        outcomes[k] = run_pbft_round(
            members=[committees.nodes[i] for i in committees.members[k].tolist()],
            rng=rng,
            network_params=params.network,
            verify_mean_s=verify_mean_s,
            round_tag=tags[k],
            telemetry=telemetry,
        )
    return outcomes


def run_intra_consensus_streaming(
    committees: CommitteeArrays,
    params: ChainParams,
    rng: np.random.Generator,
    sink,
    verify_mean_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> int:
    """Stage 3: one PBFT round per committee, folded into a crosslink sink.

    The rounds go through :func:`run_pbft_rounds`, tagged
    ``epoch<e>-committee<id>``.  Stamps ``consensus_latency`` on each
    committing committee's row and extends ``sink`` -- any object with an
    ``extend(ids, tx_counts, latencies)`` method, canonically
    :class:`repro.chain.final.CrosslinkAggregator` -- once with three flat
    arrays in committee order: committee id, ``s_i`` and the two-phase
    ``l_i``.  Returns the number of submitted shards.
    """
    tags = [f"epoch{committees.epoch}-committee{cid}" for cid in committees.ids.tolist()]
    outcomes = run_pbft_rounds(committees, tags, params, rng, verify_mean_s, telemetry)
    latency = committees.consensus_latency
    for k, outcome in enumerate(outcomes):
        if outcome.committed:
            latency[k] = outcome.latency

    committed = ~np.isnan(latency)
    if committed.any():
        sink.extend(
            committees.ids[committed],
            committees.shard_tx_count[committed],
            committees.formation_latency[committed] + latency[committed],
        )
    return int(committed.sum())


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


def assign_shard_workload(committees: CommitteeArrays, tx_counts: Sequence[int]) -> None:
    """Attach per-committee shard TX counts (from :mod:`repro.data`)."""
    if len(tx_counts) < len(committees):
        raise ValueError("need one tx count per committee")
    committees.shard_tx_count[:] = np.asarray(tx_counts)[: len(committees)]
