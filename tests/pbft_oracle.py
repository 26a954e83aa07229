"""PBFT round oracles for the closed-form kernel's parity tests.

The reference :class:`repro.chain.pbft.PbftRound` is the executable spec.
The batched kernel (:func:`repro.chain.fastpath._pbft_kernel_batch`)
matches it in distribution only, so its parity tests draw DES samples
here:

* :func:`reference_until_commit` drives ``PbftRound`` on a fresh engine
  and stops at the primary's commit;
* :func:`replay_pbft_until_commit` is the fast oracle: a lean heap loop
  that is byte-identical to :func:`reference_until_commit` (commit and
  stage times, telemetry and the generator's end state), pinned by
  ``tests/test_chain_fallback_replay.py``.  It samples large committees
  at a fraction of the DES's cost.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.fastpath import view_change_timeout
from repro.chain.network import Network
from repro.chain.node import Node
from repro.chain.params import NetworkParams
from repro.chain.pbft import PbftOutcome, PbftRound
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.engine import SimulationEngine


def reference_until_commit(
    members, rng, network_params, verify_mean_s, round_tag="round-0", telemetry=NULL_TELEMETRY
):
    """The oracle: PbftRound on the DES, stopped at the primary's commit."""
    engine = SimulationEngine(telemetry=telemetry)
    pbft = PbftRound(
        engine=engine,
        network=Network(engine, network_params, rng),
        members=members,
        rng=rng,
        verify_mean_s=verify_mean_s,
        round_tag=round_tag,
        telemetry=telemetry,
    )
    while not pbft.outcome.committed and engine.step():
        pass
    return pbft.outcome


# Event kinds of the lean replay's heap entries ``(time, seq, kind, a, b)``.
_PREPARE, _COMMIT, _PREPREPARE, _VOTE, _VIEW_CHANGE, _TIMEOUT = range(6)


def replay_pbft_until_commit(
    members: Sequence[Node],
    rng: np.random.Generator,
    network_params: NetworkParams,
    verify_mean_s: float,
    round_tag: str = "round-0",
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> PbftOutcome:
    """A loss-free :class:`PbftRound` replayed up to the primary's commit.

    Byte-identical to driving ``PbftRound`` (fresh engine and network,
    start time 0, adaptive timeout) with ``while not outcome.committed
    and engine.step()``: the same ``commit_time``, ``committed`` and
    ``stage_times``, the same telemetry, and ``rng`` left in the same
    state.  The saving is bookkeeping, not arithmetic:

    * events are ``(time, seq, kind, a, b)`` heap tuples, with no
      per-message closure or :class:`repro.chain.network.Message`;
    * a sender burst is one ``rng.lognormal(size=c-1)`` draw, as in
      ``Network.prefill_delays``; NIC departures come from a sequential
      ``np.add.accumulate`` and heap keys from ``now + (deliver - now)``,
      the engine's own ``schedule_at`` arithmetic;
    * only deliveries that can change what happens next are pushed, and
      dropping an event keeps the relative ``seq`` order of the rest.
      Byzantine members ignore every message.  A VIEW-CHANGE burst pushes
      only its earliest honest delivery, since the tally is protocol-level.
      A COMMIT to a committed replica is a no-op forever.  A COMMIT to any
      other non-primary draws nothing and matters only if that replica
      leads a later view, so it waits in a per-replica list: at a view
      change the arrived ones are tallied and the new primary's in-flight
      ones move onto the heap with their original ``seq``.

    The reference's quirks are kept: VIEW-CHANGE votes tally at protocol
    level, votes from an old view still in flight count in the new one,
    a replica's commit mark survives view changes, the view timeout
    doubles per view, and views stop at ``len(members)``.
    """
    c = len(members)
    if c < 4:
        raise ValueError("PBFT needs at least 4 members (3f+1, f >= 1)")
    if network_params.loss_probability > 0.0:
        raise ValueError("the lean replay is loss-free; lossy rounds run PbftRound")
    if len({node.node_id for node in members}) != c:
        raise ValueError("committee members must have distinct node ids")
    timeout_s = view_change_timeout(network_params, verify_mean_s)
    if timeout_s <= 0:
        raise ValueError("view_change_timeout_s must be positive")
    f = (c - 1) // 3
    prepare_quorum = 2 * f
    commit_quorum = 2 * f + 1
    honest = [node.honest for node in members]
    verify_scale = [verify_mean_s / node.verify_speed for node in members]
    log_base_delay = float(np.log(network_params.base_delay))
    sigma = network_params.jitter_sigma
    lognormal = rng.lognormal
    exponential = rng.exponential

    # NIC serialisation: departures are start, start + 1/bw, ... summed in
    # send order; steps[0] is overwritten with each burst's start.
    steps = np.full(c, 1.0 / network_params.bandwidth_msgs_per_s)
    nic_free = [-np.inf] * c
    honest_idx = np.flatnonzero(honest)
    # Per sender: burst slots (member order, sender skipped) and member
    # indices of its honest recipients.
    targets: List[Optional[Tuple[np.ndarray, List[int]]]] = [None] * c

    heap: list = []
    push = heapq.heappush
    seq = itertools.count()
    view = 0
    preprepared = [False] * c
    prepared = [False] * c
    prepares: List[set] = [set() for _ in range(c)]
    commits: List[set] = [set() for _ in range(c)]
    committed = [False] * c
    #: COMMITs in flight to non-primaries: ``(time, seq, voter)``
    waiting: List[list] = [[] for _ in range(c)]
    view_change_votes: set = set()
    stage_times: Dict[str, float] = {}
    outcome = PbftOutcome(
        committed=False, start_time=0.0, commit_time=None, stage_times=stage_times
    )

    def broadcast(sender: int, now: float, kind: int) -> Optional[float]:
        """One burst from ``sender``: pushes (or parks) its ``kind``
        deliveries; a VIEW-CHANGE burst returns its earliest honest key."""
        delays = lognormal(log_base_delay, sigma, c - 1)
        start = nic_free[sender]
        steps[0] = start if start > now else now
        deliver = np.add.accumulate(steps)[1:]
        nic_free[sender] = float(deliver[-1])
        deliver += delays
        deliver -= now
        deliver += now
        cached = targets[sender]
        if cached is None:
            recipients = honest_idx[honest_idx != sender]
            cached = targets[sender] = (recipients - (recipients > sender), recipients.tolist())
        slots, recipients = cached
        keys = deliver[slots]
        if kind == _VIEW_CHANGE:
            return float(keys.min()) if keys.size else None
        deliveries = zip(keys.tolist(), recipients)
        if kind == _COMMIT:
            primary = view % c
            for key, recipient in deliveries:
                if committed[recipient]:
                    continue
                if recipient == primary:
                    push(heap, (key, next(seq), _COMMIT, recipient, sender))
                else:
                    waiting[recipient].append((key, next(seq), sender))
        else:
            for key, recipient in deliveries:
                push(heap, (key, next(seq), kind, recipient, sender))
        return None

    def arm_vote(node: int, now: float, kind: int) -> None:
        delay = float(exponential(verify_scale[node]))
        push(heap, (now + delay, next(seq), _VOTE, node, kind))

    def send_preprepare(now: float) -> None:
        primary = view % c
        if not honest[primary]:
            return  # Byzantine primary stays silent; the view timeout fires
        stage_times.setdefault("pre-prepare-sent", now)
        broadcast(primary, now, _PREPREPARE)
        preprepared[primary] = True
        arm_vote(primary, now, _PREPARE)

    def add_prepare(node: int, voter: int, now: float) -> None:
        if prepared[node]:
            return
        votes = prepares[node]
        votes.add(voter)
        if not preprepared[node] or len(votes) < prepare_quorum:
            return
        prepared[node] = True
        if node == view % c:
            stage_times["prepare-quorum"] = now
        arm_vote(node, now, _COMMIT)

    # The engine's first two events are the t=0 pre-prepare (seq 0) and the
    # view-0 timer (seq 1); running the pre-prepare inline after pushing the
    # timer keeps every later seq in the same relative order.
    push(heap, (0.0 + timeout_s * (2.0**0), next(seq), _TIMEOUT, 0, 0))
    send_preprepare(0.0)
    pop = heapq.heappop
    while heap:
        now, order, kind, a, b = pop(heap)
        if kind == _PREPARE:
            add_prepare(a, b, now)
            continue
        if kind == _VOTE:
            broadcast(a, now, b)
            if b == _PREPARE:
                add_prepare(a, a, now)
                continue
            b = a  # the sender counts its own COMMIT locally
        if kind == _VOTE or kind == _COMMIT:
            if committed[a]:
                continue
            votes = commits[a]
            votes.add(b)
            if len(votes) < commit_quorum:
                continue
            committed[a] = True
            if a != view % c:
                continue
            outcome.committed = True
            outcome.commit_time = now
            stage_times["commit-quorum"] = now
            if telemetry.enabled:
                telemetry.record_span(
                    "chain.pbft.round",
                    0.0,
                    now,
                    tag=round_tag,
                    view=view,
                    members=c,
                    stages=dict(stage_times),
                )
            return outcome
        if kind == _PREPREPARE:
            if not preprepared[a]:
                preprepared[a] = True
                arm_vote(a, now, _PREPARE)
        elif kind == _TIMEOUT:
            if a != view or view + 1 >= c:
                continue  # stale timer, or every member has led: stall
            for sender in range(c):
                if honest[sender]:
                    first = broadcast(sender, now, _VIEW_CHANGE)
                    if first is not None:
                        push(heap, (first, next(seq), _VIEW_CHANGE, view + 1, sender))
        elif a == view + 1:  # a VIEW-CHANGE vote for the next view
            view_change_votes.add(b)
            if len(view_change_votes) < commit_quorum:
                continue
            view_change_votes = set()
            view += 1
            stage_times[f"new-view-{view}"] = now
            if telemetry.enabled:
                telemetry.event("chain.pbft.view_change", tag=round_tag, view=view, at=now)
            # Tally the COMMITs that reached each non-primary in the old
            # view; the rest stay in flight into the new one.
            cut = (now, order)
            for node in range(c):
                if not committed[node] and waiting[node]:
                    arrived = [entry for entry in waiting[node] if entry[:2] < cut]
                    commits[node].update(voter for _, _, voter in arrived)
                    committed[node] = len(commits[node]) >= commit_quorum
                    waiting[node] = [entry for entry in waiting[node] if entry[:2] > cut]
                preprepared[node] = prepared[node] = False
                prepares[node] = set()
                commits[node] = set()
            primary = view % c
            if not committed[primary]:
                for key, s, voter in waiting[primary]:
                    push(heap, (key, s, _COMMIT, primary, voter))
            waiting[primary] = []
            send_preprepare(now)
            push(heap, (now + timeout_s * (2.0**view), next(seq), _TIMEOUT, view, 0))
    return outcome
