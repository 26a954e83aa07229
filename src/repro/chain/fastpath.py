"""Closed-form fast path for the chain substrate.

The DES in :mod:`repro.chain.pbft` / :mod:`repro.chain.network` /
:mod:`repro.sim.engine` is the *reference executable spec*: every
protocol message is a scheduled callback, which is faithful but costs
O(c^2) Python lambdas per PBFT stage.  This module computes the same
round latency in closed form with numpy order statistics, in the same
reference-vs-optimized discipline as :mod:`repro.core.engine` (the DES
stays ground truth; the fast path is validated distributionally with
per-size KS tests in ``tests/test_chain_fastpath.py``).

**PBFT kernel.**  With an honest view-0 primary, a loss-free network and
no view change, the DES round is a deterministic function of its random
inputs, so the whole event cascade collapses into matrix algebra:

* NIC serialisation is a *rank* matrix ``D[r, i] = pos(r, i) / bandwidth``
  where ``pos`` is recipient ``r``'s position in sender ``i``'s broadcast
  (member order, sender skipped);
* pre-prepare arrival at replica ``r`` is ``D[r, 0] + Lognormal``;
* prepare votes land at ``B[i] + D[r, i] + Lognormal`` (``B`` = send time
  deferred by the sender's busy NIC), own votes at their send events, and
  a replica is *prepared* at the first vote event at or after
  ``max(pre-prepare arrival, 2f-th smallest vote)`` -- the 2f-th vote
  itself unless the pre-prepare came later, read off one in-place
  ``partition`` of the replica's row of the recipient-major vote matrix;
* commit votes repeat the pattern and the round commits at the primary's
  ``(2f+1)``-th smallest commit-vote time -- order statistics instead of
  event scheduling.

The closed form is *invalid* when ``loss_probability > 0`` or the view-0
primary is Byzantine (both decided before any RNG draw, so such a round
replays from exactly the stream position a pure DES run would), or when
the computed commit time reaches the view-change timeout (the DES would
fire the timer first and change views; that fallback happens after the
kernel's draws and is only distributionally faithful).  A committee with
fewer than ``2f+1`` honest members never gets here: it stalls without a
draw.  One router makes these calls for every committee, member and
final, under either engine: :func:`repro.chain.committee.run_pbft_rounds`.

**Batched rounds.**  All committees of an epoch share one sequential RNG
stream, so the router stacks every closed-form-eligible committee into a
single kernel call (:func:`_pbft_kernel_batch`) instead of ``K``
small-matrix calls -- the per-call numpy dispatch overhead dominates at
``c = 8``.  The batch draws one 128-bit Philox key from the shared
stream (a fixed two-``uint64`` consumption, whatever the batch shape)
and replays the ineligible committees afterwards; committee-vs-committee
draw *order* therefore differs from the DES engine's
one-round-at-a-time loop, which is immaterial because the draws are
independent (the per-size KS tests compare the two engines).  A
loss-free replay runs :func:`replay_pbft_until_commit`, a lean event
loop that is *byte-identical* to :class:`PbftRound` stopped at the
primary's commit: the same commit and stage times, the same telemetry
and the same RNG end state, pinned against ``PbftRound`` as the oracle
in ``tests/test_chain_fallback_replay.py``.  With a lossy network
nothing is drawn by the kernel at all -- not even the key -- and every
round drains the full ``PbftRound`` event queue, so a fully-fallback
epoch stays byte-identical to the pure DES epoch.

**Chunked streaming.**  At eth2 scale (``K = 1024`` committees of
``c = 128``) a monolithic batch would materialise a ``(K, c, c)`` tensor
of ~135 MB.  Instead the kernel is *counter-addressed*: committee ``k``
draws its variates (:func:`_kernel_draw_budget`) from its own Philox
generator keyed by the batch key and started at counter block
``k * COMMITTEE_COUNTER_STRIDE`` (:func:`_committee_variates`), a range no
other committee's draws can reach, and the batch is processed in
committee-index chunks under one ``max_batch_bytes`` scratch budget
(:class:`repro.chain.params.ChainParams`, default 256 MiB).  Because
every committee's variates depend only on the key and ``k``, the result
is *byte-identical* at any chunk size -- including 1 and "everything at
once" -- and at any worker count, and the calling stream's position
never depends on either.  :func:`kernel_plan`
is the single chunk plan: up to one worker thread per CPU in the
process's affinity set, each owning ``max_batch_bytes // workers`` of
scratch, with near-equal chunks dealt round-robin so the workers finish
together; a plan whose per-worker chunk would hold under
:data:`KERNEL_INLINE_BYTES` runs inline on the calling thread instead.
numpy releases the GIL in the variate fills, the transforms,
``partition`` and the reductions, so the chunks overlap on real cores.
Workers read shared inputs and write disjoint output ranges; the
caller's RNG, the telemetry hub and the fallback replays stay on the
calling thread.  Per worker scratch (an exponential block and a normal
block per committee; the prepare-vote matrix is built in place over the
normals it consumes) is allocated on the calling thread before any
worker starts and reused across chunks via ``out=`` fills and ufuncs, so
the chunk body allocates nothing large.  The variates are numpy's exact
ziggurat Exp(1) and N(0, 1) draws (``standard_exponential`` /
``standard_normal``), so the KS parity claims vs the DES are unchanged;
``tests/test_chain_kernel.py`` checks the per-committee blocks against
the analytic CDFs.

**Crosslink-scale note.**  The commit quorum only ever gates on votes
*to the primary* (the round commits at the primary's ``(2f+1)``-th
commit vote), so the kernel draws the commit-lag matrix's primary column
only -- ``c`` lognormals per committee instead of ``c^2`` --
distributionally identical to the historical full-matrix draw and one of
the two ``(K, c, c)`` tensors gone outright.

**Formation kernel.**  Stages 1-2 (PoW election + overlay configuration)
contain no event interleaving at all, so their vectorization is
*byte-identical* to the scalar reference (:mod:`repro.chain.pow` and
:mod:`repro.chain.overlay`, kept as the test oracle): the same
``rng.exponential`` block draw for solve times, one SHA-256 per node
over the epoch randomness and a cached ``b":<id>"`` suffix for committee
assignment, grouped order statistics for fill times and membership, the
serial registration queue summed one busy period at a time
(:func:`_registration_queue`), and one gossip block draw in
committee-index order.  Both chain engines form committees with it.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.node import Node
from repro.chain.params import NetworkParams
from repro.chain.pbft import PbftOutcome
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import counter_rng, philox_key

#: NIC rank geometry per (committee size, 1/bandwidth) -- identical for
#: every round at a given configuration, so computing it per call would
#: be pure numpy dispatch overhead.  LRU-bounded: a long-running
#: multi-configuration sweep (network-size x committee-size x bandwidth)
#: must not grow the cache without limit.
_NIC_GEOMETRY: "OrderedDict[Tuple[int, float], Tuple[np.ndarray, np.ndarray, float]]" = (
    OrderedDict()
)
_NIC_GEOMETRY_MAX_ENTRIES = 16


def _nic_geometry(c: int, inv_bw: float) -> Tuple[np.ndarray, np.ndarray, float]:
    """``(nic, nic_free0, burst_s)`` for a ``c``-member committee.

    ``nic[r, i]`` is recipient ``r``'s NIC-serialisation delay in sender
    ``i``'s broadcast burst (member order, sender skipped), recipient-major
    like the kernel's vote matrix; ``nic_free0`` is each sender's NIC-busy
    horizon after the pre-prepare (only the primary's is non-zero);
    ``burst_s`` is one full broadcast burst.
    """
    key = (c, inv_bw)
    cached = _NIC_GEOMETRY.get(key)
    if cached is None:
        idx = np.arange(c)
        recipient, sender = idx[:, None], idx[None, :]
        rank = np.where(recipient > sender, recipient, recipient + 1)
        np.fill_diagonal(rank, 0)
        burst_s = (c - 1) * inv_bw
        nic_free0 = np.zeros(c)
        nic_free0[0] = burst_s
        nic = rank * inv_bw
        # Shared by every later round and by concurrent kernel workers: an
        # accidental in-place write must raise, not corrupt later rounds.
        nic.setflags(write=False)
        nic_free0.setflags(write=False)
        cached = (nic, nic_free0, burst_s)
        _NIC_GEOMETRY[key] = cached
        if len(_NIC_GEOMETRY) > _NIC_GEOMETRY_MAX_ENTRIES:
            _NIC_GEOMETRY.popitem(last=False)
    else:
        _NIC_GEOMETRY.move_to_end(key)
    return cached


#: Philox counter blocks between consecutive committees' kernel streams.
#: A committee draws ~``c^2 + 4c`` 64-bit words (the ziggurat rarely takes
#: more than one per variate), four to a block: far fewer than ``2**64``
#: blocks, so no committee's draws reach the next committee's start.
COMMITTEE_COUNTER_STRIDE = 2**64


def _kernel_draw_budget(c: int) -> Tuple[int, int]:
    """``(exponentials, normals)`` one ``c``-member committee draws.

    ``2c`` Exp(1) variates (the prepare and commit verify delays) and
    ``c + c^2 + c`` standard normals (the pre-prepare lags, the full
    prepare-lag matrix, and the commit-lag primary column).
    """
    return 2 * c, c * c + 2 * c


def kernel_bytes_per_committee(c: int) -> int:
    """Approximate live scratch bytes one committee adds to a chunk.

    Counts the exponential and normal blocks (the ``(c, c)`` prepare-vote
    matrix lives inside the normal block) and a dozen ``(c,)`` working
    vectors.  Used by :func:`kernel_chunk_rows` to size chunks under
    ``max_batch_bytes``.
    """
    n_exp, n_norm = _kernel_draw_budget(c)
    return 8 * (n_exp + n_norm + 12 * c)


def kernel_chunk_rows(c: int, max_batch_bytes: Optional[int]) -> int:
    """Committees per chunk under a ``max_batch_bytes`` scratch budget.

    Always at least 1: a single committee is the smallest unit the kernel
    can process, even when it alone exceeds the budget.
    """
    if max_batch_bytes is None:
        return 2**31
    return max(1, int(max_batch_bytes) // kernel_bytes_per_committee(c))


#: Least scratch one worker's chunk must hold for the kernel to go
#: threaded: below it, thread start-up (0.15-0.7 ms) costs more than the
#: second core saves (break-even measured between 0.84 and 1.1 MiB, eight
#: to sixteen c = 128 committees per worker, on a 2-CPU box), so it runs
#: inline.
KERNEL_INLINE_BYTES = 2**20


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


@dataclass(frozen=True)
class KernelPlan:
    """How :func:`_pbft_kernel_batch` splits a ``K``-committee stack.

    ``chunks`` near-equal chunks (sizes differ by at most one, the largest
    is ``rows`` committees) run on ``workers`` threads, 1 meaning inline on
    the calling thread.  Every worker owns ``rows`` committees of scratch,
    and ``rows * workers`` committees' worth stays within
    ``max_batch_bytes`` -- unless one committee alone exceeds it, when the
    plan is one row on one worker.
    """

    rows: int
    chunks: int
    workers: int


def kernel_plan(num_rounds: int, c: int, max_batch_bytes: Optional[int]) -> KernelPlan:
    """The one chunk plan the kernel runs and the chunk telemetry reports.

    Up to :func:`available_cpus` workers share the ``max_batch_bytes``
    budget, ``max_batch_bytes // workers`` each.  The chunk count is
    rounded up to a multiple of the worker count (at most ``K``) so the
    workers finish together.  When a worker's chunk would hold less than
    :data:`KERNEL_INLINE_BYTES` of scratch, the plan is one inline worker
    with the whole budget.
    """
    budget_rows = kernel_chunk_rows(c, max_batch_bytes)

    def split(workers: int) -> KernelPlan:
        chunks = -(-num_rounds // (budget_rows // workers))
        chunks = min(num_rounds, -(-chunks // workers) * workers)
        return KernelPlan(rows=-(-num_rounds // chunks), chunks=chunks, workers=workers)

    plan = split(max(1, min(available_cpus(), num_rounds, budget_rows)))
    if plan.workers > 1 and plan.rows * kernel_bytes_per_committee(c) < KERNEL_INLINE_BYTES:
        plan = split(1)
    return plan


@dataclass(frozen=True)
class _KernelInputs:
    """The read-only inputs every kernel chunk shares across workers."""

    honest: np.ndarray
    speeds: np.ndarray
    key: np.ndarray
    nic: np.ndarray
    nic_free0: np.ndarray
    burst_s: float
    mu: float
    sigma: float
    verify_mean_s: float


def _kernel_scratch(rows: int, c: int) -> Dict[str, np.ndarray]:
    """One worker's chunk scratch: ``rows`` committees' exponential and
    normal blocks.  Allocated on the calling thread so the chunk body
    allocates nothing large inside a worker."""
    n_exp, n_norm = _kernel_draw_budget(c)
    return {
        "exponentials": np.empty((rows, n_exp)),
        "normals": np.empty((rows, n_norm)),
    }


def _committee_variates(
    key: np.ndarray,
    committee: int,
    exponentials: np.ndarray,
    normals: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> np.random.Generator:
    """Fills one committee's Exp(1) and N(0, 1) rows from its own stream.

    The generator is a Philox keyed by the batch key and started at
    counter block ``committee * COMMITTEE_COUNTER_STRIDE``, so the bytes
    depend on nothing but ``key`` and ``committee``; ``rng``, the previous
    committee's, is re-seated rather than a new one built
    (:func:`repro.sim.rng.counter_rng`).  Returns it, positioned after the
    committee's draws.
    """
    rng = counter_rng(key, committee * COMMITTEE_COUNTER_STRIDE, rng)
    rng.standard_exponential(out=exponentials)
    rng.standard_normal(out=normals)
    return rng


def _prepared_times(votes: np.ndarray, arrival: np.ndarray, quorum: int) -> np.ndarray:
    """Each replica's prepared time, read off its partitioned vote row.

    ``votes[..., r, :]`` holds the times replica ``r`` receives each
    prepare vote (``inf`` from a silent sender), ``arrival[..., r]`` its
    pre-prepare.  A replica is prepared at its first vote event at or
    after ``max(arrival, kth)``, ``kth`` being its ``quorum``-th smallest
    vote: votes can land before the pre-prepare and only count once the
    replica is pre-prepared.  When the pre-prepare came first that event
    is ``kth`` itself; only the rare rows where it came later search the
    row for the first vote at or after the arrival.  Partitions ``votes``
    in place along its last axis, which keeps each row's set of values.
    """
    votes.partition(quorum - 1, axis=-1)
    kth = votes[..., quorum - 1]
    prepared = kth.copy()
    late = np.nonzero(arrival > kth)
    if late[0].size:
        rows = votes[late]
        prepared[late] = np.where(rows >= arrival[late][:, None], rows, np.inf).min(axis=-1)
    return prepared


def _kernel_chunks(
    spans: Sequence[Tuple[int, int]],
    inputs: _KernelInputs,
    scratch: Dict[str, np.ndarray],
    commit_out: np.ndarray,
    prepared_out: np.ndarray,
) -> None:
    """Runs the kernel over committee ranges ``[start, stop)``.

    Reads only ``inputs`` and writes only its own ``scratch`` and its
    ranges of the two output arrays, so workers can run it concurrently.
    Each committee draws from its own Philox stream at its absolute
    counter block (:func:`_committee_variates`), through one generator
    per call re-seated per committee; the caller's stream is never
    touched.
    """
    honest = inputs.honest
    c = honest.shape[1]
    f = (c - 1) // 3
    nic, nic_free0, burst_s = inputs.nic, inputs.nic_free0, inputs.burst_s
    idx = np.arange(c)
    nic_from_primary = nic[:, 0]
    nic_to_primary = nic[0]
    rng = None
    for start, stop in spans:
        b = stop - start
        expo = scratch["exponentials"][:b]
        z = scratch["normals"][:b]
        for row in range(b):
            rng = _committee_variates(inputs.key, start + row, expo[row], z[row], rng)

        # Verify delays: Exp(1) scaled by each member's mean, one pass
        # over both lanes (prepare, commit).
        verify = expo.reshape(b, 2, c)
        verify *= (inputs.verify_mean_s / inputs.speeds[start:stop])[:, None, :]
        verify1 = verify[:, 0]
        verify2 = verify[:, 1]

        # Lognormal lags: one exp(mu + sigma * z) pass over the whole
        # normal block; lag_pre / lag1 / lag2-primary-column are views.
        z *= inputs.sigma
        z += inputs.mu
        np.exp(z, out=z)
        lag_pre = z[:, :c]
        lag2_col = z[:, c + c * c : c + c * c + c]

        honest_b = honest[start:stop]

        # Pre-prepare arrivals (the primary pre-prepares itself at t=0).
        arrival = lag_pre
        arrival += nic_from_primary[None, :]
        arrival[:, 0] = 0.0

        # Prepare votes, recipient-major and built in place over their
        # lags (votes[k, r, i] lands at replica r from sender i): sent
        # after one verify delay; the primary's NIC is still draining the
        # pre-prepare burst.  A silent sender's departure is inf, so its
        # whole column is.
        prep_send = arrival + verify1
        depart1 = np.maximum(prep_send, nic_free0[None, :])
        depart1[~honest_b] = np.inf
        votes = z[:, c : c + c * c].reshape(b, c, c)
        votes += nic
        votes += depart1[:, None, :]
        votes[:, idx, idx] = np.where(honest_b, prep_send, np.inf)
        prepared = _prepared_times(votes, arrival, 2 * f)

        # Commit votes: one more verify delay.  A replica can become
        # prepared from *others'* votes while its own prepare verify is
        # still running, so its commit burst may hit the NIC before its
        # prepare burst -- burst order on the NIC is the event order of
        # the send calls.  (The late prepare burst then departs up to
        # (c-1)/bandwidth later, which we do not feed back into the
        # prepare quorums above: the window is measure-(c-1)/bandwidth
        # and sub-millisecond at default bandwidth, far below KS
        # resolution; the DES stays the reference for it.)  Only the
        # votes *to the primary* matter: the round commits at the
        # primary's (2f+1)-th commit vote, with no pre-prepare gate.
        commit_send = prepared + verify2
        commit_first = commit_send < prep_send
        depart2 = np.where(
            commit_first,
            np.maximum(commit_send, nic_free0[None, :]),
            np.maximum(commit_send, depart1 + burst_s),
        )
        votes2_primary = depart2 + nic_to_primary[None, :]
        votes2_primary += lag2_col
        votes2_primary[:, 0] = commit_send[:, 0]
        votes2_primary[~honest_b] = np.inf
        votes2_primary.partition(2 * f, axis=1)
        commit_out[start:stop] = votes2_primary[:, 2 * f]
        prepared_out[start:stop] = prepared[:, 0]


def _pbft_kernel_batch(
    honest: np.ndarray,
    speeds: np.ndarray,
    rng: np.random.Generator,
    network_params: NetworkParams,
    verify_mean_s: float,
    max_batch_bytes: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The order-statistics kernel over a ``(K, c)`` committee stack.

    Returns ``(commit_time, prepared_primary)`` -- each shape ``(K,)`` --
    for ``K`` independent loss-free honest-primary rounds.  The caller is
    responsible for the pre-draw validity checks and for the post-draw
    view-change-timeout fallback.

    The only consumption from ``rng`` is one Philox key (two ``uint64``
    words), drawn on the calling thread; committee ``k`` draws its
    variates from counter block ``k * COMMITTEE_COUNTER_STRIDE`` of the
    keyed stream (:func:`_committee_variates`).  The
    stack runs as :func:`kernel_plan` says: chunks on up to
    :func:`available_cpus` threads that share one ``max_batch_bytes``
    scratch budget, or inline on the calling thread.  The result is
    byte-identical at any chunk size *and* any worker count, and so is the
    caller's stream position (see the module docstring).
    """
    num_rounds, c = honest.shape
    nic, nic_free0, burst_s = _nic_geometry(c, 1.0 / network_params.bandwidth_msgs_per_s)
    inputs = _KernelInputs(
        honest=honest,
        speeds=speeds,
        key=philox_key(rng),
        nic=nic,
        nic_free0=nic_free0,
        burst_s=burst_s,
        mu=float(np.log(network_params.base_delay)),
        sigma=network_params.jitter_sigma,
        verify_mean_s=verify_mean_s,
    )
    plan = kernel_plan(num_rounds, c, max_batch_bytes)
    # Near-equal chunks, the larger ones first, dealt round-robin below:
    # each worker's share of committees differs by at most one.
    base, extra = divmod(num_rounds, plan.chunks)
    stops = list(itertools.accumulate([base + 1] * extra + [base] * (plan.chunks - extra)))
    spans = list(zip([0] + stops[:-1], stops))
    commit_out = np.empty(num_rounds)
    prepared_out = np.empty(num_rounds)
    # Scratch for every worker is allocated here, before any thread runs.
    scratch = [_kernel_scratch(plan.rows, c) for _ in range(plan.workers)]
    if plan.workers == 1:
        _kernel_chunks(spans, inputs, scratch[0], commit_out, prepared_out)
        return commit_out, prepared_out
    with ThreadPoolExecutor(max_workers=plan.workers) as pool:
        futures = [
            pool.submit(
                _kernel_chunks,
                spans[worker :: plan.workers],
                inputs,
                scratch[worker],
                commit_out,
                prepared_out,
            )
            for worker in range(plan.workers)
        ]
        for future in futures:
            future.result()
    return commit_out, prepared_out


def view_change_timeout(network_params: NetworkParams, verify_mean_s: float) -> float:
    """PbftRound's adaptive view-change timeout (must match it exactly)."""
    return 8.0 * verify_mean_s + 20.0 * network_params.base_delay


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


#: Per-node live-scratch estimate for :func:`formation_kernel` chunking:
#: the solve-time, id, assignment, sort-order and registration arrays plus
#: per-chunk draw temporaries, ~12 float64-sized slots per node.
FORMATION_BYTES_PER_NODE = 96


def formation_chunk_rows(max_batch_bytes: Optional[int]) -> int:
    """Nodes per formation-kernel chunk under ``max_batch_bytes``."""
    if max_batch_bytes is None:
        return 2**31
    return max(1, int(max_batch_bytes) // FORMATION_BYTES_PER_NODE)


def committee_hash_suffixes(node_ids: Sequence[int]) -> List[bytes]:
    """The ``b":<id>"`` tail of each node's committee-assignment preimage.

    :func:`repro.chain.pow._committee_of` hashes ``f"{randomness}:{id}"``;
    the id part is fixed for a deployment, so multi-epoch callers build
    these once and :func:`formation_kernel` only prepends the epoch's
    randomness bytes.
    """
    return [b":%d" % node_id for node_id in np.asarray(node_ids).tolist()]


def _committee_assignments(
    randomness: bytes, suffixes: Sequence[bytes], num_committees: int
) -> np.ndarray:
    """Batched :func:`repro.chain.pow._committee_of` over cached suffixes:
    the little-endian 8-byte digest prefix of ``randomness + suffix``,
    modulo ``num_committees``."""
    sha256 = hashlib.sha256
    prefixes = b"".join([sha256(randomness + suffix).digest()[:8] for suffix in suffixes])
    return np.frombuffer(prefixes, "<u8") % np.uint64(num_committees)


def _registration_queue(arrivals: np.ndarray, service: float) -> np.ndarray:
    """The serial directory queue ``free_k = max(free_{k-1}, t_k) + s``, bit for bit.

    Inside one busy period the reference adds ``s`` to a running sum, which
    ``np.add.accumulate`` over ``[t_j + s, s, s, ...]`` repeats exactly; the
    prefix-maximum form ``max_{j<=k}(t_j - j*s) + (k+1)*s`` agrees only up
    to rounding once the queue backs up.  So the prefix maximum only
    guesses where busy periods start (an arrival after the previous
    departure), each period is summed sequentially, and the guess is
    checked against the exact departures until it holds.  Each pass fixes
    at least the first wrong guess (everything before it is exact), and
    the first pass almost always holds.
    """
    n = arrivals.size
    k = np.arange(n)
    approx = np.maximum.accumulate(arrivals - k * service) + (k + 1) * service
    starts = np.r_[True, arrivals[1:] > approx[:-1]][:n]
    while True:
        ready = np.full(n, service)
        bounds = np.flatnonzero(starts)
        ready[bounds] += arrivals[bounds]
        for lo, hi in zip(bounds.tolist(), bounds[1:].tolist() + [n]):
            np.add.accumulate(ready[lo:hi], out=ready[lo:hi])
        exact = np.r_[True, arrivals[1:] > ready[:-1]][:n]
        if np.array_equal(exact, starts):
            return ready
        starts = exact


def formation_kernel(
    nodes: Sequence[Node],
    num_committees: int,
    committee_size: int,
    mean_solve_s: float,
    epoch_randomness: str,
    registration_rate: float,
    rng: np.random.Generator,
    gossip_delay_mean: float = 4.0,
    solve_scales: Optional[np.ndarray] = None,
    node_ids: Optional[np.ndarray] = None,
    max_batch_bytes: Optional[int] = None,
    hash_suffixes: Optional[Sequence[bytes]] = None,
) -> Tuple[Dict[int, float], Dict[int, List[int]], Dict[int, float]]:
    """Vectorized stages 1-2, byte-identical to the reference path.

    Returns ``(fill_times, members, overlay_times)`` matching
    :func:`repro.chain.pow.committee_fill_times`,
    :func:`repro.chain.pow.committee_members` and
    :func:`repro.chain.overlay.run_overlay_configuration` exactly: the
    solve-time block draw and the gossip block draw consume the RNG
    stream in the same order as the scalar reference loops.  Both block
    draws stream through node-index chunks sized by ``max_batch_bytes``
    (numpy's elementwise exponential consumes the stream sequentially,
    so chunked draws into a preallocated output are byte-identical to
    one monolithic draw at any chunk size).  Committee assignment hashes
    each node once -- the epoch randomness bytes plus the node's cached
    ``b":<id>"`` suffix -- and reduces the joined digest prefixes in one
    numpy pass; it equals :func:`repro.chain.pow._committee_of` node for
    node and draws nothing.

    ``solve_scales`` / ``node_ids`` / ``hash_suffixes`` are optional
    precomputed per-node values (``mean_solve_s / hash_power``, ids and
    :func:`committee_hash_suffixes`, in ``nodes`` order) -- they are fixed
    for the lifetime of a deployment, so multi-epoch callers cache them
    instead of rebuilding them per epoch.
    """
    if num_committees <= 0:
        raise ValueError("num_committees must be positive")
    if mean_solve_s <= 0:
        raise ValueError("mean_solve_s must be positive")
    if registration_rate <= 0:
        raise ValueError("registration_rate must be positive")

    scales = (
        np.array([mean_solve_s / node.hash_power for node in nodes])
        if solve_scales is None
        else solve_scales
    )
    if node_ids is None:
        node_ids = np.array([node.node_id for node in nodes])
    if hash_suffixes is None:
        hash_suffixes = committee_hash_suffixes(node_ids)
    randomness = epoch_randomness.encode("utf-8")
    n = scales.shape[0]
    step = max(1, min(n, formation_chunk_rows(max_batch_bytes)))
    times = np.empty(n)
    assigned = np.empty(n, dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        times[lo:hi] = rng.exponential(scales[lo:hi])
        assigned[lo:hi] = _committee_assignments(
            randomness, hash_suffixes[lo:hi], num_committees
        )

    # Directory arrival order (stable, like the reference's list sort).
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    ids_sorted = node_ids[order]
    comm_sorted = assigned[order]

    ready_sorted = _registration_queue(t_sorted, 1.0 / registration_rate)

    # Group arrivals by committee, keeping arrival order inside groups.
    group_order = np.argsort(comm_sorted, kind="stable")
    grouped = comm_sorted[group_order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    ends = np.r_[starts[1:], grouped.size]

    fills: Dict[int, float] = {}
    members: Dict[int, List[int]] = {}
    last_ready: List[float] = []
    for start, end in zip(starts, ends):
        if end - start < committee_size:
            continue  # this committee never fills this epoch
        rows = group_order[start : start + committee_size]
        committee_index = int(grouped[start])
        fills[committee_index] = float(t_sorted[rows[-1]])
        members[committee_index] = ids_sorted[rows].tolist()
        last_ready.append(float(ready_sorted[rows].max()))

    # One gossip delay per filled committee, in committee-index order --
    # grouped indices are already ascending, matching the reference dict.
    gossip = np.empty(len(members))
    for lo in range(0, len(members), step):
        hi = min(lo + step, len(members))
        gossip[lo:hi] = rng.exponential(gossip_delay_mean, size=hi - lo)
    overlay = {
        committee_index: last + float(g)
        for (committee_index, last), g in zip(zip(members.keys(), last_ready), gossip)
    }
    return fills, members, overlay
