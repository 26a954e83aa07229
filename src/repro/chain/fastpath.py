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

**View-change prelude.**  A Byzantine primary stays silent, so a round
whose first ``v`` members are Byzantine (the primary of view ``j`` is
``members[j % c]``) spends views ``0 .. v-1`` on timers alone: view
``j``'s timer fires at ``T_j = V_j + timeout * 2**j``, every honest
member broadcasts VIEW-CHANGE, and view ``j+1`` starts at ``V_{j+1}``,
the ``(2f+1)``-th smallest over honest senders of each one's earliest
delivery to an honest member.  No PREPARE or COMMIT exists before view
``v``, so the view-``v`` round is the kernel above with primary column
``v``, start ``V_v``, and every honest NIC busy until its last
VIEW-CHANGE burst ends (:func:`_view_change_prelude`).  Such rounds run
in the same batch as the honest-primary ones.

The closed form is *invalid* when ``loss_probability > 0`` (decided
before any RNG draw, so such a round replays from exactly the stream
position a pure DES run would), or when the computed commit time reaches
view ``v``'s timer, ``V_v + timeout * 2**v`` (the DES would fire it first
and change views; that fallback happens after the kernel's draws and is
only distributionally faithful).  A committee with fewer than ``2f+1``
honest members never gets here: it stalls without a draw.  One router
makes these calls for every committee, member and final:
:func:`repro.chain.committee.run_pbft_rounds`.  The DES stays the
reference: ``tests/test_chain_fastpath.py`` checks the kernel, view-change
rows included, against ``PbftRound`` in distribution.

**Batched rounds.**  All committees of an epoch share one sequential RNG
stream, so the router stacks every closed-form-eligible committee into a
single kernel call (:func:`_pbft_kernel_batch`) instead of ``K``
small-matrix calls -- the per-call numpy dispatch overhead dominates at
``c = 8``.  The batch draws one 128-bit Philox key from the shared
stream (a fixed two-``uint64`` consumption, whatever the batch shape)
and replays the fallbacks afterwards on the reference
:func:`repro.chain.pbft.run_pbft_round`; committee-vs-committee draw
*order* therefore differs from the all-DES oracle's one-round-at-a-time
loop (``tests/pbft_oracle.py``), which is immaterial because the draws
are independent (the per-size KS tests compare the two).  With a lossy network
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
(:class:`repro.chain.params.ChainParams`, default 256 MiB).  A
view-change row draws its silent views' lags from a second stream inside
its stride, at block ``k * COMMITTEE_COUNTER_STRIDE +
VIEW_CHANGE_COUNTER_OFFSET``.  Because
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
normals it consumes, and a view-change row draws each silent view's
``(c, c)`` lag block into its normal block before the round's draws
fill it) is allocated on the calling thread before any
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
*byte-identical* to the scalar reference (the per-node PoW election and
overlay loops of ``tests/formation_oracle.py``, kept as the test
oracle): the same ``rng.exponential`` block draw for solve times, one
SHA-256 per node for committee assignment (the epoch randomness
absorbed once, then a copy per node takes its cached ``b":<id>"``
suffix), grouped order statistics for fill times and membership, the
serial registration queue summed one busy period at a time
(:func:`_registration_queue`), and one gossip block draw in
committee-index order.  Every epoch forms its committees with it.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.chain.params import NetworkParams
from repro.sim.rng import counter_rng, philox_key

#: NIC rank geometry per (committee size, 1/bandwidth) -- identical for
#: every round at a given configuration, so computing it per call would
#: be pure numpy dispatch overhead.  LRU-bounded: a long-running
#: multi-configuration sweep (network-size x committee-size x bandwidth)
#: must not grow the cache without limit.
_NIC_GEOMETRY: "OrderedDict[Tuple[int, float], Tuple[np.ndarray, float]]" = OrderedDict()
_NIC_GEOMETRY_MAX_ENTRIES = 16


def _nic_geometry(c: int, inv_bw: float) -> Tuple[np.ndarray, float]:
    """``(nic, burst_s)`` for a ``c``-member committee.

    ``nic[r, i]`` is recipient ``r``'s NIC-serialisation delay in sender
    ``i``'s broadcast burst (member order, sender skipped), recipient-major
    like the kernel's vote matrix; ``burst_s`` is one full broadcast burst.
    """
    key = (c, inv_bw)
    cached = _NIC_GEOMETRY.get(key)
    if cached is None:
        idx = np.arange(c)
        recipient, sender = idx[:, None], idx[None, :]
        rank = np.where(recipient > sender, recipient, recipient + 1)
        np.fill_diagonal(rank, 0)
        nic = rank * inv_bw
        # Shared by every later round and by concurrent kernel workers: an
        # accidental in-place write must raise, not corrupt later rounds.
        nic.setflags(write=False)
        cached = (nic, (c - 1) * inv_bw)
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

#: Where a committee's view-change stream starts inside its stride: its
#: silent views draw ``c^2`` normals each, so neither stream reaches the
#: other or the next committee's.
VIEW_CHANGE_COUNTER_OFFSET = COMMITTEE_COUNTER_STRIDE // 2


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
    matrix lives inside the normal block, and so does each ``(c, c)``
    view-change lag block a Byzantine-primary row draws before its round)
    and a dozen ``(c,)`` working vectors.  Used by :func:`kernel_chunk_rows` to size chunks under
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

#: Most scratch one chunk holds, whatever ``max_batch_bytes`` allows.  A
#: bigger chunk runs no faster (a 520-committee c = 128 stack took 213-240
#: ms inline at 8-28 rows per chunk and 249 ms at 260, 115-123 ms against
#: 163 ms on two workers, on a 2-CPU box), but every kernel call allocates
#: and frees its scratch, so a stack-sized chunk only lifts the process's
#: peak RSS.  4 MiB is about 28 c = 128 committees.
KERNEL_CHUNK_BYTES = 4 * 2**20


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
    ``rows * workers`` committees' worth stays within ``max_batch_bytes``
    and one chunk's within :data:`KERNEL_CHUNK_BYTES` -- unless one
    committee alone exceeds either, when a chunk is one committee.
    """

    rows: int
    chunks: int
    workers: int


def kernel_plan(num_rounds: int, c: int, max_batch_bytes: Optional[int]) -> KernelPlan:
    """The one chunk plan the kernel runs and the chunk telemetry reports.

    Up to :func:`available_cpus` workers share the ``max_batch_bytes``
    budget, ``max_batch_bytes // workers`` each, and no chunk holds more
    than :data:`KERNEL_CHUNK_BYTES`.  The chunk count is rounded up to a
    multiple of the worker count (at most ``K``) so the workers finish
    together.  When a worker's chunk would hold less than
    :data:`KERNEL_INLINE_BYTES` of scratch, the plan is one inline worker
    with the whole budget.
    """
    budget_rows = kernel_chunk_rows(c, max_batch_bytes)
    chunk_rows = max(1, KERNEL_CHUNK_BYTES // kernel_bytes_per_committee(c))

    def split(workers: int) -> KernelPlan:
        chunks = -(-num_rounds // min(budget_rows // workers, chunk_rows))
        chunks = min(num_rounds, -(-chunks // workers) * workers)
        return KernelPlan(rows=-(-num_rounds // chunks), chunks=chunks, workers=workers)

    plan = split(max(1, min(available_cpus(), num_rounds, budget_rows)))
    if plan.workers > 1 and plan.rows * kernel_bytes_per_committee(c) < KERNEL_INLINE_BYTES:
        plan = split(1)
    return plan


def view_change_timeout(network_params: NetworkParams, verify_mean_s: float) -> float:
    """PbftRound's adaptive view-change timeout (must match it exactly)."""
    return 8.0 * verify_mean_s + 20.0 * network_params.base_delay


@dataclass(frozen=True)
class _KernelInputs:
    """The read-only inputs every kernel chunk shares across workers."""

    honest: np.ndarray
    speeds: np.ndarray
    primary: np.ndarray
    key: np.ndarray
    nic: np.ndarray
    burst_s: float
    mu: float
    sigma: float
    verify_mean_s: float
    timeout_s: float


class KernelRounds(NamedTuple):
    """What :func:`_pbft_kernel_batch` returns, one entry per stack row.

    ``view`` is the view the row commits in (its primary's column);
    ``new_views[k, j - 1]`` is row ``k``'s ``new-view-j`` time for
    ``j <= view[k]`` (``nan`` past it), and the view-``view[k]`` round
    starts at the last of them (0 when ``view[k]`` is 0).
    """

    commit: np.ndarray
    prepared: np.ndarray
    view: np.ndarray
    new_views: np.ndarray


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


def _view_change_prelude(
    inputs: _KernelInputs,
    committee: int,
    lags: np.ndarray,
    new_views: np.ndarray,
    rng: Optional[np.random.Generator],
) -> Tuple[float, float, np.random.Generator]:
    """The silent views ``0 .. p-1`` of a row whose first honest member is ``p``.

    View ``j``'s timer fires at ``T_j = V_j + timeout * 2**j`` (``V_0 =
    0``).  Every honest sender then broadcasts VIEW-CHANGE, its burst
    departing once its NIC is free, and its vote counts at its earliest
    delivery to an honest recipient (votes are tallied at protocol level);
    view ``j+1`` starts at ``V_{j+1}``, the ``(2f+1)``-th smallest of
    those.  A silent primary sends no pre-prepare, so nothing else is in
    flight.  Each view draws one ``(c, c)`` recipient-major lag block into
    ``lags`` -- the committee's normal block, before the round's draws
    fill it -- from the row's view-change stream at counter block
    ``committee * COMMITTEE_COUNTER_STRIDE + VIEW_CHANGE_COUNTER_OFFSET``.
    Writes ``V_1 .. V_p`` to ``new_views`` and returns ``(V_p, horizon,
    rng)``, ``horizon`` being when the honest senders' NICs finish their
    last VIEW-CHANGE burst.  The row needs ``2f+1`` honest members.
    """
    honest = inputs.honest[committee]
    c = honest.size
    quorum = 2 * ((c - 1) // 3) + 1
    silent = ~(honest[:, None] & honest[None, :])
    np.fill_diagonal(silent, True)
    rng = counter_rng(
        inputs.key, committee * COMMITTEE_COUNTER_STRIDE + VIEW_CHANGE_COUNTER_OFFSET, rng
    )
    start, horizon = 0.0, 0.0
    for view in range(int(inputs.primary[committee])):
        depart = max(start + inputs.timeout_s * (2.0**view), horizon)
        rng.standard_normal(out=lags)
        lags *= inputs.sigma
        lags += inputs.mu
        np.exp(lags, out=lags)
        lags += inputs.nic
        lags[silent] = np.inf
        first = lags.min(axis=0)[honest]
        first.partition(quorum - 1)
        start = depart + float(first[quorum - 1])
        horizon = depart + inputs.burst_s
        new_views[view] = start
    return start, horizon, rng


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
    new_views_out: np.ndarray,
) -> None:
    """Runs the kernel over committee ranges ``[start, stop)``.

    Reads only ``inputs`` and writes only its own ``scratch`` and its
    ranges of the output arrays, so workers can run it concurrently.
    Each committee draws from its own Philox stream at its absolute
    counter block (:func:`_committee_variates`), through one generator
    per call re-seated per committee; the caller's stream is never
    touched.

    Row ``k``'s round is led by ``p = inputs.primary[k]``.  A row with
    ``p > 0`` first runs its silent views (:func:`_view_change_prelude`),
    which give the round its start ``V_p`` and the honest senders' NIC
    horizon; the pre-prepare departs when both have passed.  A row with
    ``p = 0`` starts at 0 with idle NICs.
    """
    honest = inputs.honest
    c = honest.shape[1]
    f = (c - 1) // 3
    nic, burst_s = inputs.nic, inputs.burst_s
    idx = np.arange(c)
    rng = None
    for start, stop in spans:
        b = stop - start
        expo = scratch["exponentials"][:b]
        z = scratch["normals"][:b]
        begin = np.zeros(b)
        horizon = np.zeros(b)
        for row in range(b):
            committee = start + row
            if inputs.primary[committee]:
                begin[row], horizon[row], rng = _view_change_prelude(
                    inputs, committee, z[row, : c * c].reshape(c, c),
                    new_views_out[committee], rng,
                )
            rng = _committee_variates(inputs.key, committee, expo[row], z[row], rng)

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
        primary = inputs.primary[start:stop]
        rows = np.arange(b)

        # NIC horizons: the primary's pre-prepare burst departs once the
        # round has started and its NIC is free; every other sender's NIC
        # is busy until the last VIEW-CHANGE burst ends.
        launch = np.maximum(begin, horizon)
        nic_free = np.repeat(horizon[:, None], c, axis=1)
        nic_free[rows, primary] = launch + burst_s

        # Pre-prepare arrivals (the primary pre-prepares itself at once).
        arrival = lag_pre
        arrival += nic.T[primary]
        arrival += launch[:, None]
        arrival[rows, primary] = begin

        # Prepare votes, recipient-major and built in place over their
        # lags (votes[k, r, i] lands at replica r from sender i): sent
        # after one verify delay; the primary's NIC is still draining the
        # pre-prepare burst.  A silent sender's departure is inf, so its
        # whole column is.
        prep_send = arrival + verify1
        depart1 = np.maximum(prep_send, nic_free)
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
            np.maximum(commit_send, nic_free),
            np.maximum(commit_send, depart1 + burst_s),
        )
        votes2_primary = depart2 + nic[primary]
        votes2_primary += lag2_col
        votes2_primary[rows, primary] = commit_send[rows, primary]
        votes2_primary[~honest_b] = np.inf
        votes2_primary.partition(2 * f, axis=1)
        commit_out[start:stop] = votes2_primary[:, 2 * f]
        prepared_out[start:stop] = prepared[rows, primary]


def _pbft_kernel_batch(
    honest: np.ndarray,
    speeds: np.ndarray,
    rng: np.random.Generator,
    network_params: NetworkParams,
    verify_mean_s: float,
    max_batch_bytes: Optional[int] = None,
) -> KernelRounds:
    """The order-statistics kernel over a ``(K, c)`` committee stack.

    Runs ``K`` independent loss-free rounds.  Each row's round is led by
    its first honest member ``p``: the ``p`` silent views before it are
    the closed-form view-change prelude (:func:`_view_change_prelude`),
    so a row with an honest view-0 primary runs the plain round.  Every
    row needs ``2f+1`` honest members (the router's quorum filter); the
    caller is responsible for the post-draw view-change-timeout fallback.

    The only consumption from ``rng`` is one Philox key (two ``uint64``
    words), drawn on the calling thread; committee ``k`` draws its round
    variates from counter block ``k * COMMITTEE_COUNTER_STRIDE`` of the
    keyed stream (:func:`_committee_variates`) and its view-change
    variates from its own stream inside that stride.  The stack runs as
    :func:`kernel_plan` says: chunks on up to :func:`available_cpus`
    threads that share one ``max_batch_bytes`` scratch budget, or inline
    on the calling thread.  The result is byte-identical at any chunk
    size *and* any worker count, and so is the caller's stream position
    (see the module docstring).
    """
    num_rounds, c = honest.shape
    nic, burst_s = _nic_geometry(c, 1.0 / network_params.bandwidth_msgs_per_s)
    primary = np.argmax(honest, axis=1)
    inputs = _KernelInputs(
        honest=honest,
        speeds=speeds,
        primary=primary,
        key=philox_key(rng),
        nic=nic,
        burst_s=burst_s,
        mu=float(np.log(network_params.base_delay)),
        sigma=network_params.jitter_sigma,
        verify_mean_s=verify_mean_s,
        timeout_s=view_change_timeout(network_params, verify_mean_s),
    )
    plan = kernel_plan(num_rounds, c, max_batch_bytes)
    # Near-equal chunks, the larger ones first, dealt round-robin below:
    # each worker's share of committees differs by at most one.
    base, extra = divmod(num_rounds, plan.chunks)
    stops = list(itertools.accumulate([base + 1] * extra + [base] * (plan.chunks - extra)))
    spans = list(zip([0] + stops[:-1], stops))
    commit_out = np.empty(num_rounds)
    prepared_out = np.empty(num_rounds)
    new_views_out = np.full((num_rounds, int(primary.max(initial=0))), np.nan)
    outputs = (commit_out, prepared_out, new_views_out)
    # Scratch for every worker is allocated here, before any thread runs.
    scratch = [_kernel_scratch(plan.rows, c) for _ in range(plan.workers)]
    if plan.workers == 1:
        _kernel_chunks(spans, inputs, scratch[0], *outputs)
    else:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            futures = [
                pool.submit(
                    _kernel_chunks,
                    spans[worker :: plan.workers],
                    inputs,
                    scratch[worker],
                    *outputs,
                )
                for worker in range(plan.workers)
            ]
            for future in futures:
                future.result()
    return KernelRounds(commit_out, prepared_out, primary, new_views_out)


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

    The reference assignment hashes ``f"{randomness}:{id}"``; the id part
    is fixed for a deployment, so multi-epoch callers build these once and
    :func:`formation_kernel` only feeds the epoch's randomness first.
    """
    return [b":%d" % node_id for node_id in node_ids]


def _committee_assignments(
    randomness: bytes, suffixes: Sequence[bytes], num_committees: int
) -> np.ndarray:
    """The reference assignment over cached suffixes: the little-endian
    8-byte digest prefix of ``randomness + suffix``, modulo
    ``num_committees``.  The randomness is absorbed once (a 64-character
    hex digest fills exactly one SHA-256 block) and each node hashes a
    copy of that state, byte-identical to hashing the concatenation."""
    base = hashlib.sha256(randomness)
    prefixes = []
    for suffix in suffixes:
        digest = base.copy()
        digest.update(suffix)
        prefixes.append(digest.digest()[:8])
    return np.frombuffer(b"".join(prefixes), "<u8") % np.uint64(num_committees)


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


class Formation(NamedTuple):
    """What :func:`formation_kernel` returns: one row per filled committee,
    in ascending committee index."""

    #: ``(K,)`` committee indices.
    ids: np.ndarray
    #: ``(K, c)`` member node ids, in directory arrival order.
    members: np.ndarray
    #: ``(K,)`` fill times: each committee's ``c``-th solve.
    fills: np.ndarray
    #: ``(K,)`` overlay-completion times: last registration plus gossip.
    overlay: np.ndarray


def formation_kernel(
    solve_scales: np.ndarray,
    num_committees: int,
    committee_size: int,
    epoch_randomness: str,
    registration_rate: float,
    rng: np.random.Generator,
    gossip_delay_mean: float = 4.0,
    max_batch_bytes: Optional[int] = None,
    hash_suffixes: Optional[Sequence[bytes]] = None,
) -> Formation:
    """Vectorized stages 1-2, byte-identical to the reference path.

    Node ``i`` (id ``i``) solves with mean ``solve_scales[i]`` -- the
    PoW difficulty over its hash power -- and hashes
    ``hash_suffixes[i]`` (:func:`committee_hash_suffixes`, built here
    when not given; a deployment builds them once, since they are fixed
    for its lifetime) into its committee assignment.  Returns a
    :class:`Formation` whose rows equal the reference's committee fill
    times, members (as node ids) and overlay-completion times exactly:
    the solve-time block draw and the gossip block draw consume the RNG
    stream in the same order as the scalar reference loops.  Both block
    draws stream through node-index chunks sized by ``max_batch_bytes``
    (numpy's elementwise exponential consumes the stream sequentially,
    so chunked draws into a preallocated output are byte-identical to
    one monolithic draw at any chunk size).  Committee assignment hashes
    each node once (:func:`_committee_assignments`) and draws nothing.
    The indices are held in the smallest unsigned dtype that fits
    ``num_committees - 1``, so the stable grouping sort takes numpy's
    radix path (the same permutation as an ``int64`` sort), and each
    committee's first ``c`` arrivals are read off the grouped order with
    segment offsets, not a per-committee loop.
    """
    if num_committees <= 0:
        raise ValueError("num_committees must be positive")
    if not (solve_scales > 0).all():
        raise ValueError("solve_scales must be positive")
    if registration_rate <= 0:
        raise ValueError("registration_rate must be positive")

    n = solve_scales.shape[0]
    if hash_suffixes is None:
        hash_suffixes = committee_hash_suffixes(range(n))
    randomness = epoch_randomness.encode("utf-8")
    step = max(1, min(n, formation_chunk_rows(max_batch_bytes)))
    times = np.empty(n)
    assigned = np.empty(n, dtype=np.min_scalar_type(num_committees - 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        times[lo:hi] = rng.exponential(solve_scales[lo:hi])
        assigned[lo:hi] = _committee_assignments(
            randomness, hash_suffixes[lo:hi], num_committees
        )

    # Directory arrival order (stable, like the reference's list sort).
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    comm_sorted = assigned[order]

    ready_sorted = _registration_queue(t_sorted, 1.0 / registration_rate)

    # Group arrivals by committee, keeping arrival order inside groups; a
    # committee with at least ``committee_size`` arrivals fills with its
    # first ``committee_size`` (the others never fill this epoch).
    group_order = np.argsort(comm_sorted, kind="stable")
    counts = np.bincount(comm_sorted, minlength=num_committees)
    ids = np.flatnonzero(counts >= committee_size)
    starts = (np.cumsum(counts) - counts)[ids]
    rows = group_order[starts[:, None] + np.arange(committee_size)]
    last_ready = ready_sorted[rows].max(axis=1)

    # One gossip delay per filled committee, in committee-index order.
    gossip = np.empty(len(ids))
    for lo in range(0, len(ids), step):
        hi = min(lo + step, len(ids))
        gossip[lo:hi] = rng.exponential(gossip_delay_mean, size=hi - lo)
    return Formation(ids, order[rows], t_sorted[rows[:, -1]], last_ready + gossip)
