"""Properties of the batched PBFT kernel's building blocks.

* **Prepare quorum.** :func:`repro.chain.fastpath._prepared_times` reads
  each replica's prepared time off its partitioned, recipient-major vote
  row.  It must equal the masked formula it replaced,
  ``min(votes[votes >= max(arrival, kth)])`` with ``kth`` the 2f-th
  smallest vote, bit for bit: silent (``inf``) senders, tied votes and
  pre-prepares that arrive after the 2f-th vote included.
* **Variate source.** Committee ``k`` draws its ziggurat Exp(1) and
  N(0, 1) blocks from its own Philox stream
  (:func:`repro.chain.fastpath._committee_variates`).  The blocks must
  follow the analytic CDFs (one-sample KS, family-wise alpha = 0.01 with
  a Bonferroni split over every comparison, fixed keys, n >= 10^4 per
  comparison), depend only on the key and ``k``, and stay inside the
  committee's own counter range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.fastpath import (
    COMMITTEE_COUNTER_STRIDE,
    _committee_variates,
    _kernel_draw_budget,
    _prepared_times,
)
from repro.sim.rng import philox_key, spawn_rng

#: How a row's pre-prepare arrival sits against its 2f-th vote.
_EARLY, _AT_KTH, _LATE, _ON_LATER_VOTE, _AFTER_ALL = range(5)


def _masked_prepared(votes, arrival, quorum):
    """The reference: first vote at or after ``max(arrival, kth)``."""
    kth = np.sort(votes, axis=-1)[..., quorum - 1]
    threshold = np.maximum(arrival, kth)[..., None]
    return np.where(votes >= threshold, votes, np.inf).min(axis=-1)


def _arrivals(votes, quorum, modes, offsets):
    """Pre-prepare arrivals placed by ``modes`` around each row's 2f-th
    vote; ``_ON_LATER_VOTE`` lands exactly on the row's largest finite
    vote and ``_AFTER_ALL`` past it."""
    ordered = np.sort(votes, axis=-1)
    kth = ordered[..., quorum - 1]
    finite = np.where(np.isfinite(ordered), ordered, -np.inf).max(axis=-1)
    arrival = np.select(
        [modes == _EARLY, modes == _AT_KTH, modes == _LATE, modes == _ON_LATER_VOTE],
        [kth - offsets, kth, kth + offsets, finite],
        finite + offsets,
    )
    # A row whose 2f-th vote is inf has no finite place to put the arrival.
    return np.where(np.isfinite(arrival), arrival, offsets)


@st.composite
def _vote_stacks(draw):
    c = draw(st.sampled_from([4, 5, 7, 8, 10, 13]))
    rows = draw(st.integers(1, 3))
    quorum = 2 * ((c - 1) // 3)
    # Vote values: a coarse integer grid (ties) mixed with continuous ones.
    rng = spawn_rng(draw(st.integers(0, 2**32 - 1)), "votes")
    tie_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    votes = np.where(
        rng.random((rows, c, c)) < tie_share,
        rng.integers(0, 13, (rows, c, c)).astype(float),
        12.0 * rng.random((rows, c, c)),
    )
    silent = np.array(draw(st.lists(st.booleans(), min_size=rows * c, max_size=rows * c)))
    votes[np.broadcast_to(silent.reshape(rows, 1, c), votes.shape)] = np.inf
    modes = np.array(draw(st.lists(st.integers(0, 4), min_size=rows * c, max_size=rows * c)))
    offsets = 0.25 + 3.75 * rng.random((rows, c))
    arrival = _arrivals(votes, quorum, modes.reshape(rows, c), offsets)
    return votes, arrival, quorum


class TestPreparedTimes:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(stack=_vote_stacks())
    def test_equals_masked_formula(self, stack):
        votes, arrival, quorum = stack
        expected = _masked_prepared(votes, arrival, quorum)
        partitioned = votes.copy()
        prepared = _prepared_times(partitioned, arrival, quorum)
        assert prepared.tobytes() == expected.tobytes()
        # Partitioning in place keeps every row's set of values.
        np.testing.assert_array_equal(np.sort(partitioned, -1), np.sort(votes, -1))

    @pytest.mark.parametrize("late", [False, True])
    def test_late_arrival_waits_for_the_next_vote(self, late):
        """c = 4 (quorum 2): votes 1, 2, 5 and one silent sender.  A
        pre-prepare at 3 waits for the vote at 5; one at 2 takes the
        2nd vote itself."""
        votes = np.array([[[5.0, 1.0, np.inf, 2.0]]])
        arrival = np.array([[3.0 if late else 2.0]])
        assert _prepared_times(votes.copy(), arrival, 2)[0, 0] == (5.0 if late else 2.0)

    def test_no_vote_after_a_late_arrival_never_prepares(self):
        votes = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        assert _prepared_times(votes, np.array([[9.0]]), 2)[0, 0] == np.inf

    def test_silent_quorum_never_prepares(self):
        votes = np.array([[[1.0, np.inf, np.inf, np.inf]]])
        assert _prepared_times(votes, np.array([[0.5]]), 2)[0, 0] == np.inf


#: Committee size of the variate checks: the eth2 shape, whose normal
#: block (c^2 + 2c = 16,640 draws) clears n >= 10^4 on its own.
_C = 128
#: Fixed batch keys, drawn the way the kernel draws them.
_KEYS = [philox_key(spawn_rng(seed, "kernel-variates")) for seed in (0, 1)]
#: Committees checked one by one: the first, its neighbour, the last eth2
#: committee and one far out in the counter space.
_COMMITTEES = (0, 1, 1023, 2**40 + 7)
#: Committees whose 2c exponentials are pooled to n = 40 * 256 = 10,240.
_POOLED = range(40)
#: Family-wise level, split over one normal check per (key, committee)
#: and one pooled exponential check per key.
_ALPHA = 0.01 / (len(_KEYS) * (len(_COMMITTEES) + 1))


def _draw(key, committee):
    n_exp, n_norm = _kernel_draw_budget(_C)
    exponentials, normals = np.empty(n_exp), np.empty(n_norm)
    rng = _committee_variates(key, committee, exponentials, normals)
    return exponentials, normals, rng


def _ks_one_sample_rejects(sample, cdf, alpha):
    """Asymptotic one-sample KS test of ``sample`` against ``cdf``."""
    x = np.sort(sample)
    n = x.size
    f = cdf(x)
    d = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
    return d >= math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(n)


def _normal_cdf(x):
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def _exponential_cdf(x):
    return -np.expm1(-x)


def _counter(rng):
    words = rng.bit_generator.state["state"]["counter"]
    return sum(int(word) << (64 * i) for i, word in enumerate(words))


class TestCommitteeVariates:
    @pytest.mark.parametrize("committee", _COMMITTEES)
    @pytest.mark.parametrize("key_index", range(len(_KEYS)))
    def test_normal_block_follows_the_standard_normal(self, key_index, committee):
        _, normals, _ = _draw(_KEYS[key_index], committee)
        assert normals.size >= 10**4
        assert not _ks_one_sample_rejects(normals, _normal_cdf, _ALPHA)

    @pytest.mark.parametrize("key_index", range(len(_KEYS)))
    def test_pooled_exponentials_follow_exp1(self, key_index):
        pooled = np.concatenate([_draw(_KEYS[key_index], k)[0] for k in _POOLED])
        assert pooled.size >= 10**4
        assert not _ks_one_sample_rejects(pooled, _exponential_cdf, _ALPHA)

    def test_blocks_depend_only_on_key_and_committee(self):
        key = _KEYS[0]
        forward = [_draw(key, k)[:2] for k in range(4)]
        backward = [_draw(key, k)[:2] for k in reversed(range(4))][::-1]
        for (e1, n1), (e2, n2) in zip(forward, backward):
            assert e1.tobytes() == e2.tobytes() and n1.tobytes() == n2.tobytes()
        assert forward[0][1].tobytes() != forward[1][1].tobytes()
        assert _draw(_KEYS[1], 0)[1].tobytes() != forward[0][1].tobytes()

    @pytest.mark.parametrize("committee", _COMMITTEES)
    def test_adjacent_counter_ranges_cannot_overlap(self, committee):
        """A committee's draws start at its own block and end far short
        of the next committee's start."""
        n_exp, n_norm = _kernel_draw_budget(_C)
        start = committee * COMMITTEE_COUNTER_STRIDE
        _, _, rng = _draw(_KEYS[0], committee)
        used = _counter(rng) - start
        # The ziggurat takes one 64-bit word per variate except on rare
        # rejections, four words to a block: a few thousand blocks.
        assert 0 < used <= n_exp + n_norm
        assert start + used < (committee + 1) * COMMITTEE_COUNTER_STRIDE
        assert used < COMMITTEE_COUNTER_STRIDE // 2**32
