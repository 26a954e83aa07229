"""Byte-identity of the lean PBFT replay, and the router's fallbacks.

:func:`tests.pbft_oracle.replay_pbft_until_commit` is the fast oracle the
kernel's view-change parity tests sample large committees from.
:class:`repro.chain.pbft.PbftRound`, driven with ``while not
outcome.committed and engine.step()``
(:func:`tests.pbft_oracle.reference_until_commit`), stays the oracle it
must match: the same ``committed``, ``commit_time`` and ``stage_times``
(``new-view-k`` included, in insertion order), the same telemetry, and
the shared generator left in the same ``bit_generator.state``.

The stage-3 tests check what falls back now that rows led by Byzantine
members run in the batched kernel: only ``view-change-timeout`` rows, on
the reference ``run_pbft_round``.  The golden epoch pins hold whole
default-fraction epochs byte for byte.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.chain.committee as committee_module
from repro.chain.committee import calibrated_verify_mean
from repro.chain.elastico import ElasticoSimulation
from repro.chain.node import Node
from repro.chain.params import ChainParams, NetworkParams
from repro.chain.pbft import run_pbft_round
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from tests.pbft_oracle import reference_until_commit, replay_pbft_until_commit


def committee(pattern, speed_seed=0, speed_sigma=0.4):
    """Members from an ``"H"``/``"B"`` pattern (index = view it leads)."""
    speeds = np.random.default_rng(speed_seed).lognormal(0.0, speed_sigma, len(pattern))
    return [
        Node(node_id=100 + 7 * i, hash_power=1.0, honest=mark == "H", verify_speed=float(speed))
        for i, (mark, speed) in enumerate(zip(pattern, speeds))
    ]


def byzantine_pattern(c, leaders, extra, layout_seed=0):
    """``c`` members: Byzantine at ``leaders`` plus ``extra`` more at random."""
    pattern = ["H"] * c
    for i in leaders:
        pattern[i] = "B"
    free = [i for i in range(c) if pattern[i] == "H"]
    for i in np.random.default_rng(layout_seed).choice(free, size=extra, replace=False):
        pattern[int(i)] = "B"
    return "".join(pattern)


def assert_byte_identical(members, network_params, verify_mean_s, seed):
    """Run oracle and replay from one seed; return the (shared) outcome."""
    rng_ref = np.random.default_rng(seed)
    rng_lean = np.random.default_rng(seed)
    ref = reference_until_commit(members, rng_ref, network_params, verify_mean_s)
    lean = replay_pbft_until_commit(members, rng_lean, network_params, verify_mean_s)
    assert lean.committed == ref.committed
    assert lean.start_time == ref.start_time
    assert lean.commit_time == ref.commit_time
    assert list(lean.stage_times.items()) == list(ref.stage_times.items())
    assert rng_lean.bit_generator.state == rng_ref.bit_generator.state
    return ref


DEFAULT_VERIFY_S = calibrated_verify_mean(ChainParams())
#: Slow links and heavy jitter: rounds outlive the view timeout.
SLOW = NetworkParams(base_delay=0.1, jitter_sigma=1.5, bandwidth_msgs_per_s=5.0)


class TestPinnedRounds:
    def test_eth2_committee_with_byzantine_view0_primary(self):
        """The production fallback shape: c=128, default network."""
        members = committee(byzantine_pattern(128, [0], extra=11, layout_seed=1))
        for seed in range(3):
            outcome = assert_byte_identical(members, NetworkParams(), DEFAULT_VERIFY_S, seed)
            assert outcome.committed and "new-view-1" in outcome.stage_times

    def test_byzantine_primaries_at_views_0_and_1(self):
        members = committee(byzantine_pattern(64, [0, 1], extra=19, layout_seed=2), speed_seed=2)
        for seed in range(3):
            outcome = assert_byte_identical(members, NetworkParams(), DEFAULT_VERIFY_S, seed)
            assert outcome.committed
            assert {"new-view-1", "new-view-2"} <= set(outcome.stage_times)

    @pytest.mark.parametrize("c", [7, 16, 40])
    def test_view_change_timeout_on_slow_links(self, c):
        """Honest view-0 primary, but the round outlives its timer."""
        members = committee(byzantine_pattern(c, [], extra=(c - 1) // 3, layout_seed=c))
        views = []
        for seed in range(4):
            outcome = assert_byte_identical(members, SLOW, 0.2, seed)
            views.append(sum(key.startswith("new-view-") for key in outcome.stage_times))
        assert max(views) >= 1

    def test_exact_ties_keep_scheduling_order(self):
        """Zero jitter and an unbounded NIC make many deliveries land at
        the same instant; only the seq order separates them."""
        members = committee(byzantine_pattern(16, [0], extra=4, layout_seed=3), speed_sigma=0.0)
        network = NetworkParams(base_delay=1.0, jitter_sigma=0.0, bandwidth_msgs_per_s=1e9)
        for seed in range(3):
            assert assert_byte_identical(members, network, 1.0, seed).committed

    @pytest.mark.parametrize(
        "pattern, base_delay, bandwidth, seed",
        [
            ("HHHBBHHBHHHHBHHHBBHH", 1.0, 1.0, 151),
            ("HHHHHHHHHBHHBHHHBHBHHHHHHHHHHHBH", 0.5, 2.0, 185),
            ("HHHHHHHHHBHHHHBHHHHHHHHHHHHHHHBHHHH", 0.5, 2.0, 364),
        ],
    )
    def test_integer_clock_view_changes(self, pattern, base_delay, bandwidth, seed):
        """Zero jitter, zero verify time and a binary-exact NIC put every
        event on a grid: the view timer ties with deliveries, and PREPAREs
        sent in one view land in the next."""
        members = committee(pattern, speed_sigma=0.0)
        network = NetworkParams(
            base_delay=base_delay, jitter_sigma=0.0, bandwidth_msgs_per_s=bandwidth
        )
        outcome = assert_byte_identical(members, network, 0.0, seed)
        assert "new-view-1" in outcome.stage_times

    def test_exhausts_max_views_and_never_commits(self):
        """Votes outrun by the view timers: every member leads once, the
        last view's primary never commits, and the round stalls."""
        members = committee("HHBHH", speed_sigma=0.0)
        network = NetworkParams(base_delay=1e-3, jitter_sigma=0.5, bandwidth_msgs_per_s=0.5)
        for seed in range(3):
            outcome = assert_byte_identical(members, network, 1e-3, seed)
            assert not outcome.committed and outcome.commit_time is None
            assert "new-view-4" in outcome.stage_times
            assert "new-view-5" not in outcome.stage_times

    def test_without_quorum_never_commits(self):
        members = committee("BHBH")
        outcome = assert_byte_identical(members, NetworkParams(), DEFAULT_VERIFY_S, 0)
        assert not outcome.committed and outcome.stage_times == {}


@st.composite
def fallback_rounds(draw):
    """Loss-free committees of 4..128 members with up to f Byzantine, a
    Byzantine primary at view 0 (and at view 1 when f >= 2) or none."""
    c = draw(st.integers(min_value=4, max_value=128))
    f = (c - 1) // 3
    leaders = draw(st.sampled_from([[], [0], [0, 1]] if f >= 2 else [[], [0]]))
    extra = draw(st.integers(min_value=0, max_value=f - len(leaders)))
    layout_seed = draw(st.integers(min_value=0, max_value=2**16))
    members = committee(byzantine_pattern(c, leaders, extra, layout_seed), speed_seed=layout_seed)
    network = NetworkParams(
        base_delay=draw(st.floats(min_value=0.05, max_value=3.0)),
        jitter_sigma=draw(st.floats(min_value=0.0, max_value=1.5)),
        bandwidth_msgs_per_s=draw(st.floats(min_value=5.0, max_value=500.0)),
    )
    verify_mean_s = draw(st.floats(min_value=0.05, max_value=30.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return members, network, verify_mean_s, seed


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fallback_rounds())
def test_replay_matches_reference_property(case):
    members, network, verify_mean_s, seed = case
    assert_byte_identical(members, network, verify_mean_s, seed)


@st.composite
def integer_clock_rounds(draw):
    """Rounds whose events fall on a coarse time grid, so exact ties
    between deliveries, votes and view timers are common."""
    c = draw(st.integers(min_value=4, max_value=40))
    f = (c - 1) // 3
    layout_seed = draw(st.integers(min_value=0, max_value=2**16))
    members = committee(
        byzantine_pattern(c, [], draw(st.integers(0, f)), layout_seed), speed_sigma=0.0
    )
    network = NetworkParams(
        base_delay=draw(st.sampled_from([0.5, 1.0, 2.0])),
        jitter_sigma=0.0,
        bandwidth_msgs_per_s=draw(st.sampled_from([1.0, 2.0, 4.0, 8.0])),
    )
    verify_mean_s = draw(st.sampled_from([0.0, 0.25]))
    return members, network, verify_mean_s, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(integer_clock_rounds())
def test_replay_matches_reference_on_integer_clock(case):
    members, network, verify_mean_s, seed = case
    assert_byte_identical(members, network, verify_mean_s, seed)


class TestTelemetryParity:
    def test_same_view_change_events_and_round_span(self):
        members = committee(byzantine_pattern(40, [0, 1], extra=6, layout_seed=5))
        rings = []
        for replay in (reference_until_commit, replay_pbft_until_commit):
            ring = RingBufferSink()
            replay(
                members, np.random.default_rng(9), NetworkParams(), DEFAULT_VERIFY_S,
                round_tag="epoch3-committee7", telemetry=Telemetry(sinks=[ring]),
            )
            rings.append(ring.records)
        reference, lean = rings
        assert lean == reference
        *view_changes, span = lean
        assert len(view_changes) >= 2
        assert {r["name"] for r in view_changes} == {"chain.pbft.view_change"}
        assert span["name"] == "chain.pbft.round" and span["tag"] == "epoch3-committee7"
        assert span["view"] == len(view_changes)


class TestValidation:
    def test_lossy_network_rejected(self):
        with pytest.raises(ValueError, match="loss-free"):
            replay_pbft_until_commit(
                committee("HHHH"), np.random.default_rng(0),
                NetworkParams(loss_probability=0.1), 1.0,
            )

    def test_too_small_committee_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            replay_pbft_until_commit(committee("HHH"), np.random.default_rng(0), NetworkParams(), 1.0)

    def test_duplicate_members_rejected(self):
        node = Node(node_id=1, hash_power=1.0)
        with pytest.raises(ValueError, match="distinct"):
            replay_pbft_until_commit([node] * 4, np.random.default_rng(0), NetworkParams(), 1.0)


def _fallbacks(records):
    return [
        (r["tag"], r["reason"]) for r in records if r.get("name") == "chain.fastpath.fallback"
    ]


def _view_change_rows(records):
    return sum(
        r["view_change_rows"] for r in records if r.get("name") == "chain.fastpath.chunks"
    )


class TestStage3:
    def test_epoch_matches_reference_fallbacks(self, monkeypatch):
        """A whole fastpath epoch on slow links: committees led by
        Byzantine members run the kernel's view-change rows, and exactly
        the rows whose commit outlives their view's timer replay -- each on
        the reference ``run_pbft_round``, whose outcome becomes the
        committee's consensus latency."""
        params = ChainParams(
            num_nodes=640, committee_size=16, seed=2, byzantine_fraction=0.2,
            chain_engine="fastpath",
            network=NetworkParams(bandwidth_msgs_per_s=0.15, jitter_sigma=1.5),
        )
        replays = []

        def recording_round(**kwargs):
            outcome = run_pbft_round(**kwargs)
            replays.append((kwargs["round_tag"], outcome))
            return outcome

        monkeypatch.setattr(committee_module, "run_pbft_round", recording_round)
        ring = RingBufferSink()
        epoch = ElasticoSimulation(params, telemetry=Telemetry(sinks=[ring])).run_epoch()
        fallbacks = _fallbacks(ring.records)
        assert _view_change_rows(ring.records) >= 1
        assert fallbacks and {reason for _, reason in fallbacks} == {"view-change-timeout"}
        assert [tag for tag, _ in replays] == [tag for tag, _ in fallbacks]
        for tag, outcome in replays:
            if tag.endswith("-final"):
                continue  # the final committee's round, routed the same way
            committee_id = int(tag.rpartition("committee")[2])
            assert epoch.consensus_latencies.get(committee_id) == (
                outcome.latency if outcome.committed else None
            )

    def test_stage3_never_falls_back_for_no_quorum(self):
        """Stage 3 skips committees that cannot reach quorum before it
        classifies the rest, so at byzantine_fraction 0.25 -- where some
        committees hold more than f silent members -- the only fallback
        reason is view-change-timeout, and committees led by Byzantine
        members run in the kernel."""
        params = ChainParams(
            num_nodes=640, committee_size=16, seed=2, byzantine_fraction=0.25,
            chain_engine="fastpath",
            network=NetworkParams(bandwidth_msgs_per_s=0.15, jitter_sigma=1.5),
        )
        ring = RingBufferSink()
        outcome = ElasticoSimulation(params, telemetry=Telemetry(sinks=[ring])).run_epoch()
        assert any(not committee.can_reach_quorum for committee in outcome.committees)
        reasons = Counter(reason for _, reason in _fallbacks(ring.records))
        assert reasons["view-change-timeout"] >= 1
        assert set(reasons) == {"view-change-timeout"}
        assert _view_change_rows(ring.records) >= 1


def _latency_digest(latencies):
    blob = json.dumps(sorted((cid, float(value).hex()) for cid, value in latencies.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


#: ``(seed, epoch) -> (final block hash, sha256 of the consensus latencies)``
#: for 4096 nodes in 128-member committees at the default Byzantine
#: fraction, recorded with the reference DES replaying every fallback and
#: re-recorded when the PBFT kernel moved to per-committee ziggurat variate
#: streams, and again when rounds led by Byzantine members joined the
#: kernel through its view-change prelude (every epoch here has such
#: rounds and, on the default network, no fallback at all).
GOLDEN_EPOCHS = {
    (0, 0): (
        "eff5d2407f6a6c9f370726b61bca2b4a29aaa45bd7f10cee805e54c102f36dc4",
        "3fa2bc2ea6a18918e9e8caa60766baf85155cce36aee4ab64c60362f80e637cb",
    ),
    (0, 1): (
        "7c0535209f0d83f56ef9f93c7970aa9f1c318bc80ccba62ad90760c235c7e37f",
        "4bb98621f98621288a09b5b2d72575512cfb78415cd1b5b6bb27ae0291ce91a3",
    ),
    (1, 0): (
        "0aab8128bebf9aa27a4bea8892a03eb09798235c2b0154c15e62ef2e9baabbdb",
        "58937eb9a2032f0f361d28034efa33056214a5b8f94bd8afe9b72d7a63bc85e9",
    ),
    (1, 1): (
        "17cb90eb9072617be91d3ee9141e704c02f270187dbcfc5fef959c858df5d109",
        "66a15187760e8c5ecf7a71cd959c52b42d61e6527b12b40c5e34dbf98a620330",
    ),
}


@pytest.mark.parametrize("seed", [0, 1])
def test_golden_default_fraction_epochs(seed):
    ring = RingBufferSink()
    params = ChainParams(num_nodes=4096, committee_size=128, seed=seed, chain_engine="fastpath")
    sim = ElasticoSimulation(params, telemetry=Telemetry(sinks=[ring]))
    for epoch in range(2):
        outcome = sim.run_epoch_streaming()
        assert (
            outcome.final.block.block_hash,
            _latency_digest(outcome.consensus_latencies),
        ) == GOLDEN_EPOCHS[(seed, epoch)]
    assert _view_change_rows(ring.records) >= 1
    assert not _fallbacks(ring.records)
