"""Tests for the PBFT intra-committee consensus simulation."""

import numpy as np
import pytest

from repro.chain.node import Node, spawn_nodes
from repro.chain.params import NetworkParams
from repro.chain.pbft import run_pbft_round


def make_committee(size, byzantine=0, seed=0):
    rng = np.random.default_rng(seed)
    nodes = list(spawn_nodes(size, 0.0, rng))
    for node in nodes[:byzantine]:
        node.honest = False
    # keep the primary honest unless the test wants otherwise
    nodes[0], nodes[-1] = nodes[-1], nodes[0]
    return nodes


NETWORK = NetworkParams(base_delay=1.0, jitter_sigma=0.3)


class TestCommit:
    def test_all_honest_commits(self):
        outcome = run_pbft_round(make_committee(7), np.random.default_rng(1), NETWORK, 5.0)
        assert outcome.committed
        assert outcome.latency > 0

    def test_stage_times_ordered(self):
        outcome = run_pbft_round(make_committee(7), np.random.default_rng(1), NETWORK, 5.0)
        stages = outcome.stage_times
        assert stages["pre-prepare-sent"] <= stages["prepare-quorum"] <= stages["commit-quorum"]

    def test_commits_with_f_byzantine(self):
        # 7 = 3f+1 with f=2: up to 2 silent members tolerated.
        outcome = run_pbft_round(
            make_committee(7, byzantine=2, seed=3), np.random.default_rng(1), NETWORK, 5.0
        )
        assert outcome.committed

    def test_stalls_beyond_f_byzantine(self):
        outcome = run_pbft_round(
            make_committee(7, byzantine=3, seed=3), np.random.default_rng(1), NETWORK, 5.0
        )
        assert not outcome.committed
        assert outcome.commit_time is None

    def test_byzantine_primary_replaced_by_view_change(self):
        nodes = make_committee(7, byzantine=0, seed=4)
        nodes[0].honest = False  # primary itself is Byzantine
        outcome = run_pbft_round(nodes, np.random.default_rng(1), NETWORK, 5.0)
        assert outcome.committed
        # The view change shows up in the stages and in the latency: the
        # round pays (at least) the view-change timeout before committing.
        assert any(stage.startswith("new-view") for stage in outcome.stage_times)
        assert outcome.latency > 60.0

    def test_honest_primary_needs_no_view_change(self):
        outcome = run_pbft_round(make_committee(7), np.random.default_rng(1), NETWORK, 5.0)
        assert not any(stage.startswith("new-view") for stage in outcome.stage_times)

    def test_consecutive_byzantine_primaries_skipped(self):
        nodes = make_committee(10, byzantine=0, seed=4)
        nodes[0].honest = False
        nodes[1].honest = False  # the next primary is Byzantine too
        outcome = run_pbft_round(nodes, np.random.default_rng(1), NETWORK, 5.0)
        assert outcome.committed
        # Two view changes -> the round pays two timeouts.
        assert outcome.latency > 120.0

    def test_too_small_committee_rejected(self):
        with pytest.raises(ValueError):
            run_pbft_round(make_committee(3), np.random.default_rng(1), NETWORK, 5.0)

    def test_latency_property_requires_commit(self):
        outcome = run_pbft_round(
            make_committee(7, byzantine=3, seed=3), np.random.default_rng(1), NETWORK, 5.0
        )
        with pytest.raises(ValueError):
            _ = outcome.latency


class TestLatencyStructure:
    def test_latency_grows_with_verify_mean(self):
        slow = run_pbft_round(make_committee(7), np.random.default_rng(1), NETWORK, 30.0)
        fast = run_pbft_round(make_committee(7), np.random.default_rng(1), NETWORK, 1.0)
        assert slow.latency > fast.latency

    def test_latency_varies_across_committees(self):
        """Heterogeneity: different committees take visibly different times
        (the paper's unbalanced intra-consensus latency)."""
        latencies = [
            run_pbft_round(make_committee(7, seed=s), np.random.default_rng(s), NETWORK, 10.0).latency
            for s in range(12)
        ]
        assert np.std(latencies) > 0.05 * np.mean(latencies)

    def test_deterministic_per_rng(self):
        a = run_pbft_round(make_committee(7), np.random.default_rng(5), NETWORK, 5.0)
        b = run_pbft_round(make_committee(7), np.random.default_rng(5), NETWORK, 5.0)
        assert a.latency == pytest.approx(b.latency)
