"""Tests for stage 4: the final committee and pluggable schedulers."""

import numpy as np
import pytest

from repro.chain.blocks import RootChain, shard_block_hash
from repro.chain.committee import Committee
from repro.chain.final import CrosslinkAggregator, FinalCommittee, take_everything
from repro.chain.node import spawn_nodes
from repro.chain.params import ChainParams
from repro.core.problem import MVComConfig

PARAMS = ChainParams(num_nodes=64, committee_size=8, seed=9)


def make_submissions(count=10, seed=0):
    """A crosslink aggregator holding ``count`` submitted shards."""
    rng = np.random.default_rng(seed)
    aggregator = CrosslinkAggregator()
    if count:
        tx_counts = rng.integers(500, 2_000, size=count)
        latencies = rng.gamma(4.0, 150.0, size=count) + rng.gamma(4.0, 12.0, size=count)
        aggregator.extend(np.arange(count), tx_counts, latencies)
    return aggregator


def make_final_committee(scheduler, capacity=8_000):
    nodes = spawn_nodes(8, 0.0, np.random.default_rng(3))
    committee = Committee(committee_id=99, epoch=0, members=nodes)
    return FinalCommittee(
        committee=committee,
        params=PARAMS,
        mvcom_config=MVComConfig(alpha=1.5, capacity=capacity),
        scheduler=scheduler,
    )


class TestArrivalWindow:
    def test_window_is_nmax_fraction(self):
        window = make_submissions(10).arrival_positions(0.8)
        assert len(window) == 8  # 80% of 10

    def test_window_keeps_fastest(self):
        submissions = make_submissions(10)
        window = submissions.arrival_positions(0.8)
        cut = submissions.latencies[window].max()
        outside = np.setdiff1d(np.arange(10), window)
        assert (submissions.latencies[outside] >= cut).all()
        # Fastest first.
        assert (np.diff(submissions.latencies[window]) >= 0).all()


def run_final(final, submissions, chain=None):
    return final.run_streaming(
        submissions, chain if chain is not None else RootChain(), "rand",
        np.random.default_rng(1),
    )


class TestRun:
    def test_appends_block_to_chain(self):
        final = make_final_committee(take_everything)
        chain = RootChain()
        result = run_final(final, make_submissions(10), chain)
        assert result is not None
        assert chain.height == 1
        assert chain.verify()
        assert result.permitted_txs <= 8_000
        assert result.final_pbft_latency > 0

    def test_permitted_shards_recorded_sorted(self):
        final = make_final_committee(take_everything)
        submissions = make_submissions(10)
        result = run_final(final, submissions)
        hashes = list(result.block.permitted_shards)
        assert hashes == sorted(hashes)
        assert len(hashes) == result.permitted_committees
        # Each hash is the permitted shard's (id, epoch, tx_count) preimage.
        permitted = np.array(result.instance.shard_ids)[result.permitted_mask]
        assert sorted(
            shard_block_hash(int(cid), 0, int(submissions.tx_counts[cid])) for cid in permitted
        ) == hashes
        assert result.permitted_txs == int(submissions.tx_counts[permitted].sum())

    def test_empty_submissions_yield_no_block(self):
        final = make_final_committee(take_everything)
        assert run_final(final, make_submissions(0)) is None

    def test_scheduler_overflow_rejected(self):
        final = make_final_committee(lambda inst: np.ones(inst.num_shards, dtype=bool),
                                     capacity=100)
        with pytest.raises(ValueError):
            run_final(final, make_submissions(10))

    def test_scheduler_bad_shape_rejected(self):
        final = make_final_committee(lambda inst: np.ones(2, dtype=bool))
        with pytest.raises(ValueError):
            run_final(final, make_submissions(10))


class TestTakeEverything:
    def test_prefers_arrival_order(self):
        final = make_final_committee(take_everything, capacity=3_000)
        result = run_final(final, make_submissions(10))
        instance, mask = result.instance, result.permitted_mask
        assert instance.weight(mask) <= instance.capacity
        if mask.any() and not mask.all():
            # An unselected shard faster than the slowest selected one was
            # too big for the room left when it arrived.
            slowest_selected = instance.latencies[mask].max()
            order = np.argsort(instance.latencies, kind="stable")
            room = instance.capacity
            for position in order:
                if mask[position]:
                    room -= instance.tx_counts[position]
                elif instance.latencies[position] < slowest_selected:
                    assert instance.tx_counts[position] > room
