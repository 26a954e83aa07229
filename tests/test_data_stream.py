"""Tests for :class:`repro.data.stream.EpochStream`, the Fig. 3 carry-over driver.

A committee the final committee refuses in epoch j keeps its pending
transactions and re-enters epoch j+1 with latency ``max(l_i - t_j, floor)``,
where ``t_j`` is the slowest permitted committee's latency.  Permitted
committees drain their mempool and draw a fresh two-phase latency.
"""

import typing

import numpy as np
import pytest

from repro.baselines import GreedyDensityScheduler
from repro.data.stream import EpochStream, EpochStreamConfig, EpochTick
from repro.sim.rng import RandomStreams

# Ĉ binds (≈26k TXs fed per epoch against 16k), so greedy refuses some.
TIGHT = dict(num_committees=20, capacity=16_000, alpha=5.0, churn=0.0, seed=3)


def _run(config, epochs, carry=True):
    """Greedy-schedule ``epochs`` ticks; returns ``(ticks, masks, stream)``."""
    stream = EpochStream(config)
    scheduler = GreedyDensityScheduler()
    ticks, masks = [], []
    permitted = ()
    for _ in range(epochs):
        tick = stream.advance(permitted)
        mask = scheduler.solve(tick.instance).mask
        ticks.append(tick)
        masks.append(mask)
        permitted = _admitted(tick, mask) if carry else tick.instance.shard_ids
    return ticks, masks, stream


def _admitted(tick, mask):
    return [sid for sid, keep in zip(tick.instance.shard_ids, mask) if keep]


def _by_id(instance, values):
    return dict(zip(instance.shard_ids, values))


def _epoch_pairs(ticks, masks):
    """``(tick_j, mask_j, tick_j+1)`` for every consecutive pair."""
    return zip(ticks, masks, ticks[1:])


class TestCarryOver:
    def test_no_transaction_is_lost_without_churn(self):
        ticks, masks, stream = _run(EpochStreamConfig(**TIGHT), epochs=6)
        final = stream.advance(_admitted(ticks[-1], masks[-1]))
        confirmed = sum(tick.instance.weight(mask) for tick, mask in zip(ticks, masks))
        backlog = int(final.instance.tx_counts.sum()) - final.txs_fed
        assert backlog > 0
        assert confirmed + backlog == sum(tick.txs_fed for tick in ticks)

    def test_carried_latency_is_reduced(self):
        # Permit the faster half each epoch, so refused committees are
        # both slower than t_j (carry l - t_j) and faster (carry the floor).
        stream = EpochStream(EpochStreamConfig(**{**TIGHT, "carry_floor": 40.0}))
        tick = stream.advance()
        reduced = floored = 0
        for _ in range(5):
            latency = _by_id(tick.instance, tick.instance.latencies)
            permitted = sorted(latency, key=latency.get)[: len(latency) // 2]
            t_j = max(latency[sid] for sid in permitted)
            tick = stream.advance(permitted)
            assert set(tick.carried) == set(latency) - set(permitted)
            carried = _by_id(tick.instance, tick.instance.latencies)
            for sid in tick.carried:
                assert carried[sid] == max(latency[sid] - t_j, 40.0)
                reduced += carried[sid] > 40.0
                floored += carried[sid] == 40.0
        assert reduced > 0 and floored > 0

    def test_permitted_committees_drain_and_redraw_latency(self):
        config = EpochStreamConfig(**TIGHT)
        ticks, masks, stream = _run(config, epochs=5)
        model = stream.latency_model
        for prev, mask, tick in _epoch_pairs(ticks, masks):
            assert tick.drained == tuple(sorted(_admitted(prev, mask)))
            # Drained committees start from zero: the new instance holds
            # exactly the refused committees' TXs plus this epoch's feed.
            kept = int(prev.instance.tx_counts[~mask].sum())
            assert int(tick.instance.tx_counts.sum()) == kept + tick.txs_fed
            rng = RandomStreams(config.seed).fork(f"epoch-{tick.epoch}").get("drain")
            fresh = _by_id(tick.instance, tick.instance.latencies)
            for sid in tick.drained:
                redraw = model.sample_formation(rng) + model.sample_consensus(rng)
                assert fresh[sid] == redraw

    def test_refused_committees_keep_pending(self):
        ticks, masks, _ = _run(EpochStreamConfig(**TIGHT), epochs=5)
        kept = 0
        for prev, mask, tick in _epoch_pairs(ticks, masks):
            before = _by_id(prev.instance, prev.instance.tx_counts)
            after = _by_id(tick.instance, tick.instance.tx_counts)
            for sid in tick.carried:
                assert after[sid] >= before[sid]
                kept += before[sid]
        assert kept > 0

    def test_carried_shards_do_get_admitted(self):
        ticks, masks, _ = _run(EpochStreamConfig(**TIGHT), epochs=6)
        admitted = sum(
            len(set(tick.carried) & set(_admitted(tick, mask)))
            for tick, mask in zip(ticks, masks)
        )
        assert admitted > 0

    def test_drop_rule_carries_nothing(self):
        ticks, masks, _ = _run(EpochStreamConfig(**TIGHT), epochs=4, carry=False)
        for prev, mask, tick in _epoch_pairs(ticks, masks):
            assert tick.carried == ()
            assert int(tick.instance.tx_counts.sum()) == tick.txs_fed

    @pytest.mark.parametrize("churn, growth", [(0.15, 0), (0.0, -3), (0.15, -2)])
    def test_carried_lists_only_live_committees(self, churn, growth):
        config = EpochStreamConfig(num_committees=60, churn=churn, growth=growth, seed=0)
        ticks, masks, _ = _run(config, epochs=8)
        departed_carry = 0
        for prev, mask, tick in _epoch_pairs(ticks, masks):
            live = set(tick.instance.shard_ids)
            refused = set(prev.instance.shard_ids) - set(_admitted(prev, mask))
            assert set(tick.carried) == refused & live
            departed_carry += len(refused & set(tick.departed))
        # The boundary case is exercised: some refused committees departed.
        assert departed_carry > 0


class TestStreamContract:
    def test_same_config_gives_same_ticks(self):
        config = EpochStreamConfig(num_committees=30, churn=0.15, growth=1, seed=4)
        first, first_masks, _ = _run(config, epochs=5)
        second, second_masks, _ = _run(config, epochs=5)
        for a, b in zip(first, second):
            for name in ("epoch", "joined", "departed", "drained", "carried",
                         "blocks_fed", "txs_fed", "live"):
                assert getattr(a, name) == getattr(b, name)
            assert a.instance.shard_ids == b.instance.shard_ids
            assert np.array_equal(a.instance.tx_counts, b.instance.tx_counts)
            assert np.array_equal(a.instance.latencies, b.instance.latencies)
        for a, b in zip(first_masks, second_masks):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "field, value",
        [("churn", -0.1), ("churn", 1.0), ("rate", 0.0), ("rate", -1.3),
         ("carry_floor", 0.0), ("carry_floor", -1.0)],
    )
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            EpochStreamConfig(**{field: value})

    def test_type_hints_resolve(self):
        for target in (EpochStreamConfig, EpochTick, EpochStream.__init__,
                       EpochStream._draw_latency, EpochStream._mint, EpochStream.advance):
            typing.get_type_hints(target)
