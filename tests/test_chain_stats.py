"""Tests for chain-level statistics."""

import pytest

from repro.chain.elastico import ElasticoSimulation
from repro.chain.params import ChainParams
from repro.chain.stats import ChainRunStats, compare_runs, epoch_stats
from repro.core.problem import MVComConfig

PARAMS = ChainParams(num_nodes=120, committee_size=8, seed=31)


@pytest.fixture(scope="module")
def outcome():
    simulation = ElasticoSimulation(PARAMS, mvcom_config=MVComConfig(alpha=1.5, capacity=12_000))
    return simulation.run_epoch()


class TestEpochStats:
    def test_extraction(self, outcome):
        stats = epoch_stats(outcome)
        assert stats is not None
        assert stats.confirmed_txs == outcome.final.permitted_txs
        assert stats.epoch_duration_s > 0
        assert stats.shards_submitted == outcome.shards_submitted
        assert stats.shards_submitted == len(outcome.consensus_latencies)
        assert stats.shards_permitted <= stats.shards_submitted

    def test_throughput_definition(self, outcome):
        stats = epoch_stats(outcome)
        assert stats.throughput_tps == pytest.approx(
            stats.confirmed_txs / stats.epoch_duration_s
        )

    def test_mean_age(self, outcome):
        stats = epoch_stats(outcome)
        assert stats.mean_age_s >= 0
        assert stats.mean_age_s == pytest.approx(
            stats.cumulative_age_s / stats.shards_permitted
        )


class TestRunStats:
    def test_accumulates_epochs(self):
        simulation = ElasticoSimulation(PARAMS, mvcom_config=MVComConfig(alpha=1.5, capacity=12_000))
        run = ChainRunStats()
        for _ in range(2):
            run.add(simulation.run_epoch())
        assert len(run.epochs) == 2
        assert run.total_txs == sum(stats.confirmed_txs for stats in run.epochs)
        summary = run.summary()
        assert summary["epochs"] == 2
        assert summary["throughput_tps"] > 0

    def test_empty_run_summary(self):
        run = ChainRunStats()
        assert run.throughput_tps == 0.0
        assert run.mean_age_s == 0.0
        assert run.summary()["epochs"] == 0

    def test_compare_runs_labels(self, outcome):
        run = ChainRunStats()
        run.add(outcome)
        rows = compare_runs([run], ["se"])
        assert rows[0]["policy"] == "se"
        with pytest.raises(ValueError):
            compare_runs([run], ["a", "b"])
