"""Scaling / performance-regression benches.

These are the only benches that measure *runtime* rather than regenerating
a figure: the SE race at paper scale and the full-epoch protocol must stay
laptop-fast, or the figure suite becomes unusable.  Bounds are deliberately
generous (5-10x typical) so they only trip on genuine regressions.
"""

import time

from repro.chain import ChainParams, ElasticoSimulation
from repro.core.problem import MVComConfig
from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload


def test_se_race_throughput_at_paper_scale(benchmark):
    """2,000 race rounds at |I_j|=400 arrived (the Fig. 8 instance)."""
    workload = generate_epoch_workload(
        WorkloadConfig(num_committees=500, capacity=500_000, seed=3)
    )
    config = SEConfig(num_threads=5, max_iterations=2_000, convergence_window=2_000, seed=1)

    def run():
        return StochasticExploration(config).solve(workload.instance)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.iterations == 2_000
    stats = benchmark.stats.stats
    # Typical: ~1.5 s. Regression guard at 15 s.
    assert stats.max < 15.0, f"SE race too slow: {stats.max:.1f}s for 2000 rounds"


def test_epoch_protocol_runtime(benchmark):
    """One full 5-stage epoch at 400 nodes (PBFT rounds through the round router)."""
    def run():
        simulation = ElasticoSimulation(
            ChainParams(num_nodes=400, committee_size=8, seed=9),
            mvcom_config=MVComConfig(alpha=1.5, capacity=40_000),
        )
        return simulation.run_epoch()

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome.final is not None
    stats = benchmark.stats.stats
    # Typical: ~0.3 s. Regression guard at 10 s.
    assert stats.max < 10.0, f"epoch too slow: {stats.max:.1f}s"


def test_workload_generation_runtime(benchmark):
    """Trace + shards + instance for 1000 committees."""
    def run():
        return generate_epoch_workload(
            WorkloadConfig(num_committees=1_000, capacity=1_000_000, seed=4)
        )

    workload = benchmark.pedantic(run, rounds=1, iterations=1)
    assert workload.instance.num_shards == 800
    stats = benchmark.stats.stats
    assert stats.max < 5.0, f"workload generation too slow: {stats.max:.1f}s"
