"""Extension bench: chain-level effect of MVCom scheduling.

Not a figure from the paper -- this measures the paper's *motivating claim*
end-to-end: that a committee-scheduling strategy reduces the cumulative age
of packed transactions (and therefore helps the chain) compared with the
unscheduled Elastico final committee.  Both deployments run the full
5-stage protocol for several epochs (PBFT rounds through the round
router's batched kernel); only the stage-4 scheduler differs.
"""

import numpy as np

from repro.chain import ChainParams, ElasticoSimulation
from repro.chain.final import take_everything
from repro.chain.stats import ChainRunStats, compare_runs
from repro.core import MVComConfig, SEConfig, StochasticExploration
from repro.harness.report import render_table, write_csv

EPOCHS = 3
PARAMS = ChainParams(num_nodes=240, committee_size=8, seed=404)
# ~40% of the typical submitted volume: a contended final block.
MVCOM = MVComConfig(alpha=1.5, capacity=12_000)


def _se_scheduler(instance):
    result = StochasticExploration(
        SEConfig(num_threads=5, max_iterations=1_500, convergence_window=400, seed=11)
    ).solve(instance)
    return result.best_mask


def _run(scheduler) -> ChainRunStats:
    simulation = ElasticoSimulation(PARAMS, mvcom_config=MVCOM, scheduler=scheduler)
    run = ChainRunStats()
    for _ in range(EPOCHS):
        run.add(simulation.run_epoch())
    assert simulation.chain.verify()
    return run


def test_chain_level_scheduling_effect(benchmark):
    def compare():
        return _run(take_everything), _run(_se_scheduler)

    naive, scheduled = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = compare_runs([naive, scheduled], ["arrival-order", "MVCom-SE"])
    print()
    print(render_table(rows, title=f"Chain-level comparison over {EPOCHS} epochs"))
    write_csv("chain_throughput.csv", rows)

    # The scheduler packs fresher shards: lower mean shard age at
    # comparable (or better) confirmed-TX volume.
    assert scheduled.mean_age_s < naive.mean_age_s
    assert scheduled.total_txs >= 0.9 * naive.total_txs
    # Utility (what MVCom optimises) must strictly improve per epoch.
    assert scheduled.throughput_tps >= 0.9 * naive.throughput_tps
