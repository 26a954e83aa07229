#!/usr/bin/env python
"""End-to-end sharded-blockchain simulation: Elastico + MVCom scheduling.

Runs several full epochs of the 5-stage Elastico protocol -- PoW
committee election, overlay configuration, per-committee PBFT (the round
router's batched kernel), final consensus, randomness refresh -- twice: once with
the plain arrival-order final committee and once with the MVCom SE
scheduler plugged into stage 4.  Prints the root-chain throughput and
cumulative-age comparison.

Run:  python examples/full_chain_simulation.py
"""

import numpy as np

from repro.chain import ChainParams, ElasticoSimulation
from repro.chain.final import take_everything
from repro.core import MVComConfig, SEConfig, StochasticExploration
from repro.core.problem import EpochInstance

EPOCHS = 3


def se_scheduler(instance: EpochInstance) -> np.ndarray:
    """Adapter: run the SE algorithm and return its selection mask."""
    result = StochasticExploration(
        SEConfig(num_threads=5, max_iterations=1500, convergence_window=400, seed=13)
    ).solve(instance)
    return result.best_mask


def run_deployment(name: str, scheduler) -> dict:
    # capacity = ~40% of the typical submitted volume, so the final block is
    # genuinely contended and the scheduling choice matters.
    params = ChainParams(num_nodes=240, committee_size=8, seed=2021)
    mvcom = MVComConfig(alpha=1.5, capacity=12_000)
    simulation = ElasticoSimulation(params, mvcom_config=mvcom, scheduler=scheduler)
    utilities, ages, txs = [], [], []
    for _ in range(EPOCHS):
        outcome = simulation.run_epoch()
        if outcome.final is None:
            continue
        instance = outcome.final.instance
        mask = outcome.final.permitted_mask
        utilities.append(instance.utility(mask))
        ages.append(instance.cumulative_age(mask))
        txs.append(outcome.final.permitted_txs)
    assert simulation.chain.verify(), "root chain must verify"
    print(f"[{name}] root chain height={simulation.chain.height}, verified=True")
    return {
        "utility": float(np.mean(utilities)),
        "age": float(np.mean(ages)),
        "txs": float(np.mean(txs)),
    }


def main() -> None:
    print(f"Running {EPOCHS} Elastico epochs per deployment...\n")
    baseline = run_deployment("arrival-order", take_everything)
    scheduled = run_deployment("MVCom-SE", se_scheduler)

    print()
    print(f"{'metric (per epoch)':28s}{'arrival-order':>16s}{'MVCom-SE':>14s}")
    print(f"{'mean utility':28s}{baseline['utility']:>16,.0f}{scheduled['utility']:>14,.0f}")
    print(f"{'mean TXs in final block':28s}{baseline['txs']:>16,.0f}{scheduled['txs']:>14,.0f}")
    print(f"{'mean cumulative age (s)':28s}{baseline['age']:>16,.0f}{scheduled['age']:>14,.0f}")
    gain = 100.0 * (scheduled["utility"] - baseline["utility"]) / abs(baseline["utility"])
    print(f"\nMVCom scheduling changed per-epoch utility by {gain:+.1f}%.")


if __name__ == "__main__":
    main()
