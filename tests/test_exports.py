"""Public-API surface tests: everything in __all__ exists and imports."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.chain",
    "repro.data",
    "repro.core",
    "repro.baselines",
    "repro.metrics",
    "repro.harness",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} has no __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_top_level_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_no_accidental_circular_imports():
    """Import every submodule fresh in one process."""
    submodules = [
        "repro.sim.engine", "repro.sim.rng",
        "repro.chain.params", "repro.chain.network", "repro.chain.gossip",
        "repro.chain.node", "repro.chain.pow", "repro.chain.overlay",
        "repro.chain.pbft", "repro.chain.committee", "repro.chain.blocks",
        "repro.chain.randomness", "repro.chain.final", "repro.chain.elastico",
        "repro.chain.measurement", "repro.chain.stats", "repro.chain.mempool",
        "repro.data.bitcoin", "repro.data.loader", "repro.data.latency",
        "repro.data.shards", "repro.data.workload",
        "repro.core.problem", "repro.core.solution", "repro.core.logsumexp",
        "repro.core.markov", "repro.core.spectral", "repro.core.timers",
        "repro.core.se", "repro.core.engine", "repro.core.dynamics",
        "repro.core.failure", "repro.core.exact", "repro.core.bounds",
        "repro.core.convergence", "repro.core.ddl",
        "repro.baselines.base", "repro.baselines.annealing",
        "repro.baselines.knapsack_dp", "repro.baselines.whale",
        "repro.baselines.greedy", "repro.baselines.random_search",
        "repro.metrics.valuable_degree", "repro.metrics.summary",
        "repro.metrics.traces", "repro.metrics.fairness",
        "repro.harness.presets", "repro.harness.experiments",
        "repro.harness.report", "repro.harness.sweeps",
        "repro.harness.textplot", "repro.harness.artifacts",
        "repro.harness.cli",
    ]
    for name in submodules:
        importlib.import_module(name)
