"""Shared fixtures: small deterministic instances and workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import EpochInstance, MVComConfig
from repro.data.workload import WorkloadConfig, generate_epoch_workload

from tests.serial_oracle import serial_race  # noqa: F401  (the oracle's fixture)


@pytest.fixture
def tiny_config() -> MVComConfig:
    """Capacity small enough that scheduling is non-trivial for 6 shards."""
    return MVComConfig(alpha=1.5, capacity=5_000, n_min_fraction=0.3)


@pytest.fixture
def tiny_instance(tiny_config) -> EpochInstance:
    """Six shards with hand-picked sizes/latencies; n_min = 2."""
    return EpochInstance(
        tx_counts=[1_000, 2_000, 1_500, 800, 2_500, 1_200],
        latencies=[600.0, 700.0, 650.0, 900.0, 500.0, 820.0],
        config=tiny_config,
    )


@pytest.fixture
def small_workload():
    """A 30-committee trace-driven workload (24 arrive under N_max=80%)."""
    return generate_epoch_workload(
        WorkloadConfig(num_committees=30, capacity=25_000, alpha=1.5, seed=1234)
    )


@pytest.fixture
def small_instance(small_workload) -> EpochInstance:
    return small_workload.instance


def random_instance(
    num_shards: int,
    seed: int,
    alpha: float = 1.5,
    capacity: int | None = None,
) -> EpochInstance:
    """Helper used by many test modules (importable from conftest)."""
    rng = np.random.default_rng(seed)
    tx_counts = rng.integers(200, 3_000, size=num_shards)
    # Banded latencies, like the post-N_max arrival window of real epochs
    # (no extreme exponential tail inflating every age).
    latencies = rng.gamma(4.0, 150.0, size=num_shards)
    if capacity is None:
        capacity = int(tx_counts.sum() * 0.6)
    config = MVComConfig(alpha=alpha, capacity=capacity)
    return EpochInstance(tx_counts=tx_counts, latencies=latencies, config=config)
