"""Chain-level performance statistics.

The paper's motivation is end-to-end: "the blockchain throughput can be
significantly degraded because of the large transaction's cumulative age".
This module measures that chain-level view over multi-epoch runs of the
Elastico substrate -- effective TX throughput per unit of protocol time,
age distributions of confirmed TXs, and per-epoch breakdowns -- so
scheduler policies can be compared on what the root chain actually
delivers, not just the per-epoch utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.chain.elastico import EpochOutcome


@dataclass(frozen=True)
class EpochStats:
    """One epoch's chain-level accounting."""

    epoch: int
    confirmed_txs: int
    epoch_duration_s: float       # DDL + final-consensus latency
    cumulative_age_s: float       # total waiting of confirmed TXs' shards
    committees_formed: int
    shards_submitted: int
    shards_permitted: int

    @property
    def throughput_tps(self) -> float:
        """Confirmed transactions per second of protocol time."""
        return self.confirmed_txs / self.epoch_duration_s if self.epoch_duration_s > 0 else 0.0

    @property
    def mean_age_s(self) -> float:
        """Average cumulative age per permitted shard."""
        return self.cumulative_age_s / self.shards_permitted if self.shards_permitted else 0.0


def epoch_stats(outcome: EpochOutcome) -> Optional[EpochStats]:
    """Extract chain-level stats from one epoch outcome (None if no block)."""
    if outcome.final is None:
        return None
    final = outcome.final
    duration = final.ddl + final.final_pbft_latency
    return EpochStats(
        epoch=outcome.epoch,
        confirmed_txs=final.permitted_txs,
        epoch_duration_s=duration,
        cumulative_age_s=final.instance.cumulative_age(final.permitted_mask),
        committees_formed=len(outcome.committees),
        shards_submitted=outcome.shards_submitted,
        shards_permitted=final.permitted_committees,
    )


@dataclass
class ChainRunStats:
    """Aggregated statistics across a multi-epoch run."""

    epochs: List[EpochStats] = field(default_factory=list)

    def add(self, outcome: EpochOutcome) -> Optional[EpochStats]:
        """Fold one epoch outcome into the running statistics."""
        stats = epoch_stats(outcome)
        if stats is not None:
            self.epochs.append(stats)
        return stats

    @property
    def total_txs(self) -> int:
        """Transactions confirmed across the recorded epochs."""
        return sum(stats.confirmed_txs for stats in self.epochs)

    @property
    def total_duration_s(self) -> float:
        """Summed per-epoch protocol durations."""
        return sum(stats.epoch_duration_s for stats in self.epochs)

    @property
    def throughput_tps(self) -> float:
        """Confirmed TXs per second of protocol time, run-wide."""
        return self.total_txs / self.total_duration_s if self.total_duration_s > 0 else 0.0

    @property
    def mean_age_s(self) -> float:
        """Average cumulative age per permitted shard."""
        permitted = sum(stats.shards_permitted for stats in self.epochs)
        if permitted == 0:
            return 0.0
        return sum(stats.cumulative_age_s for stats in self.epochs) / permitted

    def summary(self) -> dict:
        """One-row dict for the reporting layer."""
        return {
            "epochs": len(self.epochs),
            "total_txs": self.total_txs,
            "throughput_tps": round(self.throughput_tps, 3),
            "mean_shard_age_s": round(self.mean_age_s, 2),
            "mean_epoch_duration_s": round(
                self.total_duration_s / len(self.epochs), 2
            ) if self.epochs else 0.0,
        }


def compare_runs(runs: Sequence[ChainRunStats], labels: Sequence[str]) -> List[dict]:
    """Side-by-side rows for the reporting layer."""
    if len(runs) != len(labels):
        raise ValueError("one label per run")
    return [dict(policy=label, **run.summary()) for label, run in zip(labels, runs)]
