"""Stage 4: final consensus, where the MVCom scheduler plugs in.

The final committee sees each shard a member committee submits only as
its committee id, ``s_i`` and two-phase ``l_i``, held in a
:class:`CrosslinkAggregator`.  It stops listening at the :math:`N_{max}`
fraction (Alg. 1 line 29), asks a *scheduler* which shards to permit, and
then runs its own PBFT round -- through the same router as the member
committees, :func:`repro.chain.committee.run_pbft_rounds` -- to seal the
final block.  The scheduler is
pluggable: the paper's SE algorithm, any baseline, or the trivial "take
everything" policy (the Elastico default MVCom improves upon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analysis.contracts import sane_instance
from repro.chain.blocks import FinalBlock, RootChain, shard_block_hash
from repro.chain.committee import Committee, run_pbft_rounds
from repro.chain.params import ChainParams
from repro.core.problem import EpochInstance, MVComConfig
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry

#: A scheduler maps an epoch instance to a boolean selection mask.
SchedulerFn = Callable[[EpochInstance], np.ndarray]


def take_everything(instance: EpochInstance) -> np.ndarray:
    """The unscheduled Elastico behaviour: permit every arrived shard that fits.

    Shards are admitted in arrival (latency) order until the capacity is
    exhausted -- exactly what a scheduler-less final committee would do.
    """
    order = np.argsort(instance.latencies, kind="stable")
    mask = np.zeros(instance.num_shards, dtype=bool)
    weight = 0
    for position in order:
        tx = int(instance.tx_counts[position])
        if weight + tx <= instance.capacity:
            mask[position] = True
            weight += tx
    return mask


class CrosslinkAggregator:
    """The final committee's view of the submitted shards.

    The scheduler needs three features per shard: committee id, ``s_i``
    and the two-phase ``l_i``.  Stage 3
    (:func:`repro.chain.committee.run_intra_consensus_streaming`) folds
    them in as flat arrays with :meth:`extend`, and
    :meth:`FinalCommittee.run_streaming` schedules straight off them, so
    no per-shard Python object exists at any scale.
    """

    def __init__(self) -> None:
        self.ids = np.empty(0, dtype=np.int64)
        self.tx_counts = np.empty(0, dtype=np.int64)
        self.latencies = np.empty(0, dtype=np.float64)

    def extend(
        self,
        ids: np.ndarray,
        tx_counts: np.ndarray,
        latencies: np.ndarray,
    ) -> None:
        """Fold in a batch of submitted shards (arrival order = submission order)."""
        if not (len(tx_counts) == len(ids) and len(latencies) == len(ids)):
            raise ValueError("ids, tx_counts and latencies must have equal length")
        self.ids = np.concatenate([self.ids, np.asarray(ids, dtype=np.int64)])
        self.tx_counts = np.concatenate([self.tx_counts, np.asarray(tx_counts, dtype=np.int64)])
        self.latencies = np.concatenate(
            [self.latencies, np.asarray(latencies, dtype=np.float64)]
        )

    @property
    def count(self) -> int:
        """Number of shards folded in so far."""
        return len(self.ids)

    def arrival_positions(self, n_max_fraction: float) -> np.ndarray:
        """Positions kept by the N_max listening cutoff, fastest-first.

        The sort is stable, so equal latencies keep submission order.
        """
        count = max(1, int(np.floor(n_max_fraction * self.count)))
        return np.argsort(self.latencies, kind="stable")[:count]


@sane_instance
def _instance_from_arrays(
    tx_counts: np.ndarray,
    latencies: np.ndarray,
    shard_ids: np.ndarray,
    config: MVComConfig,
) -> EpochInstance:
    """Array-native :func:`repro.core.problem.build_instance` equivalent.

    Same ``REPRO_CONTRACTS`` validation, no per-shard object hop: the
    aggregator's arrays become the instance's arrays directly.
    """
    return EpochInstance(
        tx_counts=tx_counts,
        latencies=latencies,
        config=config,
        shard_ids=shard_ids,
    )


@dataclass
class FinalConsensusResult:
    """Everything stage 4 produced for one epoch."""

    block: FinalBlock
    instance: EpochInstance
    permitted_mask: np.ndarray
    ddl: float
    final_pbft_latency: float
    permitted_txs: int
    permitted_committees: int


class FinalCommittee:
    """The epoch's leader committee (C5 in Fig. 1)."""

    def __init__(
        self,
        committee: Committee,
        params: ChainParams,
        mvcom_config: MVComConfig,
        scheduler: SchedulerFn,
    ) -> None:
        self.committee = committee
        self.params = params
        self.mvcom_config = mvcom_config
        self.scheduler = scheduler

    def run_streaming(
        self,
        aggregator: CrosslinkAggregator,
        chain: RootChain,
        randomness: str,
        rng: np.random.Generator,
        telemetry: NullTelemetry = NULL_TELEMETRY,
    ) -> Optional[FinalConsensusResult]:
        """Execute stage 4: schedule shards, run final PBFT, append the block.

        The N_max cutoff keeps the fastest arrivals, the instance is built
        from the aggregator's arrays directly, and each permitted shard's
        hash is :func:`repro.chain.blocks.shard_block_hash` of its
        ``(id, epoch, tx_count)``.
        """
        if aggregator.count == 0:
            return None
        keep = aggregator.arrival_positions(self.mvcom_config.n_max_fraction)
        tx_counts = aggregator.tx_counts[keep]
        shard_ids = aggregator.ids[keep]
        instance = _instance_from_arrays(
            tx_counts, aggregator.latencies[keep], shard_ids, self.mvcom_config
        )
        epoch = self.committee.epoch
        arrived_count = len(keep)

        mask = np.asarray(self.scheduler(instance), dtype=bool)
        if mask.shape != (instance.num_shards,):
            raise ValueError("scheduler returned a mask of the wrong length")
        if not instance.is_capacity_feasible(mask):
            raise ValueError("scheduler violated the final-block capacity")

        (outcome,) = run_pbft_rounds(
            [self.committee], [f"epoch{epoch}-final"], self.params, rng, telemetry=telemetry
        )
        if not outcome.committed:
            if telemetry.enabled:
                telemetry.event("chain.final.stalled", epoch=epoch, arrived=arrived_count)
            return None

        picked = np.flatnonzero(mask)
        block = FinalBlock(
            epoch=chain.height,
            parent_hash=chain.head_hash,
            permitted_shards=tuple(
                sorted(
                    shard_block_hash(int(shard_ids[i]), epoch, int(tx_counts[i]))
                    for i in picked
                )
            ),
            total_txs=int(tx_counts[picked].sum()),
            ddl=instance.ddl,
            randomness=randomness,
        )
        chain.append(block)
        if telemetry.enabled:
            # The mempool-age view of the commit: every permitted shard's
            # TXs waited ddl - latency seconds (Fig. 3's cumulative age).
            telemetry.record_span("chain.final.arrival_window", 0.0, instance.ddl,
                                  epoch=epoch, arrived=arrived_count)
            # Tagged per epoch so the metrics aggregator keys an age-percentile
            # series per final-consensus round (SLO: p99 age vs the paper's
            # cumulative-age objective) alongside the cross-epoch aggregate.
            for age in instance.ages[mask]:
                telemetry.observe("chain.mempool.age_s", float(age), epoch=epoch)
            telemetry.event(
                "chain.final.commit",
                epoch=epoch,
                permitted=int(mask.sum()),
                arrived=arrived_count,
                txs=block.total_txs,
                ddl=instance.ddl,
                pbft_latency=outcome.latency,
            )
        return FinalConsensusResult(
            block=block,
            instance=instance,
            permitted_mask=mask,
            ddl=instance.ddl,
            final_pbft_latency=outcome.latency,
            permitted_txs=block.total_txs,
            permitted_committees=int(mask.sum()),
        )
