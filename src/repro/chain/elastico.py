"""The 5-stage Elastico epoch orchestrator (Section I).

One :meth:`ElasticoSimulation.run_epoch` call executes:

1. **Committee formation** -- the PoW election race;
2. **Overlay configuration** -- serial identity registration + membership
   gossip; formation latency = committee-fill time + overlay time, which
   is what Fig. 2 measures.  Stages 1-2 run as one vectorized kernel
   (:func:`repro.chain.fastpath.formation_kernel`);
3. **Intra-committee consensus** -- a PBFT round per committee
   (:func:`repro.chain.committee.run_intra_consensus_streaming`, through
   the round router :func:`repro.chain.committee.run_pbft_rounds`: the
   batched kernel of :mod:`repro.chain.fastpath`, plus fallbacks replayed
   on the DES of :mod:`repro.chain.pbft`); each submitted
   shard folds into a :class:`repro.chain.final.CrosslinkAggregator` as
   its committee id, ``s_i`` and two-phase ``l_i``;
4. **Final consensus** -- the final committee cuts the arrivals at
   ``N_max``, schedules them (MVCom or a baseline) straight off those
   arrays and seals the final block (:mod:`repro.chain.final`);
5. **Epoch randomness refreshing** -- commit-reveal seed for the next epoch
   (:mod:`repro.chain.randomness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.chain.blocks import RootChain
from repro.chain.committee import (
    CommitteeArrays,
    assign_shard_workload,
    run_intra_consensus_streaming,
)
from repro.chain.fastpath import committee_hash_suffixes, formation_kernel
from repro.chain.final import (
    CrosslinkAggregator,
    FinalCommittee,
    FinalConsensusResult,
    SchedulerFn,
    take_everything,
)
from repro.chain.node import NodeTable, spawn_nodes
from repro.chain.params import ChainParams
from repro.chain.randomness import GENESIS_RANDOMNESS, refresh_randomness
from repro.core.problem import MVComConfig
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import RandomStreams, isolated_streams


@dataclass
class EpochOutcome:
    """Everything one epoch produced.

    Submitted shards exist only as the final committee's crosslink arrays
    (``final.instance`` holds the ones that arrived inside the N_max
    window); ``shards_submitted`` counts them all.  ``committees`` keeps
    every formed committee as arrays (indexing it builds a
    :class:`repro.chain.committee.Committee`), and the latency dicts read
    each committee's two-phase components off them for Fig. 2-style
    measurement.
    """

    epoch: int
    committees: CommitteeArrays
    shards_submitted: int
    final: Optional[FinalConsensusResult]
    randomness: str

    @property
    def formation_latencies(self) -> Dict[int, float]:
        """Committee id -> formation latency, for every formed committee."""
        committees = self.committees
        return dict(zip(committees.ids.tolist(), committees.formation_latency.tolist()))

    @property
    def consensus_latencies(self) -> Dict[int, float]:
        """Committee id -> consensus latency, for every committee that committed."""
        committees = self.committees
        committed = ~np.isnan(committees.consensus_latency)
        return dict(
            zip(
                committees.ids[committed].tolist(),
                committees.consensus_latency[committed].tolist(),
            )
        )


class ElasticoSimulation:
    """A multi-epoch Elastico deployment with a pluggable final-committee scheduler."""

    def __init__(
        self,
        params: ChainParams,
        mvcom_config: Optional[MVComConfig] = None,
        scheduler: Optional[SchedulerFn] = None,
        telemetry: NullTelemetry = NULL_TELEMETRY,
    ) -> None:
        self.params = params
        #: Injected hub (rule MV007), threaded into every PBFT round and the
        #: final-consensus stage; each epoch also emits one ``chain.epoch``.
        self.telemetry = telemetry
        self.mvcom_config = mvcom_config or MVComConfig(capacity=1000 * max(params.num_committees, 1))
        self.scheduler = scheduler or take_everything
        self.streams = RandomStreams(params.seed)
        self.nodes: NodeTable = spawn_nodes(
            count=params.num_nodes,
            byzantine_fraction=params.byzantine_fraction,
            rng=self.streams.get("nodes"),
        )
        self.chain = RootChain()
        self.randomness = GENESIS_RANDOMNESS
        self.epoch = 0
        # Formation's per-node inputs, fixed across epochs (nodes never
        # churn or change inside one ElasticoSimulation); every epoch's
        # committees index the table's honesty and speed arrays.
        self._solve_scales = params.pow_mean_solve_s / self.nodes.hash_power
        self._hash_suffixes = committee_hash_suffixes(range(params.num_nodes))

    # ------------------------------------------------------------------ #
    def form_committees(self, rng: np.random.Generator) -> CommitteeArrays:
        """Stages 1-2: PoW election + overlay configuration.

        The vectorized formation kernel draws the RNG stream exactly as
        the scalar reference PoW election and overlay loops do and forms
        byte-identical committees.  Its
        ``(K, c)`` member matrix indexes the node table's arrays directly,
        so no per-committee member list is built; ``len`` of the result
        is the number of committees formed.
        """
        params = self.params
        formed = formation_kernel(
            solve_scales=self._solve_scales,
            num_committees=params.num_committees,
            committee_size=params.committee_size,
            epoch_randomness=self.randomness,
            registration_rate=params.identity_registration_rate,
            rng=rng,
            max_batch_bytes=params.max_batch_bytes,
            hash_suffixes=self._hash_suffixes,
        )
        return CommitteeArrays(
            epoch=self.epoch,
            ids=formed.ids,
            members=formed.members,
            nodes=self.nodes,
            honest=self.nodes.honest,
            verify_speed=self.nodes.verify_speed,
            formation_latency=np.maximum(formed.fills, formed.overlay),
        )

    @isolated_streams
    def run_epoch(
        self,
        shard_tx_counts: Optional[Sequence[int]] = None,
        mempool=None,
    ) -> EpochOutcome:
        """Execute all five stages once and advance the chain.

        When a :class:`repro.chain.mempool.Mempool` is supplied, shard
        workloads come from Elastico's hash-prefix TX partition and the
        transactions packed into the final block are removed from the pool;
        otherwise ``shard_tx_counts`` (or a synthetic default) is used.
        """
        rng = self.streams.fork(f"epoch-{self.epoch}").get("epoch")
        committees = self.form_committees(rng)
        if not committees:
            raise RuntimeError("no committee filled this epoch; raise num_nodes or lower committee_size")

        shard_assignment = None
        if mempool is not None:
            from repro.chain.mempool import assign_to_committees

            shard_assignment = assign_to_committees(mempool, self.params.num_committees)
            shard_tx_counts = [len(shard_assignment[cid]) for cid in committees.ids.tolist()]
        elif shard_tx_counts is None:
            # Default synthetic workload: ~1.3 blocks of ~1088 TXs per committee.
            shard_tx_counts = rng.poisson(1400, size=len(committees))
        assign_shard_workload(committees, shard_tx_counts)

        # Stage 3: every member committee (all but the final one) runs PBFT
        # and its submission folds into the crosslink arrays.
        member_committees = committees[:-1] if len(committees) > 1 else committees
        final_seat = committees[-1]
        aggregator = CrosslinkAggregator()
        submitted = run_intra_consensus_streaming(
            member_committees, self.params, rng, aggregator, telemetry=self.telemetry
        )

        # Stage 4: final consensus with the configured scheduler.
        final_committee = FinalCommittee(
            committee=final_seat,
            params=self.params,
            mvcom_config=self.mvcom_config,
            scheduler=self.scheduler,
        )
        final_result = (
            final_committee.run_streaming(
                aggregator, self.chain, self.randomness, rng, telemetry=self.telemetry
            )
            if submitted
            else None
        )

        # Commit: permitted shards' transactions leave the mempool (the
        # final committee first re-checks cross-shard disjointness).
        if mempool is not None and final_result is not None and shard_assignment is not None:
            from repro.chain.mempool import verify_disjoint

            permitted_shards = [
                shard_assignment[final_result.instance.shard_ids[i]]
                for i in np.flatnonzero(final_result.permitted_mask)
            ]
            offender = verify_disjoint(permitted_shards)
            if offender is not None:
                raise RuntimeError(f"double-committed transaction {offender}")
            for shard in permitted_shards:
                mempool.remove_committed(shard)

        # Stage 5: refresh the epoch randomness.
        self.randomness = refresh_randomness(
            epoch=self.epoch,
            member_ids=committees.members[-1].tolist(),
            rng=rng,
        )

        outcome = EpochOutcome(
            epoch=self.epoch,
            committees=committees,
            shards_submitted=submitted,
            final=final_result,
            randomness=self.randomness,
        )
        if self.telemetry.enabled:
            self.telemetry.event(
                "chain.epoch",
                epoch=outcome.epoch,
                committees=len(committees),
                shards_submitted=submitted,
                shards_permitted=(
                    int(final_result.permitted_mask.sum()) if final_result is not None else 0
                ),
                committed=final_result is not None,
            )
        self.epoch += 1
        return outcome

    #: The former name of the array-native epoch: ``perfbench/`` calls it and
    #: wraps the stage-3/4 globals it looks up, so it stays until the
    #: benchmark switches to :meth:`run_epoch`.
    run_epoch_streaming = run_epoch
