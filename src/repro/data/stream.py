"""Continuous mempool feeder for the steady-state scheduling service.

The figure harness treats every epoch as an isolated draw; the ``mvcom
serve`` loop instead needs the setting the warm-started solver is built
for: a *persistent* committee population whose membership churns, whose
pending transactions accumulate when the scheduler refuses a committee,
and whose two-phase latencies carry over exactly as Fig. 3 prescribes
(``l_i - t_j`` for refused stragglers).  :class:`EpochStream` owns that
state — it replays the :mod:`repro.data.bitcoin` trace at a configurable
rate, applies churn/growth between epochs, and materialises one
:class:`~repro.core.problem.EpochInstance` per tick.

It is the one multi-epoch carry-over driver: the serve loop, the serve
storms and the Fig. 3 carry-over ablation all run on it.  Everything is
driven by named :class:`~repro.sim.rng.RandomStreams` (one fork per
epoch), so a stream is byte-reproducible from its config alone and the
serve-mode storm reproducers can replay a failing epoch sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import MVComConfig, build_instance, carry_over_latency
from repro.data.bitcoin import BitcoinBlock, BitcoinTraceConfig, generate_bitcoin_trace
from repro.data.latency import TwoPhaseLatencyModel
from repro.sim.rng import RandomStreams

__all__ = [
    "EpochStreamConfig",
    "EpochTick",
    "EpochStream",
    "FRESH_ID_BASE",
]

# Fresh committees minted by churn/growth start here so their ids can never
# collide with storm-generator JOIN ids (which count up from the instance's
# own id range).
FRESH_ID_BASE = 1_000_000


@dataclass(frozen=True)
class EpochStreamConfig:
    """Parameters of the continuous committee/transaction stream.

    Parameters
    ----------
    num_committees:
        Initial live population size.
    capacity:
        Fixed :math:`\\hat C`; ``None`` applies the paper's scaling rule
        :math:`\\hat C = 1000 \\cdot |I_j|` to the live count each epoch.
    rate:
        Trace blocks fed per live committee per epoch (the mempool
        pressure knob; the workload generator's ``blocks_per_committee``
        default is 1.3).
    churn:
        Fraction of the live population replaced by fresh committees at
        each epoch boundary.
    growth:
        Net committees added (or removed, if negative) per epoch on top
        of churn — drives a serve run across the ``engine="auto"``
        scalar-vs-batched split.
    carry_floor:
        Minimum carried latency for refused committees (Fig. 3 carry).
    """

    num_committees: int = 60
    capacity: Optional[int] = None
    alpha: float = 1.5
    n_min_fraction: float = 0.5
    n_max_fraction: float = 0.8
    seed: int = 0
    rate: float = 1.3
    churn: float = 0.1
    growth: int = 0
    carry_floor: float = 1.0
    trace: BitcoinTraceConfig = field(default_factory=BitcoinTraceConfig)

    def __post_init__(self) -> None:
        if self.num_committees <= 1:
            raise ValueError("num_committees must be > 1")
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError("capacity must be positive when fixed")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= self.churn < 1.0:
            raise ValueError("churn must be in [0, 1)")
        if self.carry_floor <= 0:
            raise ValueError("carry_floor must be positive")


@dataclass(frozen=True)
class EpochTick:
    """One epoch boundary's worth of stream evolution."""

    epoch: int
    instance: object  # EpochInstance
    joined: Tuple[int, ...]
    departed: Tuple[int, ...]
    drained: Tuple[int, ...]
    carried: Tuple[int, ...]
    blocks_fed: int
    txs_fed: int
    live: int


class _Committee:
    """Mutable per-committee stream state (pending mempool + latency)."""

    __slots__ = ("pending", "latency")

    def __init__(self, pending: int, latency: float) -> None:
        self.pending = pending
        self.latency = latency


class EpochStream:
    """Persistent committee population replaying the trace across epochs.

    Call :meth:`advance` once per epoch with the shard ids the scheduler
    permitted last epoch.  Permitted committees drain their mempool and
    redraw a fresh two-phase latency for their next block; refused ones
    keep accumulating transactions and carry ``l_i - t_j`` forward.
    """

    def __init__(self, config: EpochStreamConfig) -> None:
        self.config = config
        self.blocks: List[BitcoinBlock] = generate_bitcoin_trace(config.trace)
        self.latency_model = TwoPhaseLatencyModel()
        self._root = RandomStreams(config.seed)
        self._cursor = 0
        self._epoch = 0
        self._next_fresh = FRESH_ID_BASE
        self._prev_latencies: Dict[int, float] = {}
        boot = self._root.fork("bootstrap").get("latency")
        self.committees: Dict[int, _Committee] = {
            shard_id: _Committee(0, self._draw_latency(boot))
            for shard_id in range(config.num_committees)
        }

    # -------------------------------------------------------------- #
    def _draw_latency(self, rng: np.random.Generator) -> float:
        model = self.latency_model
        return model.sample_formation(rng) + model.sample_consensus(rng)

    def _mint(self, rng: np.random.Generator) -> int:
        shard_id = self._next_fresh
        self._next_fresh += 1
        self.committees[shard_id] = _Committee(0, self._draw_latency(rng))
        return shard_id

    def live_ids(self) -> List[int]:
        """Sorted ids of the live population (the determinism order)."""
        return sorted(self.committees)

    # -------------------------------------------------------------- #
    def advance(self, permitted_ids: Sequence[int] = ()) -> EpochTick:
        """Evolve one epoch boundary and build the next instance.

        ``permitted_ids`` are the shard ids the scheduler's final block
        included last epoch (empty for the first call).  Draw order is
        fixed (drain, churn, growth, feed) on sorted ids, so the whole
        stream is a pure function of its config.
        """
        config = self.config
        streams = self._root.fork(f"epoch-{self._epoch}")
        permitted = set(permitted_ids) & set(self.committees)

        # 1. Drain: permitted committees shipped their block; they start
        # the next epoch with an empty mempool and a fresh latency draw.
        drain_rng = streams.get("drain")
        prev_ddl = max(
            (self._prev_latencies[sid] for sid in permitted), default=None
        )
        for shard_id in sorted(permitted):
            committee = self.committees[shard_id]
            committee.pending = 0
            committee.latency = self._draw_latency(drain_rng)

        # 2. Carry: refused committees have been working all along (Fig. 3)
        # and re-enter with l_i - t_j, keeping their pending transactions.
        carried: List[int] = []
        if prev_ddl is not None:
            for shard_id in sorted(self._prev_latencies):
                if shard_id in permitted or shard_id not in self.committees:
                    continue
                committee = self.committees[shard_id]
                committee.latency = carry_over_latency(
                    committee.latency, prev_ddl, floor=config.carry_floor
                )
                carried.append(shard_id)

        # 3. Churn: replace a fraction of the population with fresh ids.
        churn_rng = streams.get("churn")
        joined: List[int] = []
        departed: List[int] = []
        victims = int(round(config.churn * len(self.committees)))
        if victims:
            live = self.live_ids()
            picks = churn_rng.choice(len(live), size=min(victims, len(live) - 2), replace=False)
            for index in sorted(int(p) for p in picks):
                shard_id = live[index]
                del self.committees[shard_id]
                departed.append(shard_id)
            for _ in range(len(departed)):
                joined.append(self._mint(churn_rng))

        # 4. Growth: net population drift (crosses the auto-engine split).
        growth_rng = streams.get("growth")
        if config.growth > 0:
            for _ in range(config.growth):
                joined.append(self._mint(growth_rng))
        elif config.growth < 0:
            live = self.live_ids()
            for shard_id in live[: min(-config.growth, len(live) - 2)]:
                del self.committees[shard_id]
                departed.append(shard_id)
        # Churn and shrinkage may have removed committees carried in step 2.
        carried = [shard_id for shard_id in carried if shard_id in self.committees]

        # 5. Feed: replay the trace at ``rate`` blocks per live committee,
        # assigning each block's transactions to one committee's mempool.
        feed_rng = streams.get("feed")
        live = self.live_ids()
        blocks_fed = max(1, int(round(config.rate * len(live))))
        txs_fed = 0
        for _ in range(blocks_fed):
            block = self.blocks[self._cursor % len(self.blocks)]
            self._cursor += 1
            target = live[int(feed_rng.integers(0, len(live)))]
            self.committees[target].pending += block.txs
            txs_fed += block.txs

        # 6. Materialise the epoch instance (paper scaling for Ĉ).
        capacity = config.capacity
        if capacity is None:
            capacity = 1000 * len(live)
        problem = MVComConfig(
            alpha=config.alpha,
            capacity=capacity,
            n_min_fraction=config.n_min_fraction,
            n_max_fraction=config.n_max_fraction,
        )
        shards = [
            _ShardView(shard_id, self.committees[shard_id].pending, self.committees[shard_id].latency)
            for shard_id in live
        ]
        instance = build_instance(shards, problem)
        self._prev_latencies = {
            shard_id: self.committees[shard_id].latency for shard_id in live
        }
        tick = EpochTick(
            epoch=self._epoch,
            instance=instance,
            joined=tuple(joined),
            departed=tuple(departed),
            drained=tuple(sorted(permitted)),
            carried=tuple(carried),
            blocks_fed=blocks_fed,
            txs_fed=txs_fed,
            live=len(live),
        )
        self._epoch += 1
        return tick


@dataclass(frozen=True)
class _ShardView:
    """Duck-typed shard record for :func:`build_instance`."""

    shard_id: int
    tx_count: int
    latency: float
