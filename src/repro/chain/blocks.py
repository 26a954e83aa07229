"""Blocks and the root chain.

* :class:`ShardBlock` -- a member committee's agreed transaction set (its
  "shard") as a standalone record.  The epoch pipeline itself carries
  shards as crosslink arrays (:class:`repro.chain.final.CrosslinkAggregator`)
  and hashes them with :func:`shard_block_hash`, the same preimage.
* :class:`FinalBlock` -- the global block the final committee appends to
  the root chain after the final consensus, merging the *permitted* shards.
* :class:`RootChain` -- an append-only hash-linked chain with integrity
  verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


def _hash_payload(*parts: object) -> str:
    preimage = "|".join(str(part) for part in parts).encode("utf-8")
    return hashlib.sha256(preimage).hexdigest()


def shard_block_hash(committee_id: int, epoch: int, tx_count: int) -> str:
    """The content hash of a member committee's shard (latencies excluded)."""
    return _hash_payload("shard", committee_id, epoch, tx_count)


@dataclass(frozen=True)
class ShardBlock:
    """A member committee's agreed shard."""

    committee_id: int
    epoch: int
    tx_count: int
    formation_latency: float
    consensus_latency: float
    block_hash: str = ""

    def __post_init__(self) -> None:
        if self.tx_count < 0:
            raise ValueError("tx_count must be non-negative")
        if self.formation_latency < 0 or self.consensus_latency < 0:
            raise ValueError("latencies must be non-negative")
        if not self.block_hash:
            object.__setattr__(
                self, "block_hash", shard_block_hash(self.committee_id, self.epoch, self.tx_count)
            )

    @property
    def two_phase_latency(self) -> float:
        """The paper's :math:`l_i`: formation + intra-committee consensus."""
        return self.formation_latency + self.consensus_latency

    # The duck-typed protocol consumed by repro.core.build_instance:
    @property
    def shard_id(self) -> int:
        """Duck-typed id consumed by ``repro.core.build_instance``."""
        return self.committee_id

    @property
    def latency(self) -> float:
        """Duck-typed alias for :attr:`two_phase_latency`."""
        return self.two_phase_latency


@dataclass(frozen=True)
class FinalBlock:
    """A root-chain block assembled by the final committee."""

    epoch: int
    parent_hash: str
    permitted_shards: Tuple[str, ...]   # shard block hashes, sorted
    total_txs: int
    ddl: float
    randomness: str
    block_hash: str = ""

    def __post_init__(self) -> None:
        if self.total_txs < 0:
            raise ValueError("total_txs must be non-negative")
        expected = compute_final_hash(
            self.epoch, self.parent_hash, self.permitted_shards, self.total_txs, self.randomness
        )
        if not self.block_hash:
            object.__setattr__(self, "block_hash", expected)
        elif self.block_hash != expected:
            raise ValueError("block_hash does not match block contents")


def compute_final_hash(
    epoch: int,
    parent_hash: str,
    permitted_shards: Sequence[str],
    total_txs: int,
    randomness: str,
) -> str:
    """Deterministic content hash binding a final block's fields."""
    return _hash_payload("final", epoch, parent_hash, ",".join(permitted_shards), total_txs, randomness)


GENESIS_HASH = _hash_payload("genesis")


@dataclass
class RootChain:
    """Append-only chain of final blocks."""

    blocks: List[FinalBlock] = field(default_factory=list)

    @property
    def height(self) -> int:
        """Number of final blocks on the chain."""
        return len(self.blocks)

    @property
    def head_hash(self) -> str:
        """Hash the next block must extend (genesis when empty)."""
        return self.blocks[-1].block_hash if self.blocks else GENESIS_HASH

    @property
    def total_txs(self) -> int:
        """Transactions confirmed across all final blocks."""
        return sum(block.total_txs for block in self.blocks)

    def append(self, block: FinalBlock) -> None:
        """Append a block after checking parent link and epoch number."""
        if block.parent_hash != self.head_hash:
            raise ValueError(
                f"block parent {block.parent_hash[:12]} does not extend head {self.head_hash[:12]}"
            )
        if block.epoch != self.height:
            raise ValueError(f"expected epoch {self.height}, got {block.epoch}")
        self.blocks.append(block)

    def verify(self) -> bool:
        """Recheck every hash link and content hash."""
        parent = GENESIS_HASH
        for epoch, block in enumerate(self.blocks):
            if block.parent_hash != parent or block.epoch != epoch:
                return False
            expected = compute_final_hash(
                block.epoch, block.parent_hash, block.permitted_shards, block.total_txs, block.randomness
            )
            if block.block_hash != expected:
                return False
            parent = block.block_hash
        return True
