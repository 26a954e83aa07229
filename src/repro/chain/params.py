"""Protocol and network parameters for the Elastico substrate.

Calibration targets come straight from Section VI-A: the expected PoW
committee-formation latency is 600 s and the expected PBFT consensus
latency is 54.5 s.  The remaining knobs (message delays, identity
registration throughput) are set so the *measured* behaviour reproduces
Fig. 2's shape: formation latency dominates, grows roughly linearly with
the network size, and both latencies are randomly spread within a band.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkParams:
    """Point-to-point message latency model.

    Delays are lognormal: ``base_delay`` is the median one-way delay and
    ``jitter_sigma`` the lognormal sigma.  The defaults give a heavy-ish
    tail consistent with wide-area gossip.
    """

    base_delay: float = 2.0
    jitter_sigma: float = 0.6
    bandwidth_msgs_per_s: float = 500.0  # per-node send throughput cap
    #: independent per-message drop probability (failure injection)
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ValueError("base_delay must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if self.bandwidth_msgs_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must lie in [0, 1)")


@dataclass(frozen=True)
class ChainParams:
    """Elastico deployment parameters.

    Parameters
    ----------
    num_nodes:
        Network size (the x-axis of Fig. 2a).
    committee_size:
        Nodes per committee (Elastico uses c = 100; smaller values keep the
        DES fast while preserving the latency structure).
    pow_mean_solve_s:
        Expected single-committee PoW election latency (paper: 600 s).
    pbft_mean_total_s:
        Expected total PBFT latency across the three stages (paper: 54.5 s).
    identity_registration_rate:
        Identities the directory committee can register per second during
        overlay configuration.  Serial registration is what makes formation
        latency grow linearly with network size in Fig. 2a.
    byzantine_fraction:
        Fraction of Byzantine nodes (must stay < 1/3 for PBFT liveness).
    chain_engine:
        Accepted only as ``"fastpath"`` and read by nothing: every PBFT
        round goes through :func:`repro.chain.committee.run_pbft_rounds`.
    max_batch_bytes:
        Scratch-byte budget for the chunked fastpath kernels (PBFT batch
        and formation).  Each batched kernel call splits its committee or
        node stack into chunks whose live scratch stays under this budget;
        the chunked result is byte-identical to the unchunked one at any
        budget (see :mod:`repro.chain.fastpath`).  The 256 MiB default
        keeps a full eth2-scale epoch (1024 shards x 128 members) in
        bounded memory.
    """

    num_nodes: int = 400
    committee_size: int = 16
    pow_mean_solve_s: float = 600.0
    pbft_mean_total_s: float = 54.5
    identity_registration_rate: float = 0.5
    byzantine_fraction: float = 0.1
    network: NetworkParams = NetworkParams()
    seed: int = 0
    chain_engine: str = "fastpath"  # perfbench/workloads.py still passes it
    max_batch_bytes: int = 268_435_456  # 256 MiB

    def __post_init__(self) -> None:
        if self.chain_engine != "fastpath":
            raise ValueError(
                f"unknown chain_engine {self.chain_engine!r}: PBFT rounds run "
                "only through the round router ('fastpath'); the all-DES "
                "path is the test oracle in tests/pbft_oracle.py"
            )
        if self.num_nodes < self.committee_size:
            raise ValueError("need at least one committee's worth of nodes")
        if self.committee_size < 4:
            raise ValueError("PBFT needs committee_size >= 4 (3f+1 with f >= 1)")
        if not 0 <= self.byzantine_fraction < 1 / 3:
            raise ValueError("byzantine_fraction must lie in [0, 1/3) for PBFT safety")
        if self.pow_mean_solve_s <= 0 or self.pbft_mean_total_s <= 0:
            raise ValueError("latency expectations must be positive")
        if self.identity_registration_rate <= 0:
            raise ValueError("identity_registration_rate must be positive")
        if self.max_batch_bytes <= 0:
            raise ValueError("max_batch_bytes must be positive")

    @property
    def num_committees(self) -> int:
        """Member committees formed per epoch (one group is the final committee)."""
        return self.num_nodes // self.committee_size

    @property
    def max_byzantine_per_committee(self) -> int:
        """The f tolerated by a 3f+1 committee."""
        return (self.committee_size - 1) // 3
