"""Elastico-style sharded-blockchain substrate.

The paper motivates MVCom by *measuring* an Elastico [2] deployment's
two-phase latency (Fig. 2).  This subpackage implements that substrate on
the discrete-event engine: PoW-based committee formation, overlay
configuration, PBFT intra-committee consensus, final consensus with a
pluggable committee scheduler, and epoch-randomness refreshing -- the five
stages of Section I.

The layer boundaries match the paper's:

* :mod:`repro.chain.pow`        -- stage 1, committee formation;
* :mod:`repro.chain.overlay`    -- stage 2, overlay configuration;
* :mod:`repro.chain.pbft`       -- stage 3, intra-committee consensus;
* :mod:`repro.chain.committee`  -- committees (as arrays) and the one PBFT round router;
* :mod:`repro.chain.fastpath`   -- the formation and PBFT kernels;
* :mod:`repro.chain.final`      -- stage 4, final consensus (where MVCom plugs in);
* :mod:`repro.chain.randomness` -- stage 5, epoch randomness;
* :mod:`repro.chain.elastico`   -- the epoch orchestrator tying them together;
* :mod:`repro.chain.measurement`-- the Fig. 2 measurement campaign.
"""

from repro.chain.params import ChainParams, NetworkParams
from repro.chain.network import Network
from repro.chain.node import Node, spawn_nodes
from repro.chain.committee import Committee, CommitteeArrays
from repro.chain.blocks import FinalBlock, RootChain, ShardBlock
from repro.chain.elastico import ElasticoSimulation, EpochOutcome
from repro.chain.measurement import TwoPhaseMeasurement, measure_two_phase_latency
from repro.chain.stats import ChainRunStats, EpochStats, epoch_stats
from repro.chain.mempool import Mempool, Transaction, assign_to_committees

__all__ = [
    "ChainParams",
    "NetworkParams",
    "Network",
    "Node",
    "spawn_nodes",
    "Committee",
    "CommitteeArrays",
    "ShardBlock",
    "FinalBlock",
    "RootChain",
    "ElasticoSimulation",
    "EpochOutcome",
    "TwoPhaseMeasurement",
    "measure_two_phase_latency",
    "ChainRunStats",
    "EpochStats",
    "epoch_stats",
    "Mempool",
    "Transaction",
    "assign_to_committees",
]
