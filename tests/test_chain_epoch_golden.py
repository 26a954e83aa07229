"""Golden pins for whole Elastico epochs under both chain engines.

``ElasticoSimulation.run_epoch`` is the one epoch body: stage 3 folds
every committing committee into a ``CrosslinkAggregator`` and stage 4
schedules straight off its arrays, whatever the engine.  Six epoch shapes
are pinned byte for byte, each as the digest of everything an epoch
exposes:

* the final block hash, the randomness and the mempool size after each
  epoch;
* sha256 digests of the consensus and formation latency dicts (exact
  float hex);
* the sha256 digest of the full telemetry record stream, with the
  ``wall``/``wall_dt`` fields stripped.

The shapes cover the DES with Byzantine nodes, the fastpath with its
kernel and fallback replays, a lossy network under each engine (every
round drains the DES) and mempool-driven epochs under each engine (the
commit removes the permitted shards' transactions).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.chain.elastico import ElasticoSimulation
from repro.chain.mempool import Mempool, synthetic_transactions
from repro.chain.params import ChainParams, NetworkParams
from repro.core.problem import MVComConfig
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry

_LOSSY = NetworkParams(loss_probability=0.05)

#: ``name -> (ChainParams, epochs, mempool transactions or 0)``.
EPOCH_SHAPES = {
    "des-byzantine": (
        ChainParams(num_nodes=480, committee_size=8, seed=5, byzantine_fraction=0.2,
                    chain_engine="des"), 2, 0),
    "fastpath-byzantine": (
        ChainParams(num_nodes=480, committee_size=8, seed=5, byzantine_fraction=0.2,
                    chain_engine="fastpath"), 2, 0),
    "des-lossy": (
        ChainParams(num_nodes=240, committee_size=8, seed=3, network=_LOSSY,
                    chain_engine="des"), 1, 0),
    "fastpath-lossy": (
        ChainParams(num_nodes=240, committee_size=8, seed=3, network=_LOSSY,
                    chain_engine="fastpath"), 1, 0),
    "des-mempool": (
        ChainParams(num_nodes=120, committee_size=8, seed=61, chain_engine="des"), 2, 2_000),
    "fastpath-mempool": (
        ChainParams(num_nodes=120, committee_size=8, seed=61, chain_engine="fastpath"), 2, 2_000),
}


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _latency_digest(latencies) -> str:
    return _digest(sorted((cid, float(value).hex()) for cid, value in latencies.items()))


def _run_shape(name):
    """Run one shape; returns ``(per-epoch pins, telemetry digest)``."""
    params, epochs, transactions = EPOCH_SHAPES[name]
    ring = RingBufferSink()
    sim = ElasticoSimulation(
        params,
        mvcom_config=MVComConfig(alpha=1.5, capacity=800) if transactions else None,
        telemetry=Telemetry(sinks=[ring]),
    )
    pool = None
    if transactions:
        pool = Mempool()
        pool.add_many(synthetic_transactions(transactions, np.random.default_rng(4)))
    pins = []
    for _ in range(epochs):
        outcome = sim.run_epoch(mempool=pool)
        pins.append((
            outcome.final.block.block_hash if outcome.final is not None else None,
            _latency_digest(outcome.consensus_latencies),
            _latency_digest(outcome.formation_latencies),
            outcome.randomness,
            len(pool) if pool is not None else None,
        ))
    records = [
        {k: v for k, v in record.items() if k not in ("wall", "wall_dt")}
        for record in ring.records
    ]
    return pins, _digest(records)


#: ``name -> ([per-epoch (block hash, consensus digest, formation digest,
#: randomness, mempool size)], telemetry digest)``, recorded with the two
#: engines' separate epoch bodies (per-committee DES rounds building
#: ``ShardBlock`` lists, and the batched fastpath) before they were merged.
#: The kernel-running shapes (``fastpath-byzantine``, ``fastpath-mempool``)
#: were re-recorded when the PBFT kernel moved to per-committee ziggurat
#: variate streams; the other four never run the kernel.
GOLDEN = {
    "des-byzantine": (
        [
            (
                "32b257499f2fd9cf26230e79761e5e8f7411255d77b4ec0f65437be0ec05233a",
                "858efa31b8e03b6f2da7c9156870a668d3871d10e0d1b9e0a235ef7f988123d6",
                "3567b6f74c5324136c199fd63d39b5847cd948eaa370be1f6390e0d9698eb49d",
                "6ec1992515c1f21120fba51ee69d99697dfca532d22f50defee2ce6716702382",
                None,
            ),
            (
                "8b939cec2b78fef37bfc4a1920db8f87e9f0aaec711a2000916fd42325381a38",
                "ae6f9afc24024278bf9e9f670b7c0947e831343f8980ddc7d5c1aef420702036",
                "81e240aa4eaca78819a3d29aa94b9bde172842a5b64f102946b716127102c7a3",
                "809358ae8caa7c69be2da5c925648ebc05eb341b038bb55b6c0163c148fa5400",
                None,
            ),
        ],
        "4c969d489832f1b3d6b8fc565a22362b86a9c1c93ccd31f4508af07a1225575a",
    ),
    "des-lossy": (
        [
            (
                "a812a0c8c16e0e012c85fb01c62c4a46b15c6cb671585203960020e5b1fb51db",
                "22e3d84c6fd65ba5c8e50df821c6bfc9f97ea1d98f8cee5bbc35f455e5bfb63a",
                "ca1af6d54152b1313d886f2c821d7cd098f3130ab63e27648a7948ab015114fb",
                "f478136036914ff9c5f3f096dc96a0acf1a443b8311677a5f5ab38f49e4e0725",
                None,
            ),
        ],
        "5fdbd39760d077bf12f95bff11148b21a8e21c89d17da44b998276d3d24d6881",
    ),
    "des-mempool": (
        [
            (
                "886915f5f87bfd5f5fc4ed2b14aad547956a1ee6ceac581575973c5ef8508302",
                "405a3316da14d6c4cc1e0937254f27d5d2892679dcdb05e08b0a39db07108382",
                "6c756833983db1d43d16e3f0bd01a1765b6a9150798d3b95817becec26c65096",
                "7fe5cfbf0bf429dfca7c9987a16bf694f77285c647311ab3d44e7c5fe4c62b11",
                1307,
            ),
            (
                "62f708f522069fcb1364da9a0a1615daa89f57a1b381e9b0a66bbacec0652112",
                "001a36a1866a52a5c2d28f80eff8e2bf45a331230a2c27261acc65f41a1feaa4",
                "381019060914e8a06e818e0f15507e4e414bb3c39370df6ebf13aa5b9f443408",
                "07acaf8a66215963b2a852fa2cb7a48db05470d7a93a983538bb7582a5d1570a",
                903,
            ),
        ],
        "c1a2627dca80d13075bb7f0327f8232dcc441932f5592fb0914eeb8a258d53df",
    ),
    "fastpath-byzantine": (
        [
            (
                "32b257499f2fd9cf26230e79761e5e8f7411255d77b4ec0f65437be0ec05233a",
                "5373246d721763926a61e20bb8fbb0eca1110933aa70657247cb42bde8320442",
                "ad369201b4385192c187583b78cec5535ce63ddfa55561f3d18fbedd7df21455",
                "3f19328d2493e54e30454131a9fb0f72ac71be16f90f17dd565bdc61a479d5c5",
                None,
            ),
            (
                "218a4f4e70dd3c7653854241fe721f013d82eed8f7bd19302f4d8ca495cfdbd5",
                "3bf4398c7b87dc5cc07b94d9fe6fdc9d6115573345a6d575e9159a4eb25b0660",
                "83f4fa017a48b9d149dd49c282cab2658f87e6520b18958c40511d1088cac67a",
                "a23e115c8faf4dfcd2f5d260a729063be8b91024487c2d42b33be6575eb373e0",
                None,
            ),
        ],
        "fdee501d04ca4ac0bf26bf3c715f6bf46a68dc2cb01043fa33443dd70fe9e591",
    ),
    "fastpath-lossy": (
        [
            (
                "a812a0c8c16e0e012c85fb01c62c4a46b15c6cb671585203960020e5b1fb51db",
                "22e3d84c6fd65ba5c8e50df821c6bfc9f97ea1d98f8cee5bbc35f455e5bfb63a",
                "ca1af6d54152b1313d886f2c821d7cd098f3130ab63e27648a7948ab015114fb",
                "f478136036914ff9c5f3f096dc96a0acf1a443b8311677a5f5ab38f49e4e0725",
                None,
            ),
        ],
        "ad3e97b814b05d675bbfe4486b2404324fdcd8dd6b97113b98ac5ab9fe759e43",
    ),
    "fastpath-mempool": (
        [
            (
                "886915f5f87bfd5f5fc4ed2b14aad547956a1ee6ceac581575973c5ef8508302",
                "dcb4d3595028ec35f4cc4fd3a6c799c39c91ca378b2728106fe301b9046ded40",
                "6c756833983db1d43d16e3f0bd01a1765b6a9150798d3b95817becec26c65096",
                "7de2dd27baa755a527b4b24b894aa8fc0da80a646c9874cb0e62234de640bcf7",
                1307,
            ),
            (
                "24c5cd80eb337f924aedf36df8faebc7019559fac88bb9eecbd804ce2b76a560",
                "5e1c08125f7b4d3fee88c88861f86e32a42d52a2ab3832689ca5d97efaf80775",
                "ce2cb2a73f4327cbe507ac49151982fa1184a0f16c037ebd689363705b9ced90",
                "46901b8b4cb9582e75dc956f69607e231c40bf19044651a2ea54ee74bce452e8",
                1044,
            ),
        ],
        "8978828dc34010218bded9ac95ba7892b43c5d8c1f25b2f6ab5394f52edcbc37",
    ),
}


class TestEpochGolden:
    @pytest.mark.parametrize("name", sorted(EPOCH_SHAPES))
    def test_epoch_matches_golden(self, name):
        pins, telemetry_digest = _run_shape(name)
        expected_pins, expected_telemetry = GOLDEN[name]
        assert pins == expected_pins
        assert telemetry_digest == expected_telemetry
