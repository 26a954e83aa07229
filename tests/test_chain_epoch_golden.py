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
kernel (view-change rows included), a lossy network under each engine (every
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
#: variate streams; the other four never run the kernel.  All six were
#: re-recorded when ``Committee.can_reach_quorum`` became the protocol's
#: 2f+1-honest rule: c = 8 committees with three silent members now run
#: their round.  ``fastpath-byzantine`` was re-recorded when the formation
#: kernel's registration queue became bit-exact (its epoch-0 formation
#: digest now equals ``des-byzantine``'s).  When the final committee moved
#: onto the member committees' round router, ``fastpath-byzantine`` was
#: re-recorded (its epoch-0 final primary is Byzantine, and the replay now
#: stops at the commit instead of draining the DES, so the stream moves:
#: the randomness, then epoch 1) and so was ``fastpath-mempool``'s
#: telemetry digest (the final round's kernel call emits its
#: ``chain.fastpath.chunks`` event).  When rounds led by Byzantine members
#: joined the kernel through its view-change prelude,
#: ``fastpath-byzantine`` was re-recorded (those rounds draw kernel
#: variates instead of replaying on the DES stream) and so was
#: ``fastpath-mempool``'s telemetry digest (the chunk event gained
#: ``view_change_rows``); its epochs are unchanged.
GOLDEN = {
    "des-byzantine": (
        [
            (
                "7b0d1d81d1bd49455ef53aaa636c31406cb0e7467051728a0b3df1e781511705",
                "144ae70f43c4733409f7087b231763a2202b2190275ce5c865d67cdd27d8a182",
                "3567b6f74c5324136c199fd63d39b5847cd948eaa370be1f6390e0d9698eb49d",
                "60714887d90a85b9fc50ef598084b352f9063326373d7efbf435b114fdfd132e",
                None,
            ),
            (
                "276a7ebe464b61e0f37d3d2aa004ad5c2c7bbad46cb12c2abed94a98dae644d4",
                "98832eb6782874bb34c38e0e58578922d1a86ed726337ff904900199299d7604",
                "48207e1d1fdf5bb94573baf677537ae1b935b1d87fc06de0e2ba448b293eb2ba",
                "b737335bf67e4bb96d9945842e591a09214a44592401ba8ca104259f6e8ff433",
                None,
            ),
        ],
        "8a28b67657a5a83578e2455514d75710e85801f731a9b57e3f094b038740e251",
    ),
    "des-lossy": (
        [
            (
                "238cabbb1d316c2c418a923d0b4646424ef61955091e1af426ae93a46336e5d1",
                "f86b30e7d350e6bdb30879ce91673884b247bc1bc0c7e02b942b32da4a606a00",
                "ca1af6d54152b1313d886f2c821d7cd098f3130ab63e27648a7948ab015114fb",
                "20692d4163142754aa62fefc4fe68edae5319be1de158d46ee86b3a7af687641",
                None,
            ),
        ],
        "9fdb7d6296883b6e8ee16a463f3fa343a5facaa2c16f1afcdaff834564585bfc",
    ),
    "des-mempool": (
        [
            (
                "886915f5f87bfd5f5fc4ed2b14aad547956a1ee6ceac581575973c5ef8508302",
                "ad48fac7ffd50ab7f89c88fd62f4301438d7235f869741b279de4123f6b72a0a",
                "6c756833983db1d43d16e3f0bd01a1765b6a9150798d3b95817becec26c65096",
                "e317f9364b0f319b58f8d7c56fb3248608b7ee33aaf805c7a54eced8292a090c",
                1307,
            ),
            (
                "21244e3c202cb4e0ce32f0b08235f8e2250efcd801a4a3920b0d4f1515a1ae82",
                "98420fc8fba52ddac41bae55f11936ae5b13e8ebcf841b0f7e5e887341754cd1",
                "c3bb888f68a548e664b724893e455ace5979738ebed6faa930f5e3befab1f8c5",
                "38ab768ba56f1ad28838dc501330e300d38c646377b1d33e857730da0bfdab20",
                769,
            ),
        ],
        "b579377dab5733de3ebedb59aac75cd2cd7611383c78dfbcebfee1131bea4982",
    ),
    "fastpath-byzantine": (
        [
            (
                "271a68e6213a7633b56620c694b587d03ffdccbecbfdc3542c3848313be95dd9",
                "44a759509cb166a4c7c130faa70e9368407bf7a01b606ee1ee630166dd08c3fe",
                "3567b6f74c5324136c199fd63d39b5847cd948eaa370be1f6390e0d9698eb49d",
                "d16051ad190060bb06511523ab89c9763db4000854d3506f644ec9ec583f8f7b",
                None,
            ),
            (
                "fe99c90b6e5fdf07f4ced0ce9d92a881d07a1464d74ec31ad85c43f6b1536723",
                "a1e973cc5893f127ec76e8505fd5fbce75773c25d1a57c52718d17dd8fa7d582",
                "8f1b80e78784dfd6058c9ed5c09497f0546efdd24f53dff64a1c6c2db0c4f67b",
                "2abaa14b8753bf5e1a3136045693eafdc8d437a4a26e5283e3987a47ffece031",
                None,
            ),
        ],
        "4dea3be519afaef0d77bb8bd2f9e8db3513e0785edd6c7e1ca5083fda5204ddd",
    ),
    "fastpath-lossy": (
        [
            (
                "238cabbb1d316c2c418a923d0b4646424ef61955091e1af426ae93a46336e5d1",
                "f86b30e7d350e6bdb30879ce91673884b247bc1bc0c7e02b942b32da4a606a00",
                "ca1af6d54152b1313d886f2c821d7cd098f3130ab63e27648a7948ab015114fb",
                "20692d4163142754aa62fefc4fe68edae5319be1de158d46ee86b3a7af687641",
                None,
            ),
        ],
        "8ee7609a52700dd036ccf7bbb68360963cc4287b66caf1bb66562c599e8af675",
    ),
    "fastpath-mempool": (
        [
            (
                "886915f5f87bfd5f5fc4ed2b14aad547956a1ee6ceac581575973c5ef8508302",
                "384d49a23bb2d6c88b64f420794ea88c79239e2bb728a730cfcbc946e2d54bc6",
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
        "b3a5dafe4dffecc8c476aeec7f72197f44dd03c8c755069f85af7b39f44f00f7",
    ),
}


class TestEpochGolden:
    @pytest.mark.parametrize("name", sorted(EPOCH_SHAPES))
    def test_epoch_matches_golden(self, name):
        pins, telemetry_digest = _run_shape(name)
        expected_pins, expected_telemetry = GOLDEN[name]
        assert pins == expected_pins
        assert telemetry_digest == expected_telemetry

    @pytest.mark.parametrize("shape", ["byzantine", "lossy", "mempool"])
    def test_engines_share_formation(self, shape):
        """Formation is one kernel under both engines, so the pinned
        first-epoch formation digests of ``des-X`` and ``fastpath-X``
        agree (each is checked against a run above).  Later epochs form
        from the randomness stage 5 draws after an engine-specific stage
        3, so they differ by design."""
        des_pins, _ = GOLDEN[f"des-{shape}"]
        fast_pins, _ = GOLDEN[f"fastpath-{shape}"]
        assert des_pins[0][2] == fast_pins[0][2]
