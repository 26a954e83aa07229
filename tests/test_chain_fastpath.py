"""Parity tests for the closed-form chain fastpath (repro.chain.fastpath).

The DES in repro.chain.pbft/network is the reference executable spec; the
fastpath must be

* **byte-identical** where no approximation exists: formation (stages
  1-2), pre-draw fallbacks (Byzantine primary, lossy network), and the
  DES itself after the RNG-buffer / address-scheme changes;
* **distributionally indistinguishable** where the PBFT kernel block-draws
  its randomness: per-committee-size two-sample KS at alpha=0.01;
* **PYTHONHASHSEED-independent** end to end (lint rule MV009's contract),
  checked in a subprocess.
"""

import json
import os
import subprocess
import sys
import textwrap

from dataclasses import replace

import numpy as np
import pytest

from repro.chain.committee import assign_shard_workload, run_intra_consensus_streaming
from repro.chain.elastico import ElasticoSimulation
from repro.chain.fastpath import formation_kernel, run_pbft, run_pbft_round_fast
from repro.chain.final import CrosslinkAggregator
from repro.chain.measurement import linear_growth_check, measure_two_phase_latency
from repro.chain.network import Network
from repro.chain.node import spawn_nodes
from repro.chain.params import ChainParams, NetworkParams
from repro.chain.pbft import run_pbft_round
from repro.metrics.ks import ks_critical_value, ks_statistic
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.sim.engine import SimulationEngine
from repro.sim.rng import spawn_rng

VERIFY_MEAN_S = 22.0


def des_commit_times(size, seeds, byzantine_fraction=0.0):
    times = []
    for seed in seeds:
        members = spawn_nodes(
            count=size, byzantine_fraction=byzantine_fraction, rng=spawn_rng(seed, "members")
        )
        outcome = run_pbft_round(
            members=members,
            rng=spawn_rng(seed, "round"),
            network_params=NetworkParams(),
            verify_mean_s=VERIFY_MEAN_S,
        )
        if outcome.committed:
            times.append(outcome.latency)
    return times


def fastpath_commit_times(size, seeds, byzantine_fraction=0.0):
    times = []
    for seed in seeds:
        members = spawn_nodes(
            count=size, byzantine_fraction=byzantine_fraction, rng=spawn_rng(seed, "members")
        )
        outcome = run_pbft_round_fast(
            members=members,
            rng=spawn_rng(seed, "round"),
            network_params=NetworkParams(),
            verify_mean_s=VERIFY_MEAN_S,
        )
        if outcome.committed:
            times.append(outcome.latency)
    return times


class TestKernelDistribution:
    @pytest.mark.parametrize(
        "size,trials",
        [(4, 250), (8, 150), (16, 80)],
    )
    def test_ks_non_rejection_per_size(self, size, trials):
        """Fastpath commit times are distributionally indistinguishable
        from the DES at alpha=0.01, per committee size.  Disjoint seed
        ranges keep the two samples independent."""
        des = des_commit_times(size, range(trials))
        fast = fastpath_commit_times(size, range(10_000, 10_000 + trials))
        assert len(des) == trials and len(fast) == trials
        d_stat = ks_statistic(des, fast)
        assert d_stat < ks_critical_value(len(des), len(fast), alpha=0.01)

    def test_ks_with_byzantine_members(self):
        """Non-primary Byzantine members (silent replicas) still pass KS:
        the kernel masks their votes exactly like the DES ignores them."""
        des = des_commit_times(8, range(120), byzantine_fraction=0.2)
        fast = fastpath_commit_times(8, range(20_000, 20_120), byzantine_fraction=0.2)
        d_stat = ks_statistic(des, fast)
        assert d_stat < ks_critical_value(len(des), len(fast), alpha=0.01)

    def test_stage_times_ordered(self):
        members = spawn_nodes(count=8, byzantine_fraction=0.0, rng=spawn_rng(3, "members"))
        ring = RingBufferSink(1024)
        outcome = run_pbft_round_fast(
            members, spawn_rng(3, "round"), NetworkParams(), VERIFY_MEAN_S,
            telemetry=Telemetry(sinks=[ring]),
        )
        assert not [r for r in ring.records if r.get("name") == "chain.fastpath.fallback"]
        assert outcome.committed
        stages = outcome.stage_times
        assert 0.0 == stages["pre-prepare-sent"] <= stages["prepare-quorum"] <= stages["commit-quorum"]
        assert outcome.latency == stages["commit-quorum"]


class TestFallbacks:
    def test_byzantine_primary_falls_back_byte_identical(self):
        """The Byzantine-primary check consumes no randomness, so the
        fallback replays the DES from the identical stream position."""
        seed = 7
        members = spawn_nodes(count=8, byzantine_fraction=0.4, rng=spawn_rng(seed, "members"))
        members[0].honest = False  # force a Byzantine view-0 primary
        reference = run_pbft_round(
            members=members,
            rng=spawn_rng(seed, "round"),
            network_params=NetworkParams(),
            verify_mean_s=VERIFY_MEAN_S,
        )
        fast = run_pbft_round_fast(
            members=members,
            rng=spawn_rng(seed, "round"),
            network_params=NetworkParams(),
            verify_mean_s=VERIFY_MEAN_S,
        )
        assert fast.committed == reference.committed
        assert fast.commit_time == reference.commit_time
        assert fast.stage_times == reference.stage_times

    def test_lossy_network_falls_back_byte_identical(self):
        seed = 11
        net = NetworkParams(loss_probability=0.05)
        members = spawn_nodes(count=8, byzantine_fraction=0.0, rng=spawn_rng(seed, "members"))
        reference = run_pbft_round(
            members=members, rng=spawn_rng(seed, "round"), network_params=net,
            verify_mean_s=VERIFY_MEAN_S,
        )
        fast = run_pbft_round_fast(
            members=members, rng=spawn_rng(seed, "round"), network_params=net,
            verify_mean_s=VERIFY_MEAN_S,
        )
        assert fast.committed == reference.committed
        assert fast.commit_time == reference.commit_time
        assert fast.stage_times == reference.stage_times

    def test_timeout_fallback_emits_telemetry_reason(self):
        """Heavy jitter with a tiny verify mean pushes the closed-form
        commit past the view-change timeout; the fastpath must emit the
        fallback event and delegate to the DES (seed pinned to a case
        found by search)."""
        net = NetworkParams(jitter_sigma=3.5)
        members = spawn_nodes(count=4, byzantine_fraction=0.0, rng=spawn_rng(1, "m"))
        ring = RingBufferSink(1024)
        telemetry = Telemetry(sinks=[ring])
        run_pbft_round_fast(
            members=members, rng=spawn_rng(1, "r"), network_params=net,
            verify_mean_s=0.05, round_tag="timeout-case", telemetry=telemetry,
        )
        fallbacks = [r for r in ring.records if r.get("name") == "chain.fastpath.fallback"]
        assert fallbacks and fallbacks[0]["reason"] == "view-change-timeout"
        assert fallbacks[0]["tag"] == "timeout-case"

    def test_too_small_committee_rejected(self):
        members = spawn_nodes(count=3, byzantine_fraction=0.0, rng=spawn_rng(0, "members"))
        with pytest.raises(ValueError):
            run_pbft_round_fast(members, spawn_rng(0, "round"), NetworkParams(), VERIFY_MEAN_S)

    def test_run_pbft_dispatch(self):
        members = spawn_nodes(count=4, byzantine_fraction=0.0, rng=spawn_rng(2, "members"))
        des = run_pbft(
            "des", members=members, rng=spawn_rng(2, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        reference = run_pbft_round(
            members=members, rng=spawn_rng(2, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        assert des.commit_time == reference.commit_time


class TestBatchedRounds:
    """Stage 3 on the fastpath engine runs one (K, c, c) kernel call per
    epoch (run_intra_consensus_streaming) plus DES replays for the
    ineligible committees."""

    def test_lossy_epoch_byte_identical_to_des(self):
        """With a lossy network the kernel draws nothing, every committee
        replays under the DES in order, and the whole epoch -- consensus
        latencies included -- must equal the pure DES epoch exactly."""
        params = ChainParams(
            num_nodes=240,
            committee_size=8,
            seed=3,
            network=NetworkParams(loss_probability=0.05),
        )
        des = ElasticoSimulation(replace(params, chain_engine="des")).run_epoch()
        fast = ElasticoSimulation(replace(params, chain_engine="fastpath")).run_epoch()
        assert des.formation_latencies == fast.formation_latencies
        assert des.consensus_latencies == fast.consensus_latencies
        assert des.randomness == fast.randomness

    def test_des_and_fastpath_commit_the_same_committees(self):
        """Stage 3 under both engines submits exactly the same committee
        ids with the same s_i and formation latencies (consensus
        latencies differ: independent draws)."""
        params = ChainParams(num_nodes=480, committee_size=8, seed=11)
        submissions = {}
        for engine in ("des", "fastpath"):
            sim = ElasticoSimulation(replace(params, chain_engine=engine))
            rng = sim.streams.fork("epoch-0").get("epoch")
            committees = sim.form_committees(rng)
            assign_shard_workload(committees, np.arange(len(committees)) + 1000)
            aggregator = CrosslinkAggregator()
            submitted = run_intra_consensus_streaming(
                committees, sim.params, rng, aggregator
            )
            assert submitted == aggregator.count > 0
            formation = np.array(
                [c.formation_latency for c in committees if c.consensus_latency is not None]
            )
            submissions[engine] = (aggregator, formation)
        (des, des_formation), (fast, fast_formation) = submissions.values()
        np.testing.assert_array_equal(des.ids, fast.ids)
        np.testing.assert_array_equal(des.tx_counts, fast.tx_counts)
        np.testing.assert_array_equal(des_formation, fast_formation)
        assert (fast.latencies > fast_formation).all()

    def test_batched_consensus_ks_vs_des_measurement(self):
        """End-to-end Fig. 2 consensus samples from the batched fastpath
        vs the DES at one size: KS must not reject at alpha=0.01."""
        base = ChainParams(num_nodes=100, committee_size=8, seed=7)
        samples = {}
        for engine in ("des", "fastpath"):
            (m,) = measure_two_phase_latency(
                base, [400], epochs_per_size=3, chain_engine=engine
            )
            samples[engine] = m.consensus_latencies
        d_stat = ks_statistic(samples["des"], samples["fastpath"])
        assert d_stat < ks_critical_value(
            len(samples["des"]), len(samples["fastpath"]), alpha=0.01
        )


class TestFormationByteIdentity:
    def test_formation_kernel_matches_reference(self):
        """Stages 1-2 have no event interleaving: the kernel must match
        the reference path float-for-float, same RNG stream."""
        params = ChainParams(num_nodes=240, committee_size=8, seed=5)
        des = ElasticoSimulation(replace(params, chain_engine="des"))
        fast = ElasticoSimulation(replace(params, chain_engine="fastpath"))
        committees_des = des.form_committees(des.streams.fork("epoch-0").get("epoch"))
        committees_fast = fast.form_committees(fast.streams.fork("epoch-0").get("epoch"))
        assert [c.committee_id for c in committees_des] == [c.committee_id for c in committees_fast]
        for a, b in zip(committees_des, committees_fast):
            assert a.formation_latency == b.formation_latency
            assert [n.node_id for n in a.members] == [n.node_id for n in b.members]

    def test_epoch_formation_latencies_identical(self):
        params = ChainParams(num_nodes=240, committee_size=8, seed=9)
        des = ElasticoSimulation(replace(params, chain_engine="des")).run_epoch()
        fast = ElasticoSimulation(replace(params, chain_engine="fastpath")).run_epoch()
        assert des.formation_latencies == fast.formation_latencies

    def test_formation_kernel_validates_inputs(self):
        nodes = spawn_nodes(count=20, byzantine_fraction=0.0, rng=spawn_rng(0, "n"))
        with pytest.raises(ValueError):
            formation_kernel(nodes, 0, 4, 600.0, "genesis", 0.5, spawn_rng(0, "r"))
        with pytest.raises(ValueError):
            formation_kernel(nodes, 2, 4, -1.0, "genesis", 0.5, spawn_rng(0, "r"))
        with pytest.raises(ValueError):
            formation_kernel(nodes, 2, 4, 600.0, "genesis", 0.0, spawn_rng(0, "r"))


class TestNetworkDeterminism:
    def test_buffered_and_unbuffered_broadcast_identical(self):
        """The prefilled delay buffer must preserve draw order exactly:
        a buffered broadcast delivers at the same virtual times as the
        scalar-draw reference."""

        def deliveries(buffered):
            engine = SimulationEngine()
            network = Network(engine, NetworkParams(), spawn_rng(13, "net"), buffered=buffered)
            seen = []
            for node_id in range(6):
                network.register(
                    node_id,
                    lambda msg, _nid=node_id: seen.append((engine.now, _nid, msg.kind)),
                )
            network.broadcast(0, range(6), "prepare", payload=0)
            network.broadcast(1, range(6), "commit", payload=1)
            engine.run()
            return seen

        assert deliveries(buffered=True) == deliveries(buffered=False)

    def test_claim_address_sequential(self):
        engine = SimulationEngine()
        network = Network(engine, NetworkParams(), spawn_rng(0, "net"))
        assert [network.claim_address() for _ in range(4)] == [0, 1, 2, 3]

    def test_des_round_reproducible_within_process(self):
        members = spawn_nodes(count=8, byzantine_fraction=0.1, rng=spawn_rng(21, "members"))
        first = run_pbft_round(
            members=members, rng=spawn_rng(21, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        second = run_pbft_round(
            members=members, rng=spawn_rng(21, "round"),
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        assert first.commit_time == second.commit_time
        assert first.stage_times == second.stage_times


_HASHSEED_PROBE = textwrap.dedent(
    """
    import json
    from repro.chain.elastico import ElasticoSimulation
    from repro.chain.node import spawn_nodes
    from repro.chain.params import ChainParams, NetworkParams
    from repro.chain.pbft import run_pbft_round
    from repro.sim.rng import spawn_rng

    members = spawn_nodes(count=8, byzantine_fraction=0.1, rng=spawn_rng(3, "members"))
    outcome = run_pbft_round(
        members=members, rng=spawn_rng(3, "round"),
        network_params=NetworkParams(), verify_mean_s=22.0,
    )
    epoch = ElasticoSimulation(ChainParams(num_nodes=160, committee_size=8, seed=3)).run_epoch()
    print(json.dumps({
        "commit": outcome.commit_time,
        "stages": outcome.stage_times,
        "formation": sorted(epoch.formation_latencies.items()),
        "consensus": sorted(epoch.consensus_latencies.items()),
    }))
    """
)


class TestHashSeedIndependence:
    def test_des_identical_across_hash_seeds(self):
        """The DES must produce bit-identical latencies under different
        PYTHONHASHSEED values (the old builtin-hash address scheme did
        not; lint rule MV009 keeps it that way)."""
        outputs = []
        for hash_seed in ("1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _HASHSEED_PROBE],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["commit"] > 0


class TestMeasurementFastpath:
    def test_linear_growth_on_fastpath(self):
        """Fig. 2a's claim (near-linear formation growth) holds on the
        fastpath engine too -- formation is byte-identical to the DES, so
        the fit comes out the same shape."""
        params = ChainParams(num_nodes=100, committee_size=8, seed=5)
        measurements = measure_two_phase_latency(
            params, (100, 250, 400, 700), epochs_per_size=1, chain_engine="fastpath"
        )
        fit = linear_growth_check(measurements)
        assert fit["slope"] > 0
        assert fit["r_squared"] > 0.6  # same claim/threshold as the DES test

    def test_formation_matches_des_measurement(self):
        params = ChainParams(num_nodes=100, committee_size=8, seed=1)
        des = measure_two_phase_latency(params, (100, 200), epochs_per_size=1, chain_engine="des")
        fast = measure_two_phase_latency(
            params, (100, 200), epochs_per_size=1, chain_engine="fastpath"
        )
        for a, b in zip(des, fast):
            assert a.formation_latencies == b.formation_latencies

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ChainParams(chain_engine="warp")
