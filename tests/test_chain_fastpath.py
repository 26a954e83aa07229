"""Parity tests for the closed-form chain fastpath (repro.chain.fastpath).

The DES in repro.chain.pbft/network is the reference executable spec; the
fastpath must be

* **byte-identical** where no approximation exists: formation (stages
  1-2, the kernel against the scalar PoW/overlay reference of
  ``tests/formation_oracle.py``), pre-draw
  fallbacks (a lossy round drains the DES), and the DES itself after the
  RNG-buffer / address-scheme changes;
* **distributionally indistinguishable** where the PBFT kernel block-draws
  its randomness: per-committee-size two-sample KS at alpha=0.01, every
  round going through the one router ``run_pbft_rounds`` and the DES
  samples through the all-DES oracle of ``tests/pbft_oracle.py``; the rows whose
  leading members are Byzantine (the kernel's view-change prelude) form
  one family under Holm's correction at family-wise alpha=0.01, with the
  DES emitting the same telemetry shape;
* **PYTHONHASHSEED-independent** end to end (lint rule MV009's contract),
  checked in a subprocess.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.chain import committee as committee_module
from repro.chain.committee import (
    Committee,
    assign_shard_workload,
    run_intra_consensus_streaming,
    run_pbft_rounds,
)
from repro.chain.elastico import ElasticoSimulation
from repro.chain.fastpath import _registration_queue, formation_kernel
from repro.chain.final import CrosslinkAggregator
from repro.chain.measurement import linear_growth_check, measure_two_phase_latency
from repro.chain.network import Network
from repro.chain.node import spawn_nodes
from repro.chain.params import ChainParams, NetworkParams
from repro.chain.pbft import run_pbft_round
from repro.metrics.ks import holm, ks_two_sample
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.engine import SimulationEngine
from repro.sim.rng import spawn_rng
from tests.formation_oracle import (
    committee_fill_times,
    committee_members,
    run_overlay_configuration,
    run_pow_election,
)
from tests.pbft_oracle import (
    ROUND_PATHS,
    reference_until_commit,
    replay_pbft_until_commit,
    rounds_on,
)

VERIFY_MEAN_S = 22.0


def route(members, rng, network=None, engine="fastpath", tag="round-0", telemetry=None):
    """One round on ``engine``'s round path, as the final committee runs it."""
    params = ChainParams(network=network or NetworkParams())
    (outcome,) = ROUND_PATHS[engine](
        [Committee(committee_id=0, epoch=0, members=members)], [tag], params, rng,
        verify_mean_s=VERIFY_MEAN_S, telemetry=telemetry or NULL_TELEMETRY,
    )
    return outcome


def commit_times(runner, size, seeds, byzantine_fraction=0.0):
    times = []
    for seed in seeds:
        members = spawn_nodes(
            count=size, byzantine_fraction=byzantine_fraction, rng=spawn_rng(seed, "members")
        )
        outcome = runner(members, spawn_rng(seed, "round"))
        if outcome.committed:
            times.append(outcome.latency)
    return times


def des_round(members, rng):
    return run_pbft_round(
        members=members, rng=rng, network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S
    )


class TestKernelDistribution:
    @pytest.mark.parametrize(
        "size,trials",
        [(4, 250), (8, 150), (16, 80)],
    )
    def test_ks_non_rejection_per_size(self, size, trials):
        """Routed fastpath commit times are distributionally
        indistinguishable from the DES at alpha=0.01, per committee size.
        Disjoint seed ranges keep the two samples independent."""
        des = commit_times(des_round, size, range(trials))
        fast = commit_times(route, size, range(10_000, 10_000 + trials))
        assert len(des) == trials and len(fast) == trials
        _, _, rejected = ks_two_sample(des, fast, alpha=0.01)
        assert not rejected

    def test_ks_with_byzantine_members(self):
        """Non-primary Byzantine members (silent replicas) still pass KS:
        the kernel masks their votes exactly like the DES ignores them."""
        des = commit_times(des_round, 8, range(120), byzantine_fraction=0.2)
        fast = commit_times(route, 8, range(20_000, 20_120), byzantine_fraction=0.2)
        _, _, rejected = ks_two_sample(des, fast, alpha=0.01)
        assert not rejected

    def test_stage_times_ordered(self):
        members = spawn_nodes(count=8, byzantine_fraction=0.0, rng=spawn_rng(3, "members"))
        ring = RingBufferSink(1024)
        outcome = route(members, spawn_rng(3, "round"), telemetry=Telemetry(sinks=[ring]))
        assert not [r for r in ring.records if r.get("name") == "chain.fastpath.fallback"]
        assert outcome.committed
        stages = outcome.stage_times
        assert 0.0 == stages["pre-prepare-sent"] <= stages["prepare-quorum"] <= stages["commit-quorum"]
        assert outcome.latency == stages["commit-quorum"]


def silent_leaders(size, leaders, seed):
    """An all-honest committee whose members at ``leaders`` are Byzantine."""
    members = list(spawn_nodes(count=size, byzantine_fraction=0.0, rng=spawn_rng(seed, "members")))
    for index in leaders:
        members[index].honest = False
    return members


def view_change_sample(runner, size, leaders, seeds):
    """``(commit time, new-view-1 time)`` per seed, one committed round each."""
    sample = []
    for seed in seeds:
        outcome = runner(silent_leaders(size, leaders, seed), spawn_rng(seed, "round"))
        assert outcome.committed
        sample.append((outcome.commit_time, outcome.stage_times["new-view-1"]))
    return np.array(sample)


def des_until_commit(members, rng):
    return reference_until_commit(members, rng, NetworkParams(), VERIFY_MEAN_S)


def lean_until_commit(members, rng):
    return replay_pbft_until_commit(members, rng, NetworkParams(), VERIFY_MEAN_S)


#: The view-change family: ``(DES oracle, committee size, Byzantine
#: leaders, rounds per side)``.  c = 8 runs ``PbftRound`` itself; c = 32
#: runs the lean replay, byte-identical to it and pinned in
#: ``tests/test_chain_fallback_replay.py``.
VIEW_CHANGE_CELLS = [
    (des_until_commit, 8, [0], 300),
    (des_until_commit, 8, [0, 1], 300),
    (lean_until_commit, 32, [0], 200),
]


class TestViewChangeRows:
    def test_view_change_family_under_holm(self):
        """Rounds whose view-0 primary (or view-0 and view-1 primaries) is
        silent: the router's kernel rows against the DES, on the commit
        time and the new-view-1 time.  Six two-sample KS tests share
        family-wise alpha = 0.01 through Holm's step-down.  Seeds are
        pinned and disjoint (DES 0..n-1, kernel 50_000..): at n = 300 per
        side the family rejects a sup-CDF gap of about 0.15 (0.19 at
        n = 200), well inside what a wrong view count or a missing NIC
        horizon shifts."""
        pvalues = []
        for oracle, size, leaders, trials in VIEW_CHANGE_CELLS:
            des = view_change_sample(oracle, size, leaders, range(trials))
            fast = view_change_sample(route, size, leaders, range(50_000, 50_000 + trials))
            for term in range(2):
                pvalues.append(ks_two_sample(des[:, term], fast[:, term])[1])
        assert not any(holm(pvalues, alpha=0.01)), pvalues

    def test_rows_emit_the_des_telemetry_shape(self):
        """A two-silent-leader round through the kernel emits what
        PbftRound does -- a view-change event per view and one round span
        with the view and the stage keys in the DES's order -- after the
        kernel's chunk event, and no fallback."""
        members = silent_leaders(8, [0, 1], seed=5)
        des, fast = RingBufferSink(1024), RingBufferSink(1024)
        reference_until_commit(
            members, spawn_rng(5, "round"), NetworkParams(), VERIFY_MEAN_S,
            round_tag="epoch0-committee3", telemetry=Telemetry(sinks=[des]),
        )
        route(
            members, spawn_rng(5, "round"), tag="epoch0-committee3",
            telemetry=Telemetry(sinks=[fast]),
        )
        chunks, *rows = fast.records
        assert chunks["name"] == "chain.fastpath.chunks"
        assert chunks["committees"] == chunks["view_change_rows"] == 1

        def shape(record):
            return (
                record["type"], record["name"], record["tag"], record["view"],
                sorted(record), list(record.get("stages", {})),
            )

        assert [shape(r) for r in rows] == [shape(r) for r in des.records]
        assert [r["view"] for r in rows] == [1, 2, 2]
        span = rows[-1]
        assert span["stages"]["pre-prepare-sent"] == span["stages"]["new-view-2"] == rows[1]["at"]
        assert span["t1"] == span["stages"]["commit-quorum"]


class TestFallbacks:
    def test_lossy_network_falls_back_byte_identical(self):
        """A lossy round drains the whole DES on the router and the oracle."""
        seed = 11
        net = NetworkParams(loss_probability=0.05)
        members = spawn_nodes(count=8, byzantine_fraction=0.0, rng=spawn_rng(seed, "members"))
        for engine in ("des", "fastpath"):
            ref_rng, fast_rng = spawn_rng(seed, "round"), spawn_rng(seed, "round")
            reference = run_pbft_round(
                members=members, rng=ref_rng, network_params=net, verify_mean_s=VERIFY_MEAN_S,
            )
            fast = route(members, fast_rng, network=net, engine=engine)
            assert fast.committed == reference.committed
            assert fast.commit_time == reference.commit_time
            assert fast.stage_times == reference.stage_times
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_des_engine_runs_the_reference_round(self):
        members = spawn_nodes(count=4, byzantine_fraction=0.0, rng=spawn_rng(2, "members"))
        ref_rng, des_rng = spawn_rng(2, "round"), spawn_rng(2, "round")
        reference = run_pbft_round(
            members=members, rng=ref_rng,
            network_params=NetworkParams(), verify_mean_s=VERIFY_MEAN_S,
        )
        des = route(members, des_rng, engine="des")
        assert des.commit_time == reference.commit_time
        assert des_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_timeout_fallback_emits_telemetry_reason(self):
        """Heavy jitter with a tiny verify mean pushes the closed-form
        commit past the view-change timeout; the router must emit the
        fallback event and replay the round (seed pinned to a case found
        by search)."""
        members = spawn_nodes(count=4, byzantine_fraction=0.0, rng=spawn_rng(1, "m"))
        ring = RingBufferSink(1024)
        params = ChainParams(network=NetworkParams(jitter_sigma=3.5))
        run_pbft_rounds(
            [Committee(committee_id=0, epoch=0, members=members)], ["timeout-case"],
            params, spawn_rng(1, "r"), verify_mean_s=0.05, telemetry=Telemetry(sinks=[ring]),
        )
        fallbacks = [r for r in ring.records if r.get("name") == "chain.fastpath.fallback"]
        assert fallbacks and fallbacks[0]["reason"] == "view-change-timeout"
        assert fallbacks[0]["tag"] == "timeout-case"

    @pytest.mark.parametrize("engine", ["des", "fastpath"])
    def test_no_quorum_stalls_without_a_draw(self, engine):
        members = list(spawn_nodes(count=8, byzantine_fraction=0.0, rng=spawn_rng(4, "members")))
        for node in members[5:] + members[:1]:
            node.honest = False
        rng = spawn_rng(4, "round")
        before = rng.bit_generator.state
        outcome = route(members, rng, engine=engine)
        assert not outcome.committed
        assert rng.bit_generator.state == before

    def test_too_small_committee_rejected(self):
        members = spawn_nodes(count=3, byzantine_fraction=0.0, rng=spawn_rng(0, "members"))
        with pytest.raises(ValueError):
            route(members, spawn_rng(0, "round"))

    def test_default_epoch_replays_only_its_fallbacks(self, monkeypatch):
        """A default-parameter epoch has Byzantine members (at seed 3,
        four committees are led by them) and runs those committees in the
        kernel's view-change rows: the reference ``run_pbft_round`` runs
        exactly once per ``chain.fastpath.fallback`` event, for that
        event's round, and for no other."""
        replayed = []

        def recording_round(**kwargs):
            replayed.append(kwargs["round_tag"])
            return run_pbft_round(**kwargs)

        monkeypatch.setattr(committee_module, "run_pbft_round", recording_round)
        ring = RingBufferSink()
        ElasticoSimulation(ChainParams(seed=3), telemetry=Telemetry(sinks=[ring])).run_epoch()
        records = ring.records
        assert replayed == [r["tag"] for r in records if r.get("name") == "chain.fastpath.fallback"]
        view_change_rows = sum(
            r["view_change_rows"] for r in records if r.get("name") == "chain.fastpath.chunks"
        )
        assert view_change_rows >= 1


class TestBatchedRounds:
    """Stage 3 runs one (K, c, c) kernel call per epoch
    (run_intra_consensus_streaming) plus DES replays for the ineligible
    committees; the all-DES oracle runs every round on the DES."""

    def test_lossy_epoch_byte_identical_to_des(self):
        """With a lossy network the kernel draws nothing, every committee
        replays under the DES in order, and the whole epoch -- consensus
        latencies included -- must equal the all-DES oracle epoch exactly."""
        params = ChainParams(
            num_nodes=240,
            committee_size=8,
            seed=3,
            network=NetworkParams(loss_probability=0.05),
        )
        with rounds_on("des"):
            des = ElasticoSimulation(params).run_epoch()
        fast = ElasticoSimulation(params).run_epoch()
        assert des.formation_latencies == fast.formation_latencies
        assert des.consensus_latencies == fast.consensus_latencies
        assert des.randomness == fast.randomness

    def test_des_and_fastpath_commit_the_same_committees(self):
        """Stage 3 on the router and the oracle submits exactly the same committee
        ids with the same s_i and formation latencies (consensus
        latencies differ: independent draws)."""
        params = ChainParams(num_nodes=480, committee_size=8, seed=11)
        submissions = {}
        for engine in ("des", "fastpath"):
            sim = ElasticoSimulation(params)
            rng = sim.streams.fork("epoch-0").get("epoch")
            committees = sim.form_committees(rng)
            assign_shard_workload(committees, np.arange(len(committees)) + 1000)
            aggregator = CrosslinkAggregator()
            with rounds_on(engine):
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
            with rounds_on(engine):
                (m,) = measure_two_phase_latency(base, [400], epochs_per_size=3)
            samples[engine] = m.consensus_latencies
        _, _, rejected = ks_two_sample(samples["des"], samples["fastpath"], alpha=0.01)
        assert not rejected


def formation_dicts(formed):
    """A ``formation_kernel`` result as the reference's ``(fills, members,
    overlay)`` dicts: committee index -> fill time, member node ids and
    overlay-completion time."""
    ids = formed.ids.tolist()
    return (
        dict(zip(ids, formed.fills.tolist())),
        dict(zip(ids, formed.members.tolist())),
        dict(zip(ids, formed.overlay.tolist())),
    )


def _reference_formation(sim, rng):
    """Stages 1-2 through the scalar reference: pow election, fill times,
    members and the overlay's serial registration queue."""
    params = sim.params
    solutions = run_pow_election(
        sim.nodes, params.num_committees, params.pow_mean_solve_s, sim.randomness, rng
    )
    members = committee_members(solutions, params.num_committees, params.committee_size)
    overlay = run_overlay_configuration(
        solutions, members, params.identity_registration_rate, rng
    )
    fills = committee_fill_times(solutions, params.num_committees, params.committee_size)
    return fills, members, overlay.committee_overlay_time, solutions, overlay


#: Formation shapes: the 240-node epochs, the 480-node golden shape whose
#: registration queue backs up, the byzantine-fallback deployment size and
#: one with more than 256 committees.
FORMATION_SHAPES = [
    ChainParams(num_nodes=240, committee_size=8, seed=5),
    ChainParams(num_nodes=240, committee_size=8, seed=9),
    ChainParams(num_nodes=480, committee_size=8, seed=5, byzantine_fraction=0.2),
    ChainParams(num_nodes=32_768, committee_size=128, seed=0),
    # 512 committees: the grouping sort runs on uint16 indices.
    ChainParams(num_nodes=4096, committee_size=8, seed=3),
]


class TestFormationByteIdentity:
    def test_formation_kernel_matches_reference(self):
        """Stages 1-2 have no event interleaving: the kernel must match
        the reference path float-for-float (fills, members, overlay
        times), drawing the same RNG stream, on every formation shape."""
        for params in FORMATION_SHAPES:
            sim = ElasticoSimulation(params)
            fills, members, overlay, _, _ = _reference_formation(
                sim, sim.streams.fork("epoch-0").get("epoch")
            )
            kernel = formation_kernel(
                params.pow_mean_solve_s / sim.nodes.hash_power,
                params.num_committees, params.committee_size, sim.randomness,
                params.identity_registration_rate,
                sim.streams.fork("epoch-0").get("epoch"),
            )
            assert formation_dicts(kernel) == (fills, members, overlay), params

    def test_registration_queue_matches_sequential_sums(self):
        """At 32,768 nodes the directory queue is one busy period; the
        prefix-maximum closed form drifts from the reference's running
        sum there (17,672 of 32,768 ready times differ), the busy-period
        sums do not."""
        params = FORMATION_SHAPES[-1]
        sim = ElasticoSimulation(params)
        _, _, _, solutions, overlay = _reference_formation(
            sim, sim.streams.fork("epoch-0").get("epoch")
        )
        arrivals = np.array([solution.solve_time for solution in solutions])
        expected = np.array([overlay.identity_ready_time[s.node_id] for s in solutions])
        service = 1.0 / params.identity_registration_rate
        ready = _registration_queue(arrivals, service)
        np.testing.assert_array_equal(ready, expected)
        k = np.arange(arrivals.size)
        prefix_max = np.maximum.accumulate(arrivals - k * service) + (k + 1) * service
        assert (prefix_max != expected).sum() > 0

    def test_epoch_formation_latencies_identical(self):
        params = ChainParams(num_nodes=240, committee_size=8, seed=9)
        with rounds_on("des"):
            des = ElasticoSimulation(params).run_epoch()
        fast = ElasticoSimulation(params).run_epoch()
        assert des.formation_latencies == fast.formation_latencies

    def test_formation_kernel_validates_inputs(self):
        scales = 600.0 / spawn_nodes(count=20, byzantine_fraction=0.0, rng=spawn_rng(0, "n")).hash_power
        with pytest.raises(ValueError, match="num_committees"):
            formation_kernel(scales, 0, 4, "genesis", 0.5, spawn_rng(0, "r"))
        with pytest.raises(ValueError, match="solve_scales"):
            formation_kernel(-scales, 2, 4, "genesis", 0.5, spawn_rng(0, "r"))
        with pytest.raises(ValueError, match="registration_rate"):
            formation_kernel(scales, 2, 4, "genesis", 0.0, spawn_rng(0, "r"))


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
    from tests.pbft_oracle import rounds_on

    members = spawn_nodes(count=8, byzantine_fraction=0.1, rng=spawn_rng(3, "members"))
    outcome = run_pbft_round(
        members=members, rng=spawn_rng(3, "round"),
        network_params=NetworkParams(), verify_mean_s=22.0,
    )
    params = ChainParams(num_nodes=160, committee_size=8, seed=3)
    with rounds_on("des"):
        epoch = ElasticoSimulation(params).run_epoch()
    fast = ElasticoSimulation(params).run_epoch()
    print(json.dumps({
        "commit": outcome.commit_time,
        "stages": outcome.stage_times,
        "formation": sorted(epoch.formation_latencies.items()),
        "consensus": sorted(epoch.consensus_latencies.items()),
        "fastpath": sorted(fast.consensus_latencies.items()),
        "final": fast.final.final_pbft_latency,
    }))
    """
)


class TestHashSeedIndependence:
    def test_des_identical_across_hash_seeds(self):
        """The DES and a fastpath epoch (kernel, replays and the final
        committee's routed round) must produce bit-identical latencies
        under different PYTHONHASHSEED values (the old builtin-hash
        address scheme did not; lint rule MV009 keeps it that way)."""
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
        round router too -- formation is byte-identical to the DES oracle's,
        so the fit comes out the same shape."""
        params = ChainParams(num_nodes=100, committee_size=8, seed=5)
        measurements = measure_two_phase_latency(
            params, (100, 250, 400, 700), epochs_per_size=1
        )
        fit = linear_growth_check(measurements)
        assert fit["slope"] > 0
        assert fit["r_squared"] > 0.6  # same claim/threshold as the DES test

    def test_formation_matches_des_measurement(self):
        params = ChainParams(num_nodes=100, committee_size=8, seed=1)
        with rounds_on("des"):
            des = measure_two_phase_latency(params, (100, 200), epochs_per_size=1)
        fast = measure_two_phase_latency(params, (100, 200), epochs_per_size=1)
        for a, b in zip(des, fast):
            assert a.formation_latencies == b.formation_latencies

    def test_unknown_engine_rejected(self):
        """The all-DES path is no engine any more: it is the test oracle."""
        with pytest.raises(ValueError, match="tests/pbft_oracle.py"):
            ChainParams(chain_engine="des")
