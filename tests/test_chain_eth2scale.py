"""Eth2-scale path: chunked kernels, streaming crosslinks, and the bench CLI.

The tentpole claims under test:

* the chunked PBFT and formation kernels are **byte-identical** to their
  unchunked forms at every chunk size (including one-committee chunks and
  budgets larger than the whole batch), and leave the calling RNG in the
  same state -- for stacks of honest-primary rows and for stacks that
  append rows led by Byzantine members (the view-change prelude); an
  honest-only stack keeps the bytes pinned before the prelude existed;
* the PBFT kernel is byte-identical at any worker count too: the worker
  count is injected by monkeypatching the module's CPU probe
  (``fastpath.available_cpus``), and ``KERNEL_INLINE_BYTES`` is zeroed
  where a toy stack must still take the threaded path;
* the batched committee hashing equals the reference
  :func:`tests.formation_oracle.committee_of`;
* chunking bounds peak scratch memory (tracemalloc, which tracks numpy's
  allocator), threaded or not;
* the validator table draws the oracle's nodes byte for byte, a
  deployment builds no ``Node`` (an epoch at most its final seat's) and
  retains at most 128 B per node;
* the epoch (:meth:`ElasticoSimulation.run_epoch`, stage 3 -> 4 through a
  :class:`CrosslinkAggregator`) is chunk- and worker-invariant (its
  byte-for-byte golden pins live in ``tests/test_chain_epoch_golden.py``);
* the ``eth2scale`` preset / CLI verb exist and run at toy scale.
"""

import hashlib
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain import fastpath
from repro.chain import node as node_module
from repro.chain.elastico import ElasticoSimulation
from repro.chain.fastpath import (
    _committee_assignments,
    _pbft_kernel_batch,
    committee_hash_suffixes,
    formation_kernel,
    kernel_bytes_per_committee,
    kernel_chunk_rows,
    kernel_plan,
)
from repro.chain.final import CrosslinkAggregator
from repro.chain.node import spawn_nodes
from repro.chain.params import ChainParams, NetworkParams
from repro.harness.presets import PRESETS
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.sim.rng import spawn_rng
from tests.formation_oracle import (
    committee_members,
    committee_of,
    run_pow_election,
    spawn_node_list,
)
from tests.test_chain_fastpath import formation_dicts


def _committee_stack(num_committees, size, seed=0):
    rng = spawn_rng(seed, "stack")
    honest = rng.random((num_committees, size)) > 0.1
    honest[:, 0] = True  # eligible committees have an honest primary
    speeds = 0.5 + rng.random((num_committees, size))
    return honest, speeds


def _mixed_stack(num_committees, size, seed=0):
    """The router's stack order: honest-primary rows, then rows whose
    first one or two members are Byzantine, each with a 2f+1 quorum."""
    honest, speeds = _committee_stack(num_committees, size, seed)
    quorum = 2 * ((size - 1) // 3) + 1
    for row in range(num_committees // 2, num_committees):
        leaders = 1 + row % 2
        honest[row, :leaders] = False
        honest[row, leaders : leaders + quorum] = True
    return honest, speeds


def _run_kernel(honest, speeds, max_batch_bytes):
    rng = spawn_rng(7, "round")
    rounds = _pbft_kernel_batch(
        honest, speeds, rng, NetworkParams(), 22.0, max_batch_bytes=max_batch_bytes
    )
    # The end-state probe: chunking must not move the caller's stream.
    return rounds.commit, rounds.prepared, rng.random(), rounds.new_views


def _kernel_bytes(honest, speeds, max_batch_bytes):
    """Every output's bytes and the caller's RNG end state."""
    rng = spawn_rng(7, "round")
    rounds = _pbft_kernel_batch(
        honest, speeds, rng, NetworkParams(), 22.0, max_batch_bytes=max_batch_bytes
    )
    return tuple(out.tobytes() for out in rounds) + (rng.bit_generator.state,)


def _assert_chunking_bounds_peak_scratch():
    """A ~4 MiB budget keeps the traced peak under a third of unchunked."""
    honest, speeds = _committee_stack(256, 64)
    budget = 23 * kernel_bytes_per_committee(64)  # ~4 MiB of scratch

    def peak(max_batch_bytes):
        tracemalloc.start()
        tracemalloc.reset_peak()
        _run_kernel(honest, speeds, max_batch_bytes)
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak_bytes

    unchunked = peak(None)
    chunked = peak(budget)
    assert chunked < unchunked / 3, (
        f"chunked peak {chunked / 2**20:.1f} MiB vs "
        f"unchunked {unchunked / 2**20:.1f} MiB"
    )


def _pin_workers(monkeypatch, workers, threaded=False):
    """Inject the worker count through the CPU probe; ``threaded`` also
    zeroes the inline threshold so toy stacks still go multi-threaded."""
    monkeypatch.setattr(fastpath, "available_cpus", lambda: workers)
    if threaded:
        monkeypatch.setattr(fastpath, "KERNEL_INLINE_BYTES", 0)


class TestChunkedKernelByteIdentity:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 5, 13, 64])
    def test_pbft_kernel_chunking_is_byte_identical(self, chunk_rows):
        """Any chunk size (1 row ... > K rows) replays the unchunked bytes,
        on an honest-primary stack and on a mixed one."""
        budget = chunk_rows * kernel_bytes_per_committee(8)
        assert kernel_chunk_rows(8, budget) == chunk_rows
        for honest, speeds in (_committee_stack(13, 8), _mixed_stack(13, 8)):
            base = _run_kernel(honest, speeds, None)
            chunked = _run_kernel(honest, speeds, budget)
            np.testing.assert_array_equal(chunked[0], base[0])
            np.testing.assert_array_equal(chunked[1], base[1])
            assert chunked[2] == base[2]
            np.testing.assert_array_equal(chunked[3], base[3])
        # Rows 6..12 open with 1, 2, 1, ... silent views.
        assert np.isfinite(base[3]).sum() == sum(1 + row % 2 for row in range(6, 13))

    def test_honest_stack_keeps_its_bytes(self):
        """Honest-primary rows run the plain round: start 0, idle NICs but
        the primary's.  Pinned from the kernel before the view-change
        prelude existed (three stacks, c = 8, 128 and 32)."""
        digest = hashlib.sha256()
        for num_committees, size, seed in ((13, 8, 0), (16, 128, 5), (64, 32, 9)):
            commit, prepared, probe, new_views = _run_kernel(
                *_committee_stack(num_committees, size, seed), None
            )
            assert new_views.shape == (num_committees, 0)
            digest.update(commit.tobytes())
            digest.update(prepared.tobytes())
            digest.update(repr(probe).encode())
        assert digest.hexdigest() == (
            "1d39a855c52f6bedd0488c9b60a9661a8704547ad7bea909eb8ea8e77e59010e"
        )

    def test_formation_kernel_chunking_is_byte_identical(self):
        nodes = spawn_nodes(
            count=480, byzantine_fraction=0.1, rng=spawn_rng(3, "nodes")
        )
        base = None
        for budget in (None, 10**9, 96 * 11, 96, 1):
            rng = spawn_rng(3, "form")
            result = formation_kernel(
                600.0 / nodes.hash_power, 60, 8, "genesis", 0.5, rng, max_batch_bytes=budget
            )
            probe = rng.random()
            result = formation_dicts(result)
            if base is None:
                base = (result, probe)
                continue
            assert probe == base[1]
            assert result == base[0]

    def test_chunk_rows_floor_and_validation(self):
        assert kernel_chunk_rows(8, 1) == 1  # floor: never zero rows
        assert kernel_chunk_rows(8, None) == 2**31  # None disables chunking
        with pytest.raises(ValueError, match="max_batch_bytes"):
            ChainParams(max_batch_bytes=0)
        with pytest.raises(ValueError, match="max_batch_bytes"):
            ChainParams(max_batch_bytes=-1)

    def test_chunking_bounds_peak_scratch(self):
        """A small budget caps live scratch well below the monolithic peak."""
        _assert_chunking_bounds_peak_scratch()


class TestThreadedKernelByteIdentity:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 5, 13, None])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_any_worker_count_is_byte_identical(self, monkeypatch, workers, chunk_rows):
        """Workers x chunk budget replays the single-worker unchunked bytes
        and leaves the caller's stream in the same state, on an
        honest-primary stack and on a mixed one."""
        budget = None if chunk_rows is None else chunk_rows * kernel_bytes_per_committee(8)
        for honest, speeds in (_committee_stack(13, 8), _mixed_stack(13, 8)):
            _pin_workers(monkeypatch, 1)
            base = _kernel_bytes(honest, speeds, None)
            _pin_workers(monkeypatch, workers, threaded=True)
            plan = kernel_plan(13, 8, budget)
            if budget is not None:
                assert plan.rows * plan.workers * kernel_bytes_per_committee(8) <= budget
            assert (plan.workers > 1) == (workers > 1 and chunk_rows != 1)
            assert _kernel_bytes(honest, speeds, budget) == base

    @pytest.mark.parametrize("num_committees", [1, 2, 5])
    def test_fewer_committees_than_workers(self, monkeypatch, num_committees):
        honest, speeds = _committee_stack(num_committees, 16, seed=3)
        _pin_workers(monkeypatch, 1)
        base = _kernel_bytes(honest, speeds, None)
        _pin_workers(monkeypatch, 8, threaded=True)
        assert kernel_plan(num_committees, 16, None).workers == min(num_committees, 8)
        assert _kernel_bytes(honest, speeds, None) == base

    def test_small_batch_runs_inline(self, monkeypatch):
        """Under the real inline threshold a c=8 batch never starts a thread."""

        class NoThreads:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a small batch must run inline")

        honest, speeds = _committee_stack(40, 8)
        _pin_workers(monkeypatch, 1)
        base = _kernel_bytes(honest, speeds, None)
        _pin_workers(monkeypatch, 2)
        monkeypatch.setattr(fastpath, "ThreadPoolExecutor", NoThreads)
        assert kernel_plan(40, 8, None).workers == 1
        assert _kernel_bytes(honest, speeds, None) == base

    def test_large_batch_goes_threaded(self, monkeypatch):
        """At c=128 a worker's chunk clears the real inline threshold."""
        honest, speeds = _committee_stack(16, 128, seed=5)
        _pin_workers(monkeypatch, 1)
        base = _kernel_bytes(honest, speeds, None)
        _pin_workers(monkeypatch, 2)
        plan = kernel_plan(16, 128, None)
        assert plan.workers == 2 and plan.chunks == 2
        assert plan.rows * kernel_bytes_per_committee(128) >= fastpath.KERNEL_INLINE_BYTES
        assert _kernel_bytes(honest, speeds, None) == base

    def test_more_workers_than_cores_finishes(self, monkeypatch):
        """Eight workers on however few cores, switching threads often:
        byte-identical (a lost output write would break it), and done well
        inside a bound (a stuck worker fails instead of hanging)."""
        honest, speeds = _committee_stack(64, 32, seed=9)
        budget = 40 * kernel_bytes_per_committee(32)
        _pin_workers(monkeypatch, 1)
        base = _kernel_bytes(honest, speeds, budget)
        _pin_workers(monkeypatch, 8, threaded=True)
        assert kernel_plan(64, 32, budget).workers == 8
        result = {}
        runner = threading.Thread(
            target=lambda: result.update(out=_kernel_bytes(honest, speeds, budget)),
            daemon=True,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "the eight-worker kernel did not finish in 60 s"
        assert result["out"] == base

    def test_worker_error_propagates(self, monkeypatch):
        """Every future's result is read, so a failing chunk raises."""

        def broken(spans, *args):
            raise RuntimeError("chunk failed")

        honest, speeds = _committee_stack(13, 8)
        _pin_workers(monkeypatch, 2, threaded=True)
        monkeypatch.setattr(fastpath, "_kernel_chunks", broken)
        with pytest.raises(RuntimeError, match="chunk failed"):
            _kernel_bytes(honest, speeds, None)

    def test_threaded_chunking_bounds_peak_scratch(self, monkeypatch):
        """Two workers sharing a small budget keep the same bound as one."""
        _pin_workers(monkeypatch, 2, threaded=True)
        assert kernel_plan(256, 64, 23 * kernel_bytes_per_committee(64)).workers == 2
        _assert_chunking_bounds_peak_scratch()

    def test_streaming_epoch_is_worker_invariant(self, monkeypatch):
        params = ChainParams(num_nodes=480, committee_size=8, seed=11)
        _pin_workers(monkeypatch, 1)
        base = ElasticoSimulation(params).run_epoch()
        _pin_workers(monkeypatch, 4, threaded=True)
        threaded = ElasticoSimulation(params).run_epoch()
        assert threaded.final.block.block_hash == base.final.block.block_hash
        assert threaded.consensus_latencies == base.consensus_latencies


class TestFormationHashing:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        randomness=st.one_of(
            st.just(""),
            st.text(min_size=1, max_size=200),
            st.text(alphabet="0123456789abcdef", min_size=63, max_size=65),
        ),
        node_ids=st.lists(st.integers(0, 2**40), min_size=1, max_size=30),
        num_committees=st.sampled_from([1, 7, 1024]),
    )
    @example(randomness="", node_ids=[0], num_committees=1)
    @example(randomness="épоch-ランダム", node_ids=[0, 1, 2**40], num_committees=7)
    def test_batched_assignment_matches_reference(self, randomness, node_ids, num_committees):
        batched = _committee_assignments(
            randomness.encode("utf-8"), committee_hash_suffixes(node_ids), num_committees
        )
        assert batched.tolist() == [
            committee_of(node_id, randomness, num_committees) for node_id in node_ids
        ]

    def test_kernel_without_cached_suffixes_matches_reference(self):
        nodes = spawn_nodes(count=480, byzantine_fraction=0.1, rng=spawn_rng(3, "nodes"))
        scales = 600.0 / nodes.hash_power
        solutions = run_pow_election(nodes, 60, 600.0, "genesis", spawn_rng(3, "form"))
        _, members, _ = formation_dicts(
            formation_kernel(scales, 60, 8, "genesis", 0.5, spawn_rng(3, "form"))
        )
        assert members == committee_members(solutions, 60, 8)
        cached = formation_kernel(
            scales, 60, 8, "genesis", 0.5, spawn_rng(3, "form"),
            hash_suffixes=committee_hash_suffixes(range(len(nodes))),
        )
        assert formation_dicts(cached)[1] == members
        assert all(type(node_id) is int for group in members.values() for node_id in group)


class TestNodeTable:
    """The deployment's validators live as arrays; ``Node`` objects are
    built only for the seats that read them."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        count=st.integers(1, 2_000),
        byzantine_fraction=st.floats(0.0, 0.5, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=1, byzantine_fraction=0.0, seed=0)
    @example(count=2_000, byzantine_fraction=0.4999, seed=1)
    def test_table_draws_the_oracle_nodes(self, count, byzantine_fraction, seed):
        table_rng = spawn_rng(seed, "nodes")
        oracle_rng = spawn_rng(seed, "nodes")
        table = spawn_nodes(count, byzantine_fraction, table_rng)
        oracle = spawn_node_list(count, byzantine_fraction, oracle_rng)
        np.testing.assert_array_equal(table.hash_power, [n.hash_power for n in oracle])
        np.testing.assert_array_equal(table.honest, [n.honest for n in oracle])
        np.testing.assert_array_equal(table.verify_speed, [n.verify_speed for n in oracle])
        assert table_rng.bit_generator.state == oracle_rng.bit_generator.state
        assert table[-1] == oracle[-1] and table[:3] == oracle[:3]

    def test_deployment_and_fastpath_epoch_build_only_the_final_seat(self, monkeypatch):
        built = [0]
        original = node_module.Node.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(node_module.Node, "__init__", counting)
        params = ChainParams(num_nodes=8_192, committee_size=64, seed=0)
        sim = ElasticoSimulation(params)
        assert built[0] == 0
        outcome = sim.run_epoch()
        assert len(outcome.committees) > 1 and outcome.final is not None
        assert 0 < built[0] <= params.committee_size

    def test_deployment_retains_under_128_bytes_per_node(self):
        """Arrays, not objects: the per-node ``Node`` dataclasses alone
        retained ~280 B each."""
        count = 32_768
        tracemalloc.start()
        sim = ElasticoSimulation(ChainParams(num_nodes=count, committee_size=128, seed=0))
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(sim.nodes) == count
        assert retained / count <= 128, f"{retained / count:.0f} B per node"


class TestStreamingEpoch:
    def _params(self, **overrides):
        defaults = dict(num_nodes=480, committee_size=8, seed=11)
        defaults.update(overrides)
        return ChainParams(**defaults)

    def test_streaming_epoch_is_chunk_invariant(self):
        base = ElasticoSimulation(self._params()).run_epoch()
        tiny = ElasticoSimulation(self._params(max_batch_bytes=4096)).run_epoch()
        assert tiny.final.block.block_hash == base.final.block.block_hash
        assert tiny.consensus_latencies == base.consensus_latencies

    def test_chunks_telemetry_event(self, monkeypatch):
        _pin_workers(monkeypatch, 1)
        ring = RingBufferSink(4096)
        telemetry = Telemetry(sinks=[ring])
        params = self._params(max_batch_bytes=3 * kernel_bytes_per_committee(8))
        sim = ElasticoSimulation(params, telemetry=telemetry)
        sim.run_epoch()
        chunk_events = [
            r for r in ring.records if r.get("name") == "chain.fastpath.chunks"
        ]
        assert chunk_events, "the batched stage-3 path must emit its chunk plan"
        event = chunk_events[0]
        assert event["committee_size"] == 8
        assert event["chunk_rows"] == 3
        assert event["max_batch_bytes"] == params.max_batch_bytes
        assert event["chunks"] == -(-event["committees"] // event["chunk_rows"])
        assert event["workers"] == 1

    def test_chunks_telemetry_event_two_workers(self, monkeypatch):
        """The event reports the threaded plan, within the shared budget."""
        _pin_workers(monkeypatch, 2, threaded=True)
        ring = RingBufferSink(4096)
        telemetry = Telemetry(sinks=[ring])
        params = self._params(max_batch_bytes=7 * kernel_bytes_per_committee(8))
        ElasticoSimulation(params, telemetry=telemetry).run_epoch()
        # Stage 3's kernel call comes first; the final committee's round,
        # routed the same way, may add its own one-committee event.
        event = next(r for r in ring.records if r.get("name") == "chain.fastpath.chunks")
        assert event["workers"] == 2
        assert (
            event["chunk_rows"] * event["workers"] * kernel_bytes_per_committee(8)
            <= params.max_batch_bytes
        )
        assert event["chunks"] % 2 == 0 or event["chunks"] == event["committees"]
        plan = kernel_plan(event["committees"], 8, params.max_batch_bytes)
        assert (event["chunk_rows"], event["chunks"]) == (plan.rows, plan.chunks)


class TestCrosslinkAggregator:
    def test_extend_and_views(self):
        aggregator = CrosslinkAggregator()
        assert aggregator.count == 0
        aggregator.extend(np.array([5]), np.array([1400]), np.array([600.5]))
        aggregator.extend(
            np.array([7, 9]), np.array([100, 200]), np.array([700.0, 650.0])
        )
        assert aggregator.count == 3
        np.testing.assert_array_equal(aggregator.ids, [5, 7, 9])
        np.testing.assert_array_equal(aggregator.tx_counts, [1400, 100, 200])
        np.testing.assert_array_equal(aggregator.latencies, [600.5, 700.0, 650.0])
        # N_max cutoff keeps the fastest arrivals, stable order.
        np.testing.assert_array_equal(aggregator.arrival_positions(0.8), [0, 2])

    def test_extend_validates_lengths(self):
        aggregator = CrosslinkAggregator()
        with pytest.raises(ValueError, match="equal length"):
            aggregator.extend(np.array([1]), np.array([1, 2]), np.array([1.0]))


class TestNicGeometryCache:
    def test_lru_eviction_bounds_the_cache(self):
        fastpath._NIC_GEOMETRY.clear()
        limit = fastpath._NIC_GEOMETRY_MAX_ENTRIES
        for c in range(4, 4 + limit + 5):
            fastpath._nic_geometry(c, 0.002)
        assert len(fastpath._NIC_GEOMETRY) == limit
        # The oldest entries were evicted, the newest survive.
        assert (4, 0.002) not in fastpath._NIC_GEOMETRY
        assert (4 + limit + 4, 0.002) in fastpath._NIC_GEOMETRY

    def test_lru_hit_refreshes_recency(self):
        fastpath._NIC_GEOMETRY.clear()
        limit = fastpath._NIC_GEOMETRY_MAX_ENTRIES
        for c in range(4, 4 + limit):
            fastpath._nic_geometry(c, 0.002)
        fastpath._nic_geometry(4, 0.002)  # touch the oldest entry
        fastpath._nic_geometry(4 + limit, 0.002)  # force one eviction
        assert (4, 0.002) in fastpath._NIC_GEOMETRY
        assert (5, 0.002) not in fastpath._NIC_GEOMETRY


    def test_geometry_is_read_only(self):
        """Concurrent kernel workers share the cached arrays; an in-place
        write must raise instead of corrupting later rounds."""
        fastpath._NIC_GEOMETRY.clear()
        nic, _ = fastpath._nic_geometry(8, 0.002)
        with pytest.raises(ValueError, match="read-only"):
            nic[0, 1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            nic += 1.0
        assert fastpath._nic_geometry(8, 0.002)[0][0, 1] == pytest.approx(0.002)


class TestEth2ScaleHarness:
    def test_preset_exists_with_beacon_shape(self):
        preset = PRESETS["eth2scale"]
        assert preset.extras["committee_size"] == 2**7
        assert max(preset.extras["network_sizes"]) == 2**10 * 2**7
        assert preset.num_committees == 2**10

    def test_runner_rejects_descending_sizes(self):
        from repro.harness.eth2scale import run_eth2scale

        with pytest.raises(ValueError, match="ascending"):
            run_eth2scale(network_sizes=(1024, 512), out_path=None)

    def test_cli_smoke(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "bench.json"
        code = main(
            [
                "eth2scale",
                "--network-sizes", "512",
                "--committee-size", "8",
                "--iterations", "200",
                "--gamma", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["figure"] == "eth2scale"
        (point,) = record["points"]
        assert point["nodes"] == 512
        assert point["shards_submitted"] > 0
        assert point["se_wall_s"] <= point["epoch_wall_s"]
        # 512 nodes at the default Byzantine fraction: one committee has a
        # Byzantine primary and takes the kernel's view-change rows.
        assert point["fallbacks_by_reason"] == {}
        assert point["fallbacks"] == 0
        assert point["view_change_rows"] == 1
        assert point["cpu_count"] >= 1
        assert 1 <= point["kernel_workers"] <= point["cpu_count"]
        assert point["kernel_chunk_rows"] >= 1
        assert "eth2scale" in capsys.readouterr().out

    def test_cli_without_iterations_records_the_preset_budget(self, tmp_path):
        # mvcom eth2scale and bench_eth2scale.py write the same record, so
        # with no --iterations the CLI runs the preset's SE budget too.
        from repro.harness.cli import main
        from repro.harness.presets import PRESETS

        out = tmp_path / "bench.json"
        code = main(
            [
                "eth2scale",
                "--network-sizes", "512",
                "--committee-size", "8",
                "--gamma", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["se_iterations"] == PRESETS["eth2scale"].se_iterations == 1500
