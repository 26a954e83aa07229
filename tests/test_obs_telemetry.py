"""The repro.obs hub, sinks, and profiling hook, plus hot-path emissions."""

import io
import json

import numpy as np
import pytest

from repro.chain.committee import calibrated_verify_mean
from repro.chain.elastico import ElasticoSimulation
from repro.chain.node import spawn_nodes
from repro.chain.params import CHAIN_ENGINE_NAMES, ChainParams
from repro.chain.pbft import run_pbft_round
from repro.core.dynamics import fail_and_recover_schedule
from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.faultinject import ServeStormConfig, StormConfig, run_serve_storm, run_storm
from repro.obs.metrics import MetricsAggregator
from repro.obs.profiling import hotspot_rows, profile_call
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceDecodeError, read_jsonl
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams

from tests.serial_oracle import racing


# --------------------------------------------------------------------- #
# the null hub
# --------------------------------------------------------------------- #
def test_null_telemetry_is_inert():
    hub = NULL_TELEMETRY
    assert hub.enabled is False
    hub.event("x", a=1)
    hub.count("c", 3)
    hub.gauge("g", 2.0)
    hub.observe("h", 1.0)
    hub.record_span("s", 0.0, 1.0)
    with hub.span("outer"):
        pass
    # No sinks and no per-instance state: nothing was recorded anywhere.
    assert not hasattr(hub, "sinks")
    assert not hasattr(hub, "__dict__")
    hub.close()


def test_telemetry_is_a_null_telemetry():
    # NullTelemetry doubles as the injected-parameter type annotation.
    assert isinstance(Telemetry(), NullTelemetry)


# --------------------------------------------------------------------- #
# the recording hub
# --------------------------------------------------------------------- #
def test_default_clock_is_emission_sequence():
    ring = RingBufferSink()
    hub = Telemetry(sinks=[ring])
    hub.event("a")
    hub.event("b")
    records = ring.records
    assert [r["seq"] for r in records] == [1, 2]
    # Deterministic t: the pre-emission sequence number, no wall field.
    assert [r["t"] for r in records] == [0.0, 1.0]
    assert all("wall" not in r for r in records)


def test_wall_clock_adds_wall_field_and_span_wall_dt():
    wall = iter([1.0, 2.0, 5.0, 9.0])
    ring = RingBufferSink()
    hub = Telemetry(wall_clock=lambda: next(wall), sinks=[ring])
    with hub.span("work") as handle:
        hub.event("inside")
    span = ring.records[-1]
    assert span["type"] == "span"
    # enter reads 1.0, the inner event stamps 2.0, exit reads 5.0 for the
    # duration, and the span record itself is stamped 9.0 on emission.
    assert span["wall_dt"] == pytest.approx(5.0 - 1.0)
    assert handle.wall_dt == span["wall_dt"]  # kept on the handle after exit
    assert ring.records[0]["wall"] == 2.0
    assert span["wall"] == 9.0


def test_counters_gauges_histograms_aggregate():
    ring = RingBufferSink()
    aggregator = MetricsAggregator()
    hub = Telemetry(sinks=[ring, aggregator])
    hub.count("resets", 2)
    hub.count("resets", 3)
    hub.gauge("depth", 1.0)
    hub.gauge("depth", 4.0)
    for value in (1.0, 2.0, 3.0):
        hub.observe("age", value)
    # Counter records carry the hub's running total.
    assert [r["total"] for r in ring.records if r["type"] == "counter"] == [2, 5]
    assert aggregator.series("counter", "resets").total == 5
    assert aggregator.series("gauge", "depth").last_value == 4.0
    age = aggregator.series("hist", "age").stats()
    assert (age["count"], age["sum"], age["mean"], age["min"], age["max"]) == (
        3, 6.0, 2.0, 1.0, 3.0,
    )
    assert aggregator.records == 7
    assert ring.records[-1]["seq"] == 7


def test_nested_spans_record_depth_and_aggregate():
    ring = RingBufferSink()
    aggregator = MetricsAggregator()
    hub = Telemetry(sinks=[ring, aggregator])
    with hub.span("outer"):
        with hub.span("inner"):
            hub.event("tick")
    spans = [r for r in ring.records if r["type"] == "span"]
    by_name = {r["name"]: r for r in spans}
    assert by_name["inner"]["depth"] == 1  # emitted while outer is still open
    assert by_name["outer"]["depth"] == 0
    assert aggregator.series("span", "outer").count == 1
    assert aggregator.series("span", "inner").count == 1


def test_span_marks_error_status_on_exception():
    ring = RingBufferSink()
    hub = Telemetry(sinks=[ring])
    with pytest.raises(RuntimeError):
        with hub.span("doomed"):
            raise RuntimeError("boom")
    assert ring.records[-1]["status"] == "error"


def test_record_span_uses_caller_timestamps():
    ring = RingBufferSink()
    aggregator = MetricsAggregator()
    hub = Telemetry(sinks=[ring, aggregator])
    hub.record_span("pbft", 3.0, 7.5, tag="r0")
    record = ring.records[-1]
    assert (record["t0"], record["t1"], record["t"], record["dt"]) == (3.0, 7.5, 7.5, 4.5)
    assert record["tag"] == "r0"
    assert aggregator.series("span", "pbft").sketch.total == pytest.approx(4.5)
    assert aggregator.series("span", "pbft", "tag=r0").count == 1


# --------------------------------------------------------------------- #
# sinks
# --------------------------------------------------------------------- #
def test_ring_buffer_evicts_oldest():
    ring = RingBufferSink(capacity=2)
    for i in range(4):
        ring.emit({"seq": i})
    assert [r["seq"] for r in ring.records] == [2, 3]
    ring.clear()
    assert len(ring) == 0
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_jsonl_sink_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        sink.emit({"seq": 1, "name": "a", "mask": np.array([True, False]), "n": np.int64(3)})
        sink.emit({"seq": 2, "name": "b", "members": {2, 1}})
    records = read_jsonl(path)
    assert records[0]["mask"] == [True, False]
    assert records[0]["n"] == 3
    assert records[1]["members"] == [1, 2]
    with pytest.raises(ValueError):
        sink.emit({"seq": 3})  # closed


def test_jsonl_sink_accepts_file_object():
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    sink.emit({"seq": 1})
    sink.close()
    assert json.loads(buffer.getvalue()) == {"seq": 1}
    assert not buffer.closed  # caller-owned handles stay open


def test_read_jsonl_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 1}\n\nnot json\n')
    with pytest.raises(TraceDecodeError, match="bad.jsonl:3"):
        read_jsonl(path)


def test_telemetry_close_closes_owned_sinks(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    hub = Telemetry(sinks=[sink])
    hub.event("only")
    hub.close()
    assert len(read_jsonl(path)) == 1
    with pytest.raises(ValueError):
        sink.emit({"seq": 2})


# --------------------------------------------------------------------- #
# profiling
# --------------------------------------------------------------------- #
def test_profile_call_passes_result_and_emits_hotspots():
    ring = RingBufferSink()
    hub = Telemetry(sinks=[ring])
    result, rows = profile_call(
        sorted, list(range(200))[::-1], telemetry=hub, name="sort", top_n=3
    )
    assert result == list(range(200))
    assert 0 < len(rows) <= 3
    assert {"function", "calls", "tottime_s", "cumtime_s"} <= set(rows[0])
    event = ring.records[-1]
    assert event["name"] == "profile.hotspots"
    assert event["target"] == "sort"
    assert event["hotspots"] == rows


def test_hotspot_rows_rejects_nonpositive_top_n():
    import cProfile

    with pytest.raises(ValueError):
        hotspot_rows(cProfile.Profile(), top_n=0)


# --------------------------------------------------------------------- #
# hot-path emissions
# --------------------------------------------------------------------- #
def _small_instance(num_committees=12, seed=0):
    return generate_epoch_workload(
        WorkloadConfig(num_committees=num_committees, capacity=1000 * num_committees, seed=seed)
    ).instance


def test_se_solve_emits_transitions_resets_and_rounds():
    ring = RingBufferSink()
    hub = Telemetry(sinks=[ring])
    config = SEConfig(num_threads=2, max_iterations=50, convergence_window=25, seed=0)
    StochasticExploration(config, telemetry=hub).solve(_small_instance())
    names = {r["name"] for r in ring.records}
    assert {"se.bootstrap", "se.transition", "se.round", "se.done"} <= names
    resets = [r for r in ring.records if r["name"] == "se.reset_broadcasts"]
    assert resets[-1]["total"] == sum(r["inc"] for r in resets) > 0
    transition = next(r for r in ring.records if r["name"] == "se.transition")
    assert {"iteration", "replica", "cardinality", "swap_out", "swap_in", "utility"} <= set(
        transition
    )


def test_se_solve_is_byte_identical_under_telemetry():
    instance = _small_instance()
    config = SEConfig(num_threads=3, max_iterations=80, convergence_window=40, seed=7)
    plain = StochasticExploration(config).solve(instance)
    traced = StochasticExploration(
        config, telemetry=Telemetry(sinks=[RingBufferSink()])
    ).solve(instance)
    assert np.array_equal(plain.best_mask, traced.best_mask)
    assert plain.best_utility == traced.best_utility
    assert np.array_equal(plain.utility_trace, traced.utility_trace)
    assert np.array_equal(plain.current_trace, traced.current_trace)
    assert plain.iterations == traced.iterations


def test_sim_engine_emits_run_stats():
    ring = RingBufferSink()
    engine = SimulationEngine(telemetry=Telemetry(sinks=[ring]))
    engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.run()
    record = next(r for r in ring.records if r["name"] == "sim.run")
    assert record["events"] == 2
    assert record["t_end"] == pytest.approx(2.0)


def test_pbft_round_emits_sim_time_span():
    ring = RingBufferSink()
    hub = Telemetry(sinks=[ring])
    streams = RandomStreams(3)
    params = ChainParams()
    members = spawn_nodes(count=7, byzantine_fraction=0.0, rng=streams.get("members"))
    outcome = run_pbft_round(
        members=members,
        rng=streams.get("pbft"),
        network_params=params.network,
        verify_mean_s=calibrated_verify_mean(params),
        round_tag="t-span",
        telemetry=hub,
    )
    assert outcome.committed
    span = next(r for r in ring.records if r["name"] == "chain.pbft.round")
    # The span sits on simulation time, not the hub's sequence clock.
    assert span["t0"] == 0.0
    assert span["dt"] == pytest.approx(outcome.latency)
    assert span["tag"] == "t-span"
    assert "commit-quorum" in span["stages"]


# --------------------------------------------------------------------- #
# the disabled-hub path: a hub with enabled = False receives no emission
# --------------------------------------------------------------------- #
class _CountingNullHub(NullTelemetry):
    """A disabled hub recording every emitter call that reaches it."""

    enabled = False

    def __init__(self):
        self.calls = []

    def event(self, name, **fields):
        self.calls.append(("event", name))

    def event_rows(self, name, count, **columns):
        self.calls.append(("event_rows", name))

    def count(self, name, value=1, **fields):
        self.calls.append(("count", name))

    def gauge(self, name, value, **fields):
        self.calls.append(("gauge", name))

    def observe(self, name, value, **fields):
        self.calls.append(("observe", name))

    def span(self, name, **fields):
        self.calls.append(("span", name))
        return super().span(name, **fields)

    def record_span(self, name, start, end, **fields):
        self.calls.append(("record_span", name))


@pytest.mark.parametrize("engine", ["serial", "vectorized"])
def test_disabled_hub_receives_no_emission_from_se_solves(engine):
    # Every emission in the SE race sits behind ``telemetry.enabled``: a
    # cold solve with a LEAVE/JOIN schedule and a warm follow-up never call
    # an emitter on a disabled hub, callees included, on the race kernel
    # and on the serial oracle alike.
    instance = _small_instance(num_committees=20, seed=4)
    schedule = fail_and_recover_schedule(
        shard_id=int(instance.shard_ids[2]),
        tx_count=int(instance.tx_counts[2]),
        latency=float(instance.latencies[2]),
        fail_at=40,
        recover_at=120,
    )
    config = SEConfig(num_threads=3, max_iterations=200, convergence_window=100, seed=4)
    hub = _CountingNullHub()
    solver = StochasticExploration(config, telemetry=hub)
    with racing(engine):
        cold = solver.solve(instance, schedule=schedule)
        assert len(cold.events_applied) == 2
        solver.solve(instance, warm=cold)
    assert hub.calls == []


def test_disabled_hub_receives_no_emission_from_storms():
    # The storm layer's ``storm.*`` events, its probe and every solve it
    # drives stay silent on a disabled hub: one churn storm against a
    # single solve, and one two-epoch storm through the warm serve loop.
    hub = _CountingNullHub()
    single = run_storm(StormConfig(seed=3, num_events=40, num_committees=18,
                                   max_iterations=300, convergence_window=150),
                       telemetry=hub)
    served = run_serve_storm(ServeStormConfig(seed=2, epochs=2, num_committees=20,
                                              events_per_epoch=10, max_iterations=200,
                                              convergence_window=100),
                             telemetry=hub)
    assert single.boundaries and served.checks_run > 0
    assert len(served.epoch_outcomes) == 2
    assert hub.calls == []


@pytest.mark.parametrize("chain_engine", CHAIN_ENGINE_NAMES)
def test_disabled_hub_receives_no_emission_from_chain_epochs(chain_engine):
    # Byzantine members drive the fastpath's DES fallback replays too.
    params = ChainParams(
        num_nodes=480, committee_size=8, seed=5, byzantine_fraction=0.2,
        chain_engine=chain_engine,
    )
    hub = _CountingNullHub()
    sim = ElasticoSimulation(params, telemetry=hub)
    for _ in range(2):
        sim.run_epoch()
    assert hub.calls == []
