"""Small versions of the workloads: checks pass, wrappers are restored, ledger adds up."""

import json
import os

import pytest

import workloads
from workloads import ChainWorkload, ServeWorkload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TINY_CHAIN = ChainWorkload(2048, {}, 1.0)
TINY_SERVE = ServeWorkload(12, 2, 0.1, 150, 40, 1.0)


def _entry_points():
    from repro.chain import elastico, final
    from repro.harness import serve

    return dict(vars(elastico)), dict(vars(final)), dict(vars(serve))


@pytest.mark.parametrize("run", [workloads.run_chain, workloads.trace_chain])
def test_tiny_chain_runs_clean(run):
    before = _entry_points()
    result = run(TINY_CHAIN, seed=3, seconds=0)
    assert result.tally.correct, result.tally.failures
    assert _entry_points() == before
    assert set(result.metrics) == set(result.units)


def test_tiny_chain_ledger_attributes_the_epoch():
    metrics = workloads.trace_chain(TINY_CHAIN, seed=1, seconds=0).metrics
    busy = sum(metrics[k] for k in ("formation.busy_s", "pbft.busy_s", "final.busy_s", "se.busy_s"))
    assert busy + metrics["unattributed_s"] == pytest.approx(metrics["epoch.wall_s"])
    assert metrics["pbft.kernel_s"] + metrics["pbft.fallback_s"] <= metrics["pbft.busy_s"]
    assert metrics["pbft.fallbacks"] > 0  # byzantine_fraction=0.1 with 16 committees
    assert metrics["pbft.fallback_s"] > 0


def test_decisions_repeat_for_a_seed():
    first = workloads.run_chain(TINY_CHAIN, seed=5, seconds=0).metrics
    second = workloads.run_chain(TINY_CHAIN, seed=5, seconds=0).metrics
    for name in ("committed_tx", "cumulative_age"):
        assert first[name] == second[name]


@pytest.mark.parametrize("run", [workloads.run_serve_workload, workloads.trace_serve])
def test_tiny_serve_runs_clean(run):
    before = _entry_points()
    result = run(TINY_SERVE, seconds=0)
    assert result.tally.correct, result.tally.failures
    assert _entry_points() == before
    assert set(result.metrics) == set(result.units)


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS
