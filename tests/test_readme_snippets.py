"""Keep the README honest: its quickstart snippet must actually run."""

import importlib.util
from pathlib import Path

def test_readme_quickstart_snippet():
    from repro import (WorkloadConfig, generate_epoch_workload,
                       SEConfig, StochasticExploration, summarize_schedule)

    workload = generate_epoch_workload(
        WorkloadConfig(num_committees=100, capacity=100_000, alpha=1.5, seed=42))
    result = StochasticExploration(
        SEConfig(num_threads=10, max_iterations=1000, convergence_window=400)).solve(
            workload.instance)
    row = summarize_schedule(workload.instance, result.best_mask, "SE").as_row()
    assert row["algorithm"] == "SE"
    assert row["throughput_txs"] <= 100_000
    assert row["feasible"]


def test_package_docstring_example():
    """The example in repro/__init__.py's docstring."""
    from repro import WorkloadConfig, generate_epoch_workload, SEConfig, StochasticExploration

    workload = generate_epoch_workload(WorkloadConfig(num_committees=50, capacity=50_000))
    result = StochasticExploration(SEConfig(num_threads=5, max_iterations=500)).solve(
        workload.instance)
    assert result.best_weight <= workload.instance.capacity


def test_observability_snippet():
    """The README's Observability section, end to end in memory."""
    from repro.core.se import SEConfig, StochasticExploration
    from repro.data.workload import WorkloadConfig, generate_epoch_workload
    from repro.obs import RingBufferSink, Telemetry

    ring = RingBufferSink()
    telemetry = Telemetry(sinks=[ring])
    workload = generate_epoch_workload(WorkloadConfig(num_committees=30, capacity=30_000))
    StochasticExploration(
        SEConfig(num_threads=3, max_iterations=200, convergence_window=100),
        telemetry=telemetry,
    ).solve(workload.instance)
    assert any(r["name"] == "se.transition" for r in ring.records)
    resets = [r for r in ring.records if r["name"] == "se.reset_broadcasts"]
    assert resets[-1]["total"] == sum(r["inc"] for r in resets)


def test_traced_run_example(capsys):
    """examples/traced_run.py must execute and render the trace report."""
    path = Path(__file__).resolve().parent.parent / "examples" / "traced_run.py"
    spec = importlib.util.spec_from_file_location("traced_run_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert "SE solve: utility=" in out
    assert "Top spans by cumulative time" in out
    assert "Profile hotspots" in out
