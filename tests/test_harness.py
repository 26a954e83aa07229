"""Tests for the experiment harness (presets, report, small experiment runs)."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.harness.experiments import (
    run_fig02_two_phase_latency,
    run_fig08_parallel_threads,
    run_fig09_dynamic_events,
    run_fig10_valuable_degree,
    run_fig11_vary_committees,
    run_fig12_vary_alpha,
    run_fig13_utility_distribution,
    run_fig14_online_joining,
    run_theory_failure,
    run_theory_mixing_time,
)
from repro.harness.presets import PRESETS, FigurePreset, list_presets
from repro.harness.report import (
    render_table,
    sample_trace,
    traces_table,
    traces_to_rows,
    write_csv,
)


class TestPresets:
    def test_every_figure_has_a_preset(self):
        expected = {"fig02", "fig08", "fig09a", "fig09b", "fig10", "fig11",
                    "fig12", "fig13", "fig14", "theory_mixing", "theory_failure"}
        assert expected <= set(list_presets())

    def test_paper_parameters(self):
        assert PRESETS["fig08"].num_committees == 500
        assert PRESETS["fig08"].capacity == 500_000
        assert PRESETS["fig08"].extras["gammas"] == (1, 5, 10, 25)
        assert PRESETS["fig09a"].capacity == 40_000
        assert PRESETS["fig09b"].num_committees == 100
        assert PRESETS["fig10"].gamma == 25
        assert PRESETS["fig11"].extras["sizes"] == (500, 800, 1000)
        assert PRESETS["fig12"].extras["alphas"] == (1.5, 5.0, 10.0)
        # Fig. 14: 17 initial + 23 joins = 40 = 80% of 50.
        assert PRESETS["fig14"].extras["num_initial"] == 17


class TestReport:
    def test_render_table_alignment(self):
        table = render_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_table_handles_missing_keys(self):
        table = render_table([{"a": 1}, {"b": 2}])
        assert "a" in table and "b" in table

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="x")

    def test_sample_trace_downsamples(self):
        rows = sample_trace(list(range(100)), points=5)
        assert len(rows) == 5
        assert rows[0]["iteration"] == 0
        assert rows[-1]["iteration"] == 99

    def test_traces_table_mixed_lengths(self):
        table = traces_table({"long": list(range(50)), "short": [7.0]}, points=4)
        assert "long" in table and "short" in table

    def test_traces_to_rows_long_format(self):
        rows = traces_to_rows({"a": [1.0, 2.0]})
        assert rows == [
            {"iteration": 0, "series": "a", "value": 1.0},
            {"iteration": 1, "series": "a", "value": 2.0},
        ]

    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv("test.csv", [{"x": 1, "y": "a"}], results_dir=str(tmp_path))
        assert os.path.exists(path)
        content = open(path).read()
        assert "x,y" in content and "1,a" in content


def _shrink(preset: FigurePreset, **extra) -> FigurePreset:
    """Tiny version of a preset so experiment smoke tests stay fast."""
    return replace(
        preset,
        num_committees=extra.pop("num_committees", 20),
        capacity=extra.pop("capacity", 16_000),
        gamma=2,
        se_iterations=400,
        baseline_iterations=400,
        convergence_window=400,
        seeds=(1,),
        extras={**preset.extras, **extra},
    )


class TestExperimentsSmoke:
    def test_fig10_orders_algorithms(self):
        # VD separation between SE and DP needs enough shard-size diversity
        # to matter; 120 committees is the smallest scale where Fig. 10's
        # shape is unambiguous.
        preset = _shrink(
            PRESETS["fig10"], num_committees=120, capacity=100_000
        )
        from dataclasses import replace
        preset = replace(preset, gamma=3, se_iterations=1_500,
                         baseline_iterations=1_500, convergence_window=1_500)
        result = run_fig10_valuable_degree(preset)
        names = {row["algorithm"] for row in result["rows"]}
        assert names == {"SE", "SA", "DP", "WOA"}
        by_name = {row["algorithm"]: row["valuable_degree_mean"] for row in result["rows"]}
        assert by_name["SE"] > 2 * by_name["DP"]  # the Fig. 10 headline

    def test_fig12_panels_grow_with_alpha(self):
        preset = _shrink(PRESETS["fig12"], alphas=(1.5, 10.0))
        result = run_fig12_vary_alpha(preset)
        low = result["panels"]["alpha=1.5"]["converged"]["SE"]
        high = result["panels"]["alpha=10.0"]["converged"]["SE"]
        assert high > low  # utilities grow with alpha (Fig. 12 claim)

    def test_fig09_applies_events(self):
        preset_a = _shrink(PRESETS["fig09a"], fail_at=100, recover_at=250)
        preset_b = _shrink(PRESETS["fig09b"], num_initial=8, join_start=50, join_spacing=40)
        result = run_fig09_dynamic_events(preset_a, preset_b)
        assert [kind for _, kind in result["leave_rejoin"]["events"]] == ["leave", "join"]
        assert len(result["consecutive_joins"]["events"]) > 0

    def test_fig02_series_shape(self):
        preset = replace(
            PRESETS["fig02"],
            extras={**PRESETS["fig02"].extras,
                    "network_sizes": (80, 160), "epochs_per_size": 1, "cdf_network_size": 160},
        )
        result = run_fig02_two_phase_latency(preset)
        assert len(result["rows"]) == 2
        for row in result["rows"]:
            assert row["mean_formation_s"] > row["mean_consensus_s"]
        values, fractions = result["cdf"]["formation"]
        assert fractions[-1] == pytest.approx(1.0)

    def test_fig08_gamma_monotone(self):
        preset = _shrink(PRESETS["fig08"], gammas=(1, 4))
        result = run_fig08_parallel_threads(preset)
        assert set(result["traces"]) == {"Gamma=1", "Gamma=4"}
        assert result["converged"]["Gamma=4"] >= 0.99 * result["converged"]["Gamma=1"]

    def test_fig11_panels_scale_with_size(self):
        preset = replace(
            _shrink(PRESETS["fig11"]),
            extras={"sizes": (20, 40), "capacity_per_committee": 1000},
        )
        result = run_fig11_vary_committees(preset)
        small = result["panels"]["|Ij|=20"]["converged"]["SE"]
        large = result["panels"]["|Ij|=40"]["converged"]["SE"]
        assert large > small  # more committees, bigger block, more utility

    def test_fig13_distribution_stats_consistent(self):
        preset = replace(_shrink(PRESETS["fig13"]), seeds=(1, 2, 3),
                         extras={"alphas": (1.5,)})
        result = run_fig13_utility_distribution(preset)
        stats = result["panels"]["alpha=1.5"]["SE"]
        assert stats["min"] <= stats["median"] <= stats["max"]
        assert len(stats["samples"]) == 3

    def test_fig14_counts_joins(self):
        preset = replace(
            _shrink(PRESETS["fig14"]),
            extras={"alphas": (1.5,), "num_initial": 6, "join_start": 50, "join_spacing": 30},
        )
        result = run_fig14_online_joining(preset)
        panel = result["panels"]["alpha=1.5"]
        assert panel["joins"] == 16 - 6  # N_max window of 20 committees is 16
        assert set(panel["utility"]) == {"SE", "SA", "DP", "WOA"}

    def test_theory_runs_and_bounds_hold(self):
        mixing = run_theory_mixing_time()
        for row in mixing["rows"]:
            assert row["irreducible"]
            assert row["detailed_balance_residual"] < 1e-9
            assert row["lower_bound_s"] <= row["empirical_tmix_s"] <= row["upper_bound_s"]
        failure = run_theory_failure()
        assert all(row["tv_ok"] and row["perturbation_ok"] for row in failure["rows"])
        assert failure["space"]["removed_fraction"] == 0.5
