"""Experiment implementations, one per paper figure.

Every function returns a plain dict of rows/series -- the exact data the
corresponding figure plots -- so the benches, the CLI and EXPERIMENTS.md
all consume the same artifacts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.baselines import (
    DynamicProgrammingScheduler,
    GreedyDensityScheduler,
    RandomSearchScheduler,
    Scheduler,
    SimulatedAnnealingScheduler,
    WhaleOptimizationScheduler,
)
from repro.chain.measurement import linear_growth_check, measure_two_phase_latency
from repro.chain.params import ChainParams
from repro.core.dynamics import fail_and_recover_schedule
from repro.core.failure import analyze_failure, space_sizes, tv_distance_bound
from repro.core.markov import (
    build_chain,
    detailed_balance_residual,
    empirical_mixing_time,
    is_irreducible,
    mixing_time_lower_bound,
    mixing_time_upper_bound,
)
from repro.core.problem import EpochInstance
from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import (
    WorkloadConfig,
    generate_epoch_workload,
    generate_online_workload,
)
from repro.harness.presets import PRESETS, FigurePreset
from repro.metrics.traces import align_traces, converged_value
from repro.metrics.valuable_degree import valuable_degree


# --------------------------------------------------------------------- #
# shared pieces
# --------------------------------------------------------------------- #
def _workload_config(
    preset: FigurePreset,
    seed: int,
    alpha: Optional[float] = None,
    num_committees: Optional[int] = None,
    capacity: Optional[int] = None,
) -> WorkloadConfig:
    return WorkloadConfig(
        num_committees=num_committees or preset.num_committees,
        capacity=capacity or preset.capacity,
        alpha=alpha if alpha is not None else preset.alpha,
        seed=seed,
    )


def _se_config(preset: FigurePreset, seed: int, gamma: Optional[int] = None) -> SEConfig:
    return SEConfig(
        num_threads=gamma or preset.gamma,
        max_iterations=preset.se_iterations,
        convergence_window=preset.convergence_window,
        seed=seed,
    )


def paper_baselines(seed: int) -> List[Scheduler]:
    """The paper's three baselines (Section VI-B)."""
    return [
        SimulatedAnnealingScheduler(seed=seed),
        DynamicProgrammingScheduler(seed=seed),
        WhaleOptimizationScheduler(seed=seed),
    ]


def extra_baselines(seed: int) -> List[Scheduler]:
    """Reference points beyond the paper's trio (ablation benches)."""
    return [GreedyDensityScheduler(seed=seed), RandomSearchScheduler(seed=seed)]


def run_all_algorithms(
    instance: EpochInstance,
    preset: FigurePreset,
    seed: int,
    gamma: Optional[int] = None,
    include_extras: bool = False,
) -> Dict[str, dict]:
    """Run SE + baselines on one instance; returns per-algorithm records."""
    records: Dict[str, dict] = {}
    se_result = StochasticExploration(_se_config(preset, seed, gamma)).solve(instance)
    records["SE"] = {
        "utility": se_result.best_utility,
        "count": se_result.best_count,
        "weight": se_result.best_weight,
        "trace": se_result.utility_trace,
        "valuable_degree": valuable_degree(instance, se_result.best_mask),
        "mask": se_result.best_mask,
    }
    schedulers = paper_baselines(seed) + (extra_baselines(seed) if include_extras else [])
    for scheduler in schedulers:
        result = scheduler.solve(instance, preset.baseline_iterations)
        records[scheduler.name] = {
            "utility": result.utility,
            "count": result.count,
            "weight": result.weight,
            "trace": result.utility_trace,
            "valuable_degree": valuable_degree(instance, result.mask),
            "mask": result.mask,
        }
    return records


# --------------------------------------------------------------------- #
# Fig. 2 -- two-phase latency measurement on the Elastico substrate
# --------------------------------------------------------------------- #
def run_fig02_two_phase_latency(
    preset: FigurePreset = PRESETS["fig02"],
    chain_engine: Optional[str] = None,
) -> dict:
    """Fig. 2: measure two-phase latency on the Elastico substrate.

    ``chain_engine`` picks the substrate implementation (``"des"``
    reference or the ``"fastpath"`` closed-form kernel); ``None`` keeps
    the preset's :class:`~repro.chain.params.ChainParams` default.
    """
    sizes = preset.extras["network_sizes"]
    params = ChainParams(
        num_nodes=min(sizes),
        committee_size=int(preset.extras["committee_size"]),
        seed=preset.seeds[0],
    )
    measurements = measure_two_phase_latency(
        params,
        sizes,
        epochs_per_size=int(preset.extras["epochs_per_size"]),
        chain_engine=chain_engine,
    )
    fit = linear_growth_check(measurements)
    cdf_size = int(preset.extras["cdf_network_size"])
    cdf_measurement = next((m for m in measurements if m.num_nodes == cdf_size), measurements[-1])
    return {
        "figure": "fig02",
        "rows": [
            {
                "num_nodes": m.num_nodes,
                "mean_formation_s": round(m.mean_formation, 2),
                "mean_consensus_s": round(m.mean_consensus, 2),
                "mean_two_phase_s": round(m.mean_two_phase, 2),
            }
            for m in measurements
        ],
        "linear_fit": fit,
        "cdf": {
            "num_nodes": cdf_measurement.num_nodes,
            "formation": cdf_measurement.cdf("formation"),
            "consensus": cdf_measurement.cdf("consensus"),
        },
    }


# --------------------------------------------------------------------- #
# Fig. 8 -- effect of the number of parallel execution threads
# --------------------------------------------------------------------- #
def run_fig08_parallel_threads(preset: FigurePreset = PRESETS["fig08"]) -> dict:
    """Fig. 8: SE convergence for each Gamma in the preset sweep."""
    workload = generate_epoch_workload(_workload_config(preset, preset.seeds[0]))
    traces: Dict[str, np.ndarray] = {}
    converged: Dict[str, float] = {}
    for gamma in preset.extras["gammas"]:
        result = StochasticExploration(_se_config(preset, preset.seeds[0], gamma=gamma)).solve(
            workload.instance
        )
        traces[f"Gamma={gamma}"] = result.utility_trace
        converged[f"Gamma={gamma}"] = converged_value(result.utility_trace)
    return {
        "figure": "fig08",
        "traces": align_traces(traces),
        "converged": converged,
        "instance": repr(workload.instance),
    }


# --------------------------------------------------------------------- #
# Fig. 9 -- dynamic event handling
# --------------------------------------------------------------------- #
def run_fig09_dynamic_events(
    preset_a: FigurePreset = PRESETS["fig09a"],
    preset_b: FigurePreset = PRESETS["fig09b"],
) -> dict:
    # (a) leave (failure) then rejoin.
    """Fig. 9: leave/rejoin (a) and consecutive joins (b)."""
    workload_a = generate_epoch_workload(_workload_config(preset_a, preset_a.seeds[0]))
    instance_a = workload_a.instance
    # Fail the highest-TX selected-ish committee so the dip is visible.
    victim_position = int(np.argmax(instance_a.tx_counts))
    victim_id = instance_a.shard_ids[victim_position]
    schedule_a = fail_and_recover_schedule(
        shard_id=victim_id,
        tx_count=int(instance_a.tx_counts[victim_position]),
        latency=float(instance_a.latencies[victim_position]),
        fail_at=int(preset_a.extras["fail_at"]),
        recover_at=int(preset_a.extras["recover_at"]),
    )
    result_a = StochasticExploration(_se_config(preset_a, preset_a.seeds[0])).solve(
        instance_a, schedule=schedule_a
    )

    # (b) consecutive joins.
    workload_b = generate_online_workload(
        _workload_config(preset_b, preset_b.seeds[0]),
        num_initial=int(preset_b.extras["num_initial"]),
        join_start=int(preset_b.extras["join_start"]),
        join_spacing=int(preset_b.extras["join_spacing"]),
    )
    result_b = StochasticExploration(_se_config(preset_b, preset_b.seeds[0])).solve(
        workload_b.instance, schedule=workload_b.schedule
    )
    return {
        "figure": "fig09",
        "leave_rejoin": {
            "current_trace": result_a.current_trace,
            "best_trace": result_a.utility_trace,
            "events": [(e.iteration, e.kind.value) for e in result_a.events_applied],
            "victim": victim_id,
        },
        "consecutive_joins": {
            "current_trace": result_b.current_trace,
            "best_trace": result_b.utility_trace,
            "events": [(e.iteration, e.kind.value) for e in result_b.events_applied],
        },
    }


# --------------------------------------------------------------------- #
# Fig. 10 -- Valuable Degree comparison
# --------------------------------------------------------------------- #
def _fig10_trial(preset: FigurePreset, seed: int) -> Dict[str, float]:
    """One fig10 seed: Valuable Degree per algorithm."""
    workload = generate_epoch_workload(_workload_config(preset, seed))
    records = run_all_algorithms(workload.instance, preset, seed)
    return {name: record["valuable_degree"] for name, record in records.items()}


def run_fig10_valuable_degree(preset: FigurePreset = PRESETS["fig10"]) -> dict:
    """Fig. 10: Valuable Degree of SE vs the baselines."""
    trials = [_fig10_trial(preset, seed) for seed in preset.seeds]
    per_algorithm: Dict[str, List[float]] = {}
    for trial in trials:
        for name, value in trial.items():
            per_algorithm.setdefault(name, []).append(value)
    rows = [
        {
            "algorithm": name,
            "valuable_degree_mean": round(float(np.mean(values)), 2),
            "valuable_degree_std": round(float(np.std(values)), 2),
            "trials": len(values),
        }
        for name, values in per_algorithm.items()
    ]
    rows.sort(key=lambda row: -row["valuable_degree_mean"])
    # VD scales differ wildly across epochs (the DDL draw dominates), so the
    # figure's comparisons are per-trial ratios against SE, not raw means.
    ratios_vs_se = {
        name: [value / se for value, se in zip(values, per_algorithm["SE"])]
        for name, values in per_algorithm.items()
    }
    return {
        "figure": "fig10",
        "rows": rows,
        "samples": per_algorithm,
        "mean_ratio_vs_se": {name: float(np.mean(r)) for name, r in ratios_vs_se.items()},
    }


# --------------------------------------------------------------------- #
# Fig. 11 -- varying |I_j| with a fixed set of arrived committees
# --------------------------------------------------------------------- #
def _fig11_trial(preset: FigurePreset, size: int) -> dict:
    """One fig11 committee-set size: a full convergence panel."""
    per_committee = int(preset.extras["capacity_per_committee"])
    workload = generate_epoch_workload(
        _workload_config(preset, preset.seeds[0], num_committees=size, capacity=per_committee * size)
    )
    records = run_all_algorithms(workload.instance, preset, preset.seeds[0])
    return {
        "traces": align_traces({name: r["trace"] for name, r in records.items()}),
        "converged": {name: converged_value(r["trace"]) for name, r in records.items()},
        "utility": {name: r["utility"] for name, r in records.items()},
    }


def run_fig11_vary_committees(preset: FigurePreset = PRESETS["fig11"]) -> dict:
    """Fig. 11: convergence panels while varying |I_j|."""
    sizes = preset.extras["sizes"]
    trials = [_fig11_trial(preset, size) for size in sizes]
    panels = {f"|Ij|={size}": panel for size, panel in zip(sizes, trials)}
    return {"figure": "fig11", "panels": panels}


# --------------------------------------------------------------------- #
# Fig. 12 -- varying alpha with a fixed set of arrived committees
# --------------------------------------------------------------------- #
def _fig12_trial(preset: FigurePreset, alpha: float) -> dict:
    """One fig12 alpha: a full convergence panel."""
    workload = generate_epoch_workload(_workload_config(preset, preset.seeds[0], alpha=alpha))
    records = run_all_algorithms(workload.instance, preset, preset.seeds[0])
    return {
        "traces": align_traces({name: r["trace"] for name, r in records.items()}),
        "converged": {name: converged_value(r["trace"]) for name, r in records.items()},
        "utility": {name: r["utility"] for name, r in records.items()},
    }


def run_fig12_vary_alpha(preset: FigurePreset = PRESETS["fig12"]) -> dict:
    """Fig. 12: convergence panels while varying alpha."""
    alphas = preset.extras["alphas"]
    trials = [_fig12_trial(preset, alpha) for alpha in alphas]
    panels = {f"alpha={alpha}": panel for alpha, panel in zip(alphas, trials)}
    return {"figure": "fig12", "panels": panels}


# --------------------------------------------------------------------- #
# Fig. 13 -- distribution of converged utilities
# --------------------------------------------------------------------- #
def _fig13_trial(preset: FigurePreset, alpha: float, seed: int) -> Dict[str, float]:
    """One fig13 (alpha, seed) trial: converged utility per algorithm.

    The workload is regenerated per trial from ``preset.seeds[0]`` -- it
    is a pure function of the config, so every trial of one alpha sees the
    identical fixed committee set and only the algorithm seed varies.
    """
    workload = generate_epoch_workload(_workload_config(preset, preset.seeds[0], alpha=alpha))
    records = run_all_algorithms(workload.instance, preset, seed)
    return {name: record["utility"] for name, record in records.items()}


def run_fig13_utility_distribution(preset: FigurePreset = PRESETS["fig13"]) -> dict:
    """Fig. 13 fixes the committee set ("with a fixed set of committees")
    and varies only the algorithms' randomness across trials."""
    alphas = preset.extras["alphas"]
    trials = [
        _fig13_trial(preset, alpha, seed) for alpha in alphas for seed in preset.seeds
    ]
    panels = {}
    for alpha_index, alpha in enumerate(alphas):
        samples: Dict[str, List[float]] = {}
        for seed_index in range(len(preset.seeds)):
            trial = trials[alpha_index * len(preset.seeds) + seed_index]
            for name, utility in trial.items():
                samples.setdefault(name, []).append(utility)
        panels[f"alpha={alpha}"] = {
            name: {
                "mean": round(float(np.mean(values)), 2),
                "std": round(float(np.std(values)), 2),
                "min": round(float(np.min(values)), 2),
                "median": round(float(np.median(values)), 2),
                "max": round(float(np.max(values)), 2),
                "samples": values,
            }
            for name, values in samples.items()
        }
    return {"figure": "fig13", "panels": panels, "trials": len(preset.seeds)}


# --------------------------------------------------------------------- #
# Fig. 14 -- online execution with consecutive joining
# --------------------------------------------------------------------- #
def _fig14_trial(preset: FigurePreset, alpha: float) -> dict:
    """One fig14 alpha: online SE vs offline baselines."""
    config = _workload_config(preset, preset.seeds[0], alpha=alpha)
    workload = generate_online_workload(
        config,
        num_initial=int(preset.extras["num_initial"]),
        join_start=int(preset.extras["join_start"]),
        join_spacing=int(preset.extras["join_spacing"]),
    )
    se_result = StochasticExploration(_se_config(preset, preset.seeds[0])).solve(
        workload.instance, schedule=workload.schedule
    )
    # Baselines are offline: they schedule the fully-arrived window
    # (what they would produce once every join has landed).
    final_instance = se_result.final_instance
    records: Dict[str, dict] = {
        "SE": {"utility": se_result.best_utility, "trace": se_result.utility_trace}
    }
    for scheduler in paper_baselines(preset.seeds[0]):
        result = scheduler.solve(final_instance, preset.baseline_iterations)
        records[scheduler.name] = {"utility": result.utility, "trace": result.utility_trace}
    return {
        "traces": align_traces({name: r["trace"] for name, r in records.items()}),
        "utility": {name: r["utility"] for name, r in records.items()},
        "joins": len(workload.schedule),
    }


def run_fig14_online_joining(preset: FigurePreset = PRESETS["fig14"]) -> dict:
    """Fig. 14: online SE under consecutive joins vs offline baselines."""
    alphas = preset.extras["alphas"]
    trials = [_fig14_trial(preset, alpha) for alpha in alphas]
    panels = {f"alpha={alpha}": panel for alpha, panel in zip(alphas, trials)}
    return {"figure": "fig14", "panels": panels}


# --------------------------------------------------------------------- #
# Theory benches -- Theorem 1, Lemma 4 / Theorem 2
# --------------------------------------------------------------------- #
def _small_instance(preset: FigurePreset, seed: int = 11) -> EpochInstance:
    workload = generate_epoch_workload(
        WorkloadConfig(
            num_committees=preset.num_committees,
            capacity=preset.capacity,
            alpha=preset.alpha,
            seed=seed,
            n_max_fraction=1.0,  # keep every committee: the theory uses the full set
        )
    )
    return workload.instance


def run_theory_mixing_time(preset: FigurePreset = PRESETS["theory_mixing"]) -> dict:
    """Theorem 1: empirical mixing time vs eqs. (12)-(13)."""
    instance = _small_instance(preset)
    cardinality = int(preset.extras["cardinality"])
    epsilon = float(preset.extras["epsilon"])
    rows = []
    for beta in preset.extras["betas"]:
        chain = build_chain(instance, cardinality, beta=beta)
        u_max, u_min = float(chain.utilities.max()), float(chain.utilities.min())
        rows.append(
            {
                "beta": beta,
                "states": chain.num_states,
                "irreducible": is_irreducible(chain),
                "detailed_balance_residual": detailed_balance_residual(chain),
                "empirical_tmix_s": empirical_mixing_time(chain, epsilon),
                "lower_bound_s": mixing_time_lower_bound(
                    instance.num_shards, beta, 0.0, u_max, u_min, epsilon
                ),
                "upper_bound_s": mixing_time_upper_bound(
                    instance.num_shards, beta, 0.0, u_max, u_min, epsilon
                ),
            }
        )
    return {"figure": "theory_mixing", "rows": rows, "epsilon": epsilon}


def run_theory_failure(preset: FigurePreset = PRESETS["theory_failure"]) -> dict:
    """Lemma 4 / Theorem 2: exact failure perturbation quantities."""
    instance = _small_instance(preset)
    sizes = space_sizes(instance.num_shards)
    rows = []
    for beta in preset.extras["betas"]:
        for failed_position in range(min(instance.num_shards, 4)):
            analysis = analyze_failure(instance, failed_position, beta)
            rows.append(
                {
                    "beta": beta,
                    "failed_committee": instance.shard_ids[failed_position],
                    "tv_distance": round(analysis.tv_distance, 6),
                    "tv_bound": analysis.tv_bound,
                    "tv_ok": analysis.tv_within_bound,
                    "perturbation": round(analysis.utility_perturbation, 3),
                    "perturbation_bound": round(analysis.perturbation_bound, 3),
                    "perturbation_ok": analysis.perturbation_within_bound,
                }
            )
    return {
        "figure": "theory_failure",
        "rows": rows,
        "space": {
            "full": sizes.full,
            "trimmed": sizes.trimmed,
            "removed_fraction": sizes.removed_fraction,
            "lemma4_bound": tv_distance_bound(),
        },
    }
