"""Chain fastpath bench: the round router's batched PBFT kernel vs the DES.

The claim from the chain substrate (:mod:`repro.chain.fastpath`): the
round router :func:`repro.chain.committee.run_pbft_rounds` replaces the
per-message DES with one batched order-statistics kernel call per epoch
(DES replays only for lossy or view-change-timeout rounds).  The all-DES
oracle (``tests.pbft_oracle.rounds_on("des")``) and the router are timed
back to back on the Fig. 2 campaign at every network size, so the
speedup at the largest size IS asserted (same-machine ratio, >= 5x).
Distributional parity is one family: a two-sample KS test
(:mod:`repro.metrics.ks`) on the formation and on the consensus latency
samples at every size, ten tests under Holm's correction at family-wise
alpha=0.01, none of which may reject (the kernel is validated
statistically, not byte-wise; see the module docstring).

Records land in ``BENCH_se_convergence.json`` under ``chain_fastpath``,
with every p-value and the family verdict.
"""

import os
import time

from repro.chain.measurement import measure_two_phase_latency
from repro.chain.params import ChainParams
from repro.harness.presets import PRESETS
from repro.metrics.ks import holm, ks_two_sample
from tests.pbft_oracle import rounds_on

#: Fig. 2 campaign shape (mirrors PRESETS["fig02"]).
_FIG02 = PRESETS["fig02"]
_SIZES = _FIG02.extras["network_sizes"]
_EPOCHS = int(_FIG02.extras["epochs_per_size"])
_COMMITTEE_SIZE = int(_FIG02.extras["committee_size"])
#: min-of-N timing repetitions per (engine, size) cell.
_REPS = 5
#: Family-wise significance level of the Holm-corrected KS family.
_ALPHA = 0.01


def _timed_measurement(engine, num_nodes):
    """Best wall over ``_REPS`` runs of one Fig. 2 size, plus the samples."""
    base = ChainParams(
        num_nodes=min(_SIZES), committee_size=_COMMITTEE_SIZE, seed=_FIG02.seeds[0]
    )
    best_wall, measurement = None, None
    with rounds_on(engine):
        for _ in range(_REPS):
            started = time.perf_counter()
            (measurement,) = measure_two_phase_latency(
                base, [num_nodes], epochs_per_size=_EPOCHS
            )
            wall = time.perf_counter() - started
            best_wall = wall if best_wall is None else min(best_wall, wall)
    return best_wall, measurement


def _ks_p(sample_a, sample_b):
    """Two-sample KS p-value of one latency comparison."""
    return ks_two_sample(sample_a, sample_b, alpha=_ALPHA)[1]


def test_chain_fastpath_bench(perf_recorder):
    # ---- all-DES oracle vs round router across the Fig. 2 campaign ---- #
    # Warm both paths (numpy dispatch, geometry caches) off the clock.
    for engine in ("des", "fastpath"):
        _timed_measurement(engine, min(_SIZES))

    per_size = []
    for num_nodes in _SIZES:
        des_wall, des_m = _timed_measurement("des", num_nodes)
        fast_wall, fast_m = _timed_measurement("fastpath", num_nodes)
        per_size.append(
            {
                "num_nodes": num_nodes,
                "des_wall_s": des_wall,
                "fastpath_wall_s": fast_wall,
                "speedup": des_wall / fast_wall,
                "formation_ks_p": _ks_p(des_m.formation_latencies, fast_m.formation_latencies),
                "consensus_ks_p": _ks_p(des_m.consensus_latencies, fast_m.consensus_latencies),
            }
        )

    # Distributional parity: both latency terms at every size, one family.
    cells = [
        (f"{term}@{row['num_nodes']}", row[f"{term}_ks_p"])
        for row in per_size
        for term in ("formation", "consensus")
    ]
    verdicts = holm([p for _, p in cells], alpha=_ALPHA)
    rejected = [name for (name, _), verdict in zip(cells, verdicts) if verdict]
    ks_family = {
        "alpha": _ALPHA,
        "correction": "holm",
        "tests": len(cells),
        "rejected": rejected,
        "min_p": min(p for _, p in cells),
    }
    assert not rejected, f"KS family (Holm, alpha={_ALPHA}) rejected {rejected}"

    largest = per_size[-1]
    assert largest["num_nodes"] == max(_SIZES)
    # Acceptance floor: >= 5x at the largest Fig. 2 network size
    # (same-machine ratio, min-of-reps on both sides).
    assert largest["speedup"] >= 5.0, f"fastpath speedup {largest['speedup']:.2f}x < 5x"

    print()
    print("chain fastpath bench (Fig. 2 campaign, all-DES oracle vs round router)")
    print(f"  {'nodes':>6} {'des':>9} {'fastpath':>9} {'speedup':>8} "
          f"{'KS p (form)':>12} {'KS p (cons)':>12}")
    for row in per_size:
        print(
            f"  {row['num_nodes']:>6} {row['des_wall_s'] * 1e3:>7.1f}ms "
            f"{row['fastpath_wall_s'] * 1e3:>7.1f}ms {row['speedup']:>7.2f}x "
            f"{row['formation_ks_p']:>12.3f} {row['consensus_ks_p']:>12.3f}"
        )
    print(f"  KS family: {len(cells)} tests, Holm at alpha={_ALPHA}, rejected {rejected or 'none'}")

    perf_recorder(
        "chain_fastpath",
        cpu_count=os.cpu_count(),
        committee_size=_COMMITTEE_SIZE,
        epochs_per_size=_EPOCHS,
        timing_reps=_REPS,
        per_size=per_size,
        ks_family=ks_family,
        largest_size_speedup=largest["speedup"],
    )
