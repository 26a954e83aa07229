"""SE race bench: the production ``vectorized`` race kernel against the
``serial`` reference loop, at Γ=1 and at Γ=25.

The serial loop is the test oracle (``tests/serial_oracle.py``); each
solve here races on the engine its name selects through the oracle's
``racing`` swap, as the parity tests do.  Two claims from the race kernel
(:mod:`repro.core.engine`):

* ``vectorized`` batches the race kernel into numpy array ops; its
  single-replica round throughput must beat serial by a wide margin on
  a thread-rich instance.  The ratio is same-machine (both engines timed
  back to back), so a regression floor IS asserted.
* the **batched** configuration races all Γ replicas × all threads in one
  kernel (Γ=25 over 300 committees, every cardinality a thread — the
  fig08-scale shape).  Its round throughput target is ≥10x serial on the
  bench box; the floor asserted here is lower (6x) because foreign
  runners time the numpy side under arbitrary co-tenancy.

``cpu_count`` rides along in the record so a reader can judge the numbers.
Records land in ``BENCH_se_convergence.json`` under ``se_engines``.
"""

import os
import time

from repro.core.se import SEConfig, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload

from tests.serial_oracle import racing


def _timed_solve(instance, engine, **config_kwargs):
    solver = StochasticExploration(SEConfig(**config_kwargs))
    with racing(engine):
        started = time.perf_counter()
        result = solver.solve(instance)
        return result, time.perf_counter() - started


def test_engine_bench(perf_recorder):
    cpu_count = os.cpu_count() or 1

    # ---- vectorized: single-replica round throughput ------------------ #
    # Thread-rich configuration (300 committees, every cardinality gets a
    # solution thread) over enough rounds to amortise block-draw startup.
    vec_workload = generate_epoch_workload(
        WorkloadConfig(num_committees=300, capacity=300_000, seed=1)
    )
    vec_kwargs = dict(
        num_threads=1, max_iterations=4_000, convergence_window=10 ** 6,
        seed=1, max_solution_threads=None,
    )
    # Warm both paths (allocator, numpy dispatch) before the timed solves.
    for engine in ("serial", "vectorized"):
        _timed_solve(
            vec_workload.instance, engine, num_threads=1,
            max_iterations=200, convergence_window=10 ** 6, seed=1,
            max_solution_threads=None,
        )
    vserial_res, vserial_wall = _timed_solve(
        vec_workload.instance, "serial", **vec_kwargs
    )
    vector_res, vector_wall = _timed_solve(
        vec_workload.instance, "vectorized", **vec_kwargs
    )
    serial_rounds_per_s = vserial_res.iterations / vserial_wall
    vector_rounds_per_s = vector_res.iterations / vector_wall
    vector_speedup = vector_rounds_per_s / serial_rounds_per_s

    # The vectorized engine is distributional, not byte-identical — but it
    # must land in the same utility neighbourhood after the same budget.
    assert vector_res.best_utility >= 0.97 * vserial_res.best_utility
    # Same-machine ratio: a regression floor well under the ~2.3x observed.
    assert vector_speedup >= 1.5

    # ---- batched: Γ=25 × every cardinality in one kernel -------------- #
    # The fig08-scale shape: 25 replicas racing ~108 threads each (2700
    # rows) through the rectangular argmin.  Serial gets a smaller round
    # budget (it is ~10x slower); both rates are per-round and both solves
    # amortise their spawn/sync fixed costs over the measured rounds.
    batched_gamma = 25
    batched_kwargs = dict(
        num_threads=batched_gamma, convergence_window=10 ** 6, seed=1,
        max_solution_threads=None,
    )
    for engine, iters in (("serial", 60), ("vectorized", 200)):
        _timed_solve(
            vec_workload.instance, engine, max_iterations=iters,
            **batched_kwargs,
        )
    bserial_res, bserial_wall = _timed_solve(
        vec_workload.instance, "serial", max_iterations=600,
        **batched_kwargs,
    )
    batched_res, batched_wall = _timed_solve(
        vec_workload.instance, "vectorized", max_iterations=4_000,
        **batched_kwargs,
    )
    bserial_rounds_per_s = bserial_res.iterations / bserial_wall
    batched_rounds_per_s = batched_res.iterations / batched_wall
    batched_speedup = batched_rounds_per_s / bserial_rounds_per_s
    assert batched_res.best_utility >= 0.97 * bserial_res.best_utility
    # ≥10x on the bench box; the asserted floor leaves room for noisy
    # shared runners without letting a real regression through.
    assert batched_speedup >= 6.0

    print()
    print(f"SE engine bench ({cpu_count} cpus)")
    print("  vectorized Gamma=1, 300 committees, all cardinalities, 4000 rounds")
    print(f"    serial     {serial_rounds_per_s:8.0f} rounds/s")
    print(f"    vectorized {vector_rounds_per_s:8.0f} rounds/s   "
          f"speedup {vector_speedup:5.2f}x")
    print(f"  batched    Gamma={batched_gamma}, 300 committees, all cardinalities")
    print(f"    serial     {bserial_rounds_per_s:8.0f} rounds/s")
    print(f"    batched    {batched_rounds_per_s:8.0f} rounds/s   "
          f"speedup {batched_speedup:5.2f}x")

    perf_recorder(
        "se_engines",
        cpu_count=cpu_count,
        vectorized_committees=300,
        vectorized_rounds=int(vector_res.iterations),
        serial_rounds_per_s=serial_rounds_per_s,
        vectorized_rounds_per_s=vector_rounds_per_s,
        vectorized_speedup=vector_speedup,
        batched_gamma=batched_gamma,
        batched_committees=300,
        batched_rounds=int(batched_res.iterations),
        batched_serial_rounds_per_s=bserial_rounds_per_s,
        batched_rounds_per_s=batched_rounds_per_s,
        batched_speedup=batched_speedup,
    )
