"""The array-native SE population and the vectorized kernel's draw layout.

* The serial oracle (``tests/serial_oracle.py``) builds its
  ``_SolutionThread`` objects once per solve and keeps them until
  something else writes the rows (a dynamic event re-seats them).  That
  the package itself races only the Γ×thread mask matrix is
  ``test_core_engines.py::test_only_the_kernel_races_in_the_package``.
* A probe reading the rows leaves the trajectory untouched.
* The oracle's ``_ThreadRng`` seeds its Mersenne Twister on the first
  draw, and that stream is the one an eager seeding gives.
* ``_VectorState.start_block`` lays out one block as ``(R, T, 2)`` pair
  uniforms followed by ``(R, T)`` Exp(1) uniforms, with
  ``R = min(segment remainder, 65536 // T)``.
"""

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.se import SEConfig, StochasticExploration
from repro.sim.rng import RandomStreams, spawn_fast_rng

from tests import serial_oracle
from tests.serial_oracle import _ThreadRng
from tests.test_core_warm import base_instance, drifted_instance


def _config(engine="vectorized", **overrides):
    settings = dict(num_threads=6, max_iterations=300, convergence_window=10_000,
                    seed=4, engine=engine)
    settings.update(overrides)
    return SEConfig(**settings)


@pytest.fixture
def built(monkeypatch):
    """Counts ``_SolutionThread`` constructions."""
    count = [0]
    original = serial_oracle._SolutionThread.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(serial_oracle._SolutionThread, "__init__", counting)
    return count


# --------------------------------------------------------------------- #
# the oracle's thread objects
# --------------------------------------------------------------------- #
def test_serial_engine_builds_its_threads(built, serial_race):
    solver = StochasticExploration(_config())
    solver.solve(base_instance())
    assert built[0] == 6 * len(solver.thread_cardinalities(base_instance()))


def test_serial_engine_keeps_its_threads_until_the_rows_change(built, serial_race):
    instance = base_instance()
    solver = StochasticExploration(_config())
    size = 6 * len(solver.thread_cardinalities(instance))
    duplicate = DynamicSchedule([
        CommitteeEvent(iteration=50, kind=EventKind.LEAVE, shard_id=99_999)
    ])
    solver.solve(instance, warm=solver.solve(instance, schedule=duplicate))
    assert built[0] == size  # a no-op boundary and a zero-drift hand-off
    leave = DynamicSchedule([
        CommitteeEvent(iteration=50, kind=EventKind.LEAVE, shard_id=instance.shard_ids[3])
    ])
    solver.solve(instance, schedule=leave)
    shrunk = instance.without(instance.shard_ids[3])
    # A cold build, then a rebuild on the re-seated rows after the LEAVE.
    assert built[0] == 2 * size + 6 * len(solver.thread_cardinalities(shrunk))


def test_a_probe_never_perturbs_a_vectorized_warm_solve():
    """The probe reads the adopted rows and changes nothing."""
    instance = base_instance()
    drifted = drifted_instance(instance)
    results = []
    for probe in (None, lambda **_: None):
        solver = StochasticExploration(_config())
        results.append(solver.solve(drifted, warm=solver.solve(instance), probe=probe))
    plain, probed = results
    assert np.array_equal(plain.best_mask, probed.best_mask)
    assert plain.best_utility == probed.best_utility
    assert np.array_equal(plain.utility_trace, probed.utility_trace)


# --------------------------------------------------------------------- #
# lazy thread streams
# --------------------------------------------------------------------- #
def test_lazy_thread_stream_matches_an_eager_seeding():
    lazy = _ThreadRng(17, "replica-3-n40")
    assert lazy._stream is None  # nothing seeded until the first draw
    eager = spawn_fast_rng(17, "replica-3-n40")
    uniform = lazy.uniform
    assert [uniform() for _ in range(1000)] == [eager.random() for _ in range(1000)]
    assert lazy._rnd.getstate() == eager.getstate()


# --------------------------------------------------------------------- #
# the vectorized kernel's main-stream layout
# --------------------------------------------------------------------- #
def _state(config):
    instance = base_instance()
    solver = StochasticExploration(config)
    run = engine_module._EngineRun(solver, instance, None, None)
    return run, engine_module._VectorState(run.population, instance, config)


def test_start_block_reads_pairs_then_exp1_uniforms():
    config = _config()
    rounds = 7
    run, state = _state(config)
    state.start_block(run.streams.get("vectorized-race"), rounds)
    fresh = RandomStreams(config.seed).get("vectorized-race")
    pairs = fresh.random((rounds, state.size, 2))
    exp1 = fresh.random((rounds, state.size))
    out = np.minimum((pairs[..., 0] * state.len_sel).astype(np.int64), state.n_sel - 1)
    inn = np.minimum((pairs[..., 1] * state.len_unsel).astype(np.int64), state.n_unsel - 1)
    assert np.array_equal(state._blk[..., 0], out + state.off_sel)
    assert np.array_equal(state._blk[..., 1], inn + state.off_unsel)
    timer_base = state.log_mean_base + np.log(np.maximum(-np.log1p(-exp1), 1e-300))
    assert np.array_equal(state._blk_timer_base, timer_base)


def test_round_draws_depend_on_the_block_length():
    config = _config()
    run, whole = _state(config)
    whole.start_block(run.streams.get("vectorized-race"), 2)
    run, split = _state(config)
    rng = run.streams.get("vectorized-race")
    split.start_block(rng, 1)
    split.start_block(rng, 1)
    assert not np.array_equal(whole._blk[1], split._blk[0])


def test_block_length_is_the_segment_remainder_capped_by_65536_over_t(monkeypatch):
    config = _config(num_threads=64, max_iterations=300, convergence_window=150)
    lengths = []
    sizes = []
    original = engine_module._VectorState.start_block

    def recording(self, rng, rounds):
        lengths.append(rounds)
        sizes.append(self.size)
        original(self, rng, rounds)

    monkeypatch.setattr(engine_module._VectorState, "start_block", recording)
    StochasticExploration(config).solve(base_instance())
    cap = 65536 // sizes[0]
    assert cap < 150  # the cap binds inside each segment
    segment = [cap] * (150 // cap) + ([150 % cap] if 150 % cap else [])
    # The first 150-round segment always runs out (convergence needs a full
    # stale window); the second may stop early, but its blocks start alike.
    assert lengths[: len(segment)] == segment
    assert lengths == (segment * 2)[: len(lengths)]
