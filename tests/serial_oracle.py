"""The serial SE race: the scalar reference loop, kept as the test oracle.

Production SE races on one engine, the batched kernel
(:func:`repro.core.engine.run_vectorized`).  This module keeps the scalar
loop it replaced, byte for byte: the pre-engine ``solve`` body, one
executor object (:class:`_Replica`) per replica holding one
:class:`_SolutionThread` per row, each thread drawing from its own
Mersenne stream (:class:`_ThreadRng`).  The kernel is checked against it
(``tests/test_core_engines.py``) and golden tests pin it unchanged.

Tests race on it by swapping the race function that
:func:`repro.core.engine.run_engine` calls, so ``src/`` needs no engine
parameter and the swap reaches every caller of ``solve`` —
:func:`repro.harness.serve.run_serve`, :func:`repro.faultinject.run_storm`
and the rest: the ``serial_race`` fixture swaps it for a whole test,
:func:`racing` for a block.  A solve raced here reports
``engine == "serial"``.

The oracle keeps its own state per population, outside the package:

* each row's thread stream, by the population's ``stream_names`` entry,
  created on first use and kept for the population's lifetime, so a
  seated thread continues its stream across event re-seats and warm
  hand-offs (:func:`thread_rngs`);
* the executor/thread objects of its last write-back, reused while the
  population still holds the rows and replica clocks that write-back
  installed.  A zero-drift warm hand-off, or an event batch that left the
  instance unchanged, therefore races on with each thread's swap-pair
  slot order intact; any other writer of the rows or clocks (a re-seat,
  the batched kernel) invalidates them.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.engine import _EngineRun, _emit_transitions
from repro.core.repair import RowRepair
from repro.core.se import SEConfig, SEResult, _Population, _row_solution
from repro.core.solution import Solution
from repro.core.timers import clamped_exp
from repro.sim.rng import spawn_fast_rng


class _ThreadRng:
    """Per-thread random stream for the race hot path.

    The race needs tens of millions of scalar draws; the stdlib Mersenne
    Twister's C-level ``random()`` is an order of magnitude cheaper per
    call than a ``numpy.random.Generator`` scalar draw, and each thread
    owning its own named stream (via :func:`repro.sim.rng.spawn_fast_rng`)
    preserves stream isolation.  The stream is seeded on its first draw:
    a thread that never races never pays the seed derivation.
    """

    __slots__ = ("name", "_seed_stream", "_stream")

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        # Deferred, not skipped: the first draw runs this seeding, so the
        # armed stream ledger records it in the scope that draws.
        self._seed_stream = lambda: spawn_fast_rng(root_seed, name)
        self._stream = None

    @property
    def _rnd(self):
        """The Mersenne Twister behind this stream (seeded on first use)."""
        if self._stream is None:
            self._stream = self._seed_stream()
        return self._stream

    @property
    def uniform(self):
        """The bound ``random()`` method (bind once per hot loop)."""
        return self._rnd.random


# A thread's armed timer is the tuple (log_duration, index_out, index_in);
# plain tuples keep the race's per-round allocation cost negligible.
class _SolutionThread:
    """One solution thread :math:`f_n` (state machine of Fig. 6)."""

    __slots__ = ("cardinality", "rng", "config", "solution", "timer", "active", "sel", "unsel", "loc", "last_swap")

    def __init__(self, cardinality: int, thread_rng: _ThreadRng, config: SEConfig) -> None:
        self.cardinality = cardinality
        self.rng = thread_rng
        self.config = config
        self.solution: Optional[Solution] = None
        self.timer: Optional[tuple] = None
        self.active = False
        # Index bookkeeping for O(1) uniform pair sampling: ``sel``/``unsel``
        # list the selected/unselected positions and ``loc[p]`` is position
        # p's slot in whichever list currently holds it.
        self.sel: list = []
        self.unsel: list = []
        self.loc: list = []
        self.last_swap: Optional[tuple] = None

    def set_solution(self, solution: Optional[Solution]) -> None:
        """Install a solution and rebuild the pair-sampling index lists.

        Vectorised: ``flatnonzero`` yields the same ascending position
        order the original scalar scan produced, so serial trajectories
        (which draw pairs by list slot) are byte-identical either way.
        This runs Γ×T times whenever the oracle builds its threads from the
        population's rows.
        """
        self.solution = solution
        self.timer = None
        if solution is None:
            self.sel, self.unsel, self.loc = [], [], []
            self.active = False
            return
        mask = solution.mask
        sel_arr = np.flatnonzero(mask)
        unsel_arr = np.flatnonzero(~mask)
        loc = np.empty(mask.size, dtype=np.int64)
        loc[sel_arr] = np.arange(sel_arr.size)
        loc[unsel_arr] = np.arange(unsel_arr.size)
        self.sel = sel_arr.tolist()
        self.unsel = unsel_arr.tolist()
        self.loc = loc.tolist()
        self.active = True

    # -------------------------------------------------------------- #
    # Alg. 3: Set-timer()
    # -------------------------------------------------------------- #
    def set_timer(self) -> None:
        """Choose a random swap pair and arm an exponential timer (eq. 8).

        Pairs whose swap would violate the capacity are rejected and
        redrawn; if no feasible pair surfaces within the retry budget the
        thread parks (no timer) until the next RESET re-arms it.

        Hot path: the pair is drawn uniformly from the maintained
        selected/unselected index lists (two draws, no rejection against
        the mask) and scalar reads go through the instance's plain-list
        mirrors.
        """
        self.timer = None
        solution = self.solution
        if not self.active or solution is None:
            return
        sel, unsel = self.sel, self.unsel
        len_sel, len_unsel = len(sel), len(unsel)
        if len_sel == 0 or len_unsel == 0:
            return
        uniform = self.rng.uniform
        instance = solution.instance
        slack = instance.capacity - solution.weight
        tx_counts = instance.tx_counts_list
        values = instance.values_list
        half_beta = 0.5 * self.config.beta
        log_mean_base = self.config.tau - math.log(len_unsel)
        for _ in range(self.config.pair_tries):
            index_out = sel[int(uniform() * len_sel)]
            index_in = unsel[int(uniform() * len_unsel)]
            if tx_counts[index_in] - tx_counts[index_out] > slack:
                continue
            delta = values[index_in] - values[index_out]
            # log T = log(mean) + log(Exp(1) sample), computed stably
            # (log_timer_mean inlined: tau - beta/2*delta - log(open)).
            log_exp1 = math.log(max(-math.log1p(-uniform()), 1e-300))
            self.timer = (log_mean_base - half_beta * delta + log_exp1, index_out, index_in)
            return

    # -------------------------------------------------------------- #
    # Alg. 1: State Transit
    # -------------------------------------------------------------- #
    def fire(self) -> None:
        """Apply the armed swap: :math:`x_{\\tilde i} \\to 0`, :math:`x_{\\ddot i} \\to 1`."""
        if self.timer is None or self.solution is None:
            raise RuntimeError("fire() called with no armed timer")
        _, index_out, index_in = self.timer
        self.solution.swap(index_out, index_in)
        # Keep the pair-sampling lists in sync: out joins unsel in in's old
        # slot; in joins sel in out's old slot.
        loc = self.loc
        slot_out, slot_in = loc[index_out], loc[index_in]
        self.sel[slot_out] = index_in
        self.unsel[slot_in] = index_out
        loc[index_in], loc[index_out] = slot_out, slot_in
        self.last_swap = (index_out, index_in)
        self.timer = None


class _Replica:
    """One executor hosting the full solution-thread family (Fig. 5).

    ``replica_id`` is the executor's stable identity (the population's
    ``replica_ids`` entry): every named stream the replica consumes is keyed
    by it, never by its position in a list — so the Γ replicas stay
    independent regardless of iteration order (the premise behind Fig. 8).
    """

    __slots__ = ("replica_id", "threads", "virtual_time", "current_utility")

    def __init__(self, replica_id: int, threads: List[_SolutionThread]) -> None:
        self.replica_id = replica_id
        self.threads = threads
        self.virtual_time = 0.0
        self.current_utility = float("-inf")
        self.recompute_current()

    def recompute_current(self) -> None:
        """Rebuild the running current-utility max from a full thread scan.

        Only needed at bootstrap and dynamic-event boundaries; inside the
        race :meth:`race_round` maintains the max incrementally (exactly one
        thread mutates per round, so a full ``O(threads)`` rescan per round
        was pure overhead).
        """
        best = float("-inf")
        for thread in self.threads:
            solution = thread.solution
            if solution is not None and solution.utility > best:
                best = solution.utility
        self.current_utility = best

    def race_round(self) -> Optional[_SolutionThread]:
        """Arm every solution (the RESET re-draw), fire the earliest timer.

        Returns the fired thread, or ``None`` when no solution could arm a
        feasible pair this round.
        """
        winner: Optional[_SolutionThread] = None
        winner_log = math.inf
        for thread in self.threads:
            thread.set_timer()
            timer = thread.timer
            if timer is not None and timer[0] < winner_log:
                winner_log = timer[0]
                winner = thread
        if winner is None:
            return None
        self.virtual_time += clamped_exp(winner_log)
        before = winner.solution.utility
        winner.fire()
        after = winner.solution.utility
        # Incremental current-utility maintenance: the fired thread is the
        # only mutation this round.  Its rise can only raise the max; its
        # fall forces a rescan only when it held the max alone.
        if after > self.current_utility:
            self.current_utility = after
        elif before == self.current_utility and after < before:
            self.recompute_current()
        return winner


class _OracleState:
    """What the oracle keeps for one population (see the module docstring)."""

    def __init__(self) -> None:
        self.rngs: Dict[str, _ThreadRng] = {}
        self.replicas: Optional[List[_Replica]] = None
        self.rows: Optional[RowRepair] = None
        self.virtual_times: Optional[np.ndarray] = None


_STATES: "weakref.WeakKeyDictionary[_Population, _OracleState]" = weakref.WeakKeyDictionary()


def _state(population: _Population) -> _OracleState:
    state = _STATES.get(population)
    if state is None:
        state = _STATES[population] = _OracleState()
    return state


def thread_rngs(population: _Population, root_seed: int) -> List[_ThreadRng]:
    """Each row's thread stream, created on first use under ``root_seed``."""
    rngs = _state(population).rngs
    for name in population.stream_names:
        if name not in rngs:
            rngs[name] = _ThreadRng(root_seed, name)
    return [rngs[name] for name in population.stream_names]


def _solution_masks(solutions: Sequence[Optional[Solution]], num_shards: int) -> np.ndarray:
    """Stack solutions' selections into one ``(R, N)`` matrix (``None`` rows empty)."""
    blank = bytes(num_shards)
    joined = b"".join(blank if s is None else s.selected for s in solutions)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(solutions), num_shards) != 0


def _serial_replicas(
    population: _Population, config: SEConfig, root_seed: int
) -> List[_Replica]:
    """The oracle's race state for ``population``.

    Its own objects when the population still holds the rows and clocks
    their last write-back installed, with each solution rebound onto the
    population's value-equal instance; otherwise executor/thread objects
    built from the rows, with ascending ``sel``/``unsel`` slots.  The two
    differ only in slot order, which the scalar draws read, so a zero-drift
    hand-off and an event batch that changed nothing race on exactly where
    the race stopped.
    """
    state = _state(population)
    replicas = state.replicas
    if (replicas is not None and state.rows is population.rows
            and state.virtual_times is population.virtual_times):
        for replica in replicas:
            for thread in replica.threads:
                if thread.solution is not None:
                    thread.solution.instance = population.instance
        return replicas
    rows = population.rows
    rngs = thread_rngs(population, root_seed)
    family = population.cardinalities.tolist()
    replicas = []
    for group, replica_id in enumerate(population.replica_ids):
        threads = []
        for k, cardinality in enumerate(family):
            row = group * len(family) + k
            thread = _SolutionThread(cardinality, rngs[row], config)
            if rows.ok[row]:
                thread.set_solution(_row_solution(population.instance, rows, row))
            threads.append(thread)
        replica = _Replica(replica_id, threads)
        replica.virtual_time = float(population.virtual_times[group])
        replicas.append(replica)
    return replicas


def _write_back_replicas(replicas: List[_Replica], population: _Population) -> None:
    """Return the threads' solutions and the replica clocks to ``population``.

    The objects stay behind as the population's oracle state until someone
    else writes its rows or clocks.
    """
    solutions = [thread.solution for replica in replicas for thread in replica.threads]
    held = [s for s in solutions if s is not None]
    ok = np.array([s is not None for s in solutions], dtype=bool)
    utility = np.zeros(len(solutions))
    weight = np.zeros(len(solutions), dtype=np.int64)
    count = np.zeros(len(solutions), dtype=np.int64)
    utility[ok] = [s.utility for s in held]
    weight[ok] = [s.weight for s in held]
    count[ok] = [s.count for s in held]
    population.rows = RowRepair(
        ok, _solution_masks(solutions, population.instance.num_shards), utility, weight, count
    )
    population.virtual_times = np.array([replica.virtual_time for replica in replicas])
    state = _state(population)
    state.replicas = replicas
    state.rows = population.rows
    state.virtual_times = population.virtual_times


def run_serial(run: _EngineRun) -> SEResult:
    """The reference scalar loop — the pre-engine ``solve`` body.

    Races executor/thread objects (:func:`_serial_replicas`), the
    counterpart of the batched kernel's ``_VectorState``; they go back
    into the population's rows at every event boundary and at the end.
    """
    run.engine = "serial"
    config = run.config
    telemetry = run.telemetry
    traced = run.traced
    population = run.population
    root_seed = run.streams.seed
    replicas = _serial_replicas(population, config, root_seed)
    for iteration in range(config.max_iterations):
        if run.events_due(iteration):
            _write_back_replicas(replicas, population)
            run.apply_due_events(iteration)
            replicas = _serial_replicas(population, config, root_seed)
        round_best: Optional[Solution] = None
        transitions = 0
        fires: List[tuple] = []
        for replica_index, replica in enumerate(replicas):
            fired = replica.race_round()
            if fired is not None and fired.solution is not None:
                transitions += 1
                if traced:
                    swap_out, swap_in = fired.last_swap or (-1, -1)
                    fires.append((replica_index, fired.cardinality, swap_out, swap_in,
                                  fired.solution.utility))
                if round_best is None or fired.solution.utility > round_best.utility:
                    round_best = fired.solution
        if fires:
            replica, cardinality, swap_out, swap_in, utility = zip(*fires)
            _emit_transitions(telemetry, iteration, replica, cardinality, swap_out,
                              swap_in, utility)
        run.best = run.solver._pick_better(run.best, round_best)
        current = max(replica.current_utility for replica in replicas)
        virtual_time = max(replica.virtual_time for replica in replicas)
        if run.finish_round(iteration, current, virtual_time, transitions):
            break
    _write_back_replicas(replicas, population)
    return run.result()


# ------------------------------------------------------------------ #
# racing on the oracle
# ------------------------------------------------------------------ #
#: The race each engine name selects: this oracle, or the batched kernel.
RACES = {"serial": run_serial, "vectorized": engine_module.run_vectorized}


@contextlib.contextmanager
def racing(engine: str):
    """Race every SE solve inside the block on ``engine`` (a :data:`RACES` key).

    Blocks nest: the race in force before the block is restored after it.
    """
    race = RACES[engine]
    previous = engine_module.run_vectorized
    engine_module.run_vectorized = race
    try:
        yield
    finally:
        engine_module.run_vectorized = previous


@pytest.fixture
def serial_race():
    """Race every SE solve of the test on the serial oracle."""
    with racing("serial"):
        yield
