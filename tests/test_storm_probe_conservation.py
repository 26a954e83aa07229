"""The ``replica-conservation`` storm invariant fires on broken populations.

:class:`repro.faultinject.StormProbe` reads the re-seated Γ×thread
population at every event boundary.  A storm on working code never breaks
it, so each check is driven here directly: a bootstrapped population is
broken one way at a time and handed to the probe, which must raise
``StormInvariantViolation("replica-conservation", ...)``.
"""

import numpy as np
import pytest

from repro.core.se import SEConfig, StochasticExploration
from repro.faultinject import StormInvariantViolation, StormProbe
from repro.sim.rng import RandomStreams

from tests.conftest import random_instance


def _probe_and_population():
    instance = random_instance(14, seed=5)
    solver = StochasticExploration(SEConfig(num_threads=3, seed=1))
    population = solver._bootstrap(instance, RandomStreams(1))
    probe = StormProbe(solver, instance, armed=("replica-conservation",))
    return probe, population, instance


def _call(probe, population, instance):
    probe(iteration=7, events=[], instance=instance, best=population.best(),
          population=population)


def test_an_intact_population_passes():
    probe, population, instance = _probe_and_population()
    _call(probe, population, instance)
    assert probe.checks_run == 1


def _miscount(population, instance):
    row = int(np.flatnonzero(population.rows.ok)[0])
    population.rows.count[row] += 1


def _overfill(population, instance):
    row = int(np.flatnonzero(population.rows.ok)[-1])
    population.rows.weight[row] = instance.capacity + 1


def _wrong_family(population, instance):
    population.cardinalities = population.cardinalities + 1


def _duplicate_ids(population, instance):
    population.replica_ids[-1] = population.replica_ids[0]


@pytest.mark.parametrize(
    "break_population, message",
    [
        (_miscount, "cardinality not conserved"),
        (_overfill, "exceeds Ĉ"),
        (_wrong_family, "host cardinalities"),
        (_duplicate_ids, "identities collide"),
    ],
)
def test_a_broken_population_violates_replica_conservation(break_population, message):
    probe, population, instance = _probe_and_population()
    break_population(population, instance)
    with pytest.raises(StormInvariantViolation, match=message) as raised:
        _call(probe, population, instance)
    assert raised.value.invariant == "replica-conservation"
    assert raised.value.iteration == 7
