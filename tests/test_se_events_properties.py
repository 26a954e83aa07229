"""Property suite for the array-native dynamic-event re-seat.

``StochasticExploration._apply_events`` moves the Γ×thread mask matrix
onto the instance a batch of LEAVE/JOIN events leaves behind (Alg. 1
lines 9-12).  It must match the per-thread re-seat it replaced
(:func:`tests.repair_oracle.apply_events_scalar`) bit for bit: the same
family, ok flags and masks, the same utility/weight/count caches, the
same stream behind every row, every ``replica-*-init`` and
``replica-*-leave`` stream left at the same position, and the same
``se.reseat`` counts.

The explicit cases name each shape of event; the generated batches mix
them over instances with zero-tx shards and binding capacities, over
populations where some rows hold no solution.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamics import CommitteeEvent, EventKind
from repro.core.problem import EpochInstance, MVComConfig
from repro.core.se import InfeasibleEpochError, SEConfig, StochasticExploration
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.sim.rng import RandomStreams

from tests.repair_oracle import apply_events_scalar
from tests.test_repair_properties import instances, latencies, tx_counts


def _leave(shard_id):
    return CommitteeEvent(iteration=0, kind=EventKind.LEAVE, shard_id=shard_id)


def _join(shard_id, tx_count, latency):
    return CommitteeEvent(iteration=0, kind=EventKind.JOIN, shard_id=shard_id,
                          tx_count=tx_count, latency=latency)


def _reseat_both(instance, events, *, gamma=3, cap=None, generation=0, seed=0,
                 dropped=()):
    """Bootstrap one population, then re-seat it on the row path and on the oracle."""
    ring = RingBufferSink()
    solver = StochasticExploration(
        SEConfig(num_threads=gamma, max_solution_threads=cap, seed=seed),
        telemetry=Telemetry(sinks=[ring]),
    )
    streams = RandomStreams(seed)
    population = solver._bootstrap(instance, streams)
    population.rows.ok[list(dropped)] = False
    twin, twin_streams = copy.deepcopy((population, streams))
    try:
        expected = apply_events_scalar(solver, twin, events, twin_streams, generation)
    except InfeasibleEpochError:
        with pytest.raises(InfeasibleEpochError):
            solver._apply_events(population, events, streams, generation)
        return None
    solver._apply_events(population, events, streams, generation)
    reseats = [r for r in ring.records if r.get("name") == "se.reseat"]
    assert len(reseats) == 1
    counts = {key: reseats[0][key] for key in expected}
    assert counts == expected
    assert reseats[0]["events"] == len(events)
    assert reseats[0]["num_shards"] == twin.instance.num_shards
    _assert_same_population(population, twin)
    for replica_id in population.replica_ids:
        for kind in ("init", "leave"):
            name = f"replica-{replica_id}-{kind}"
            assert (streams.get(name).bit_generator.state
                    == twin_streams.get(name).bit_generator.state)
    return population, expected, streams


def _assert_same_population(mine, theirs):
    assert mine.instance.shard_ids == theirs.instance.shard_ids
    assert np.array_equal(mine.instance.tx_counts, theirs.instance.tx_counts)
    assert np.array_equal(mine.instance.values, theirs.instance.values)
    assert mine.replica_ids == theirs.replica_ids
    assert np.array_equal(mine.cardinalities, theirs.cardinalities)
    assert np.array_equal(mine.virtual_times, theirs.virtual_times)
    ok = mine.rows.ok
    assert np.array_equal(ok, theirs.rows.ok)
    assert mine.rows.masks[ok].tobytes() == theirs.rows.masks[ok].tobytes()
    assert ([float(u).hex() for u in mine.rows.utility[ok]]
            == [float(u).hex() for u in theirs.rows.utility[ok]])
    assert np.array_equal(mine.rows.weight[ok], theirs.rows.weight[ok])
    assert np.array_equal(mine.rows.count[ok], theirs.rows.count[ok])
    # Every row reads the stream of the same name.
    assert mine.stream_names == theirs.stream_names


# --------------------------------------------------------------------- #
# one shape per case
# --------------------------------------------------------------------- #
def _instance(capacity_share=2.0):
    tx = [900, 40, 0, 1_200, 350, 610, 75, 0, 2_000, 480, 95, 830]
    latencies_s = [120.0, 300.0, 45.0, 800.0, 60.0, 410.0, 95.0, 700.0, 150.0, 20.0,
                   610.0, 330.0]
    return EpochInstance(tx, latencies_s, MVComConfig(
        alpha=1.5, capacity=int(capacity_share * sum(tx)), n_min_fraction=0.2,
    ))


def _selected_and_unselected(instance):
    """A shard row 0 selects, and one it does not."""
    solver = StochasticExploration(SEConfig(num_threads=3, max_solution_threads=None))
    mask = solver._bootstrap(instance, RandomStreams(0)).rows.masks[0]
    return instance.shard_ids[int(np.argmax(mask))], instance.shard_ids[int(np.argmin(mask))]


@pytest.mark.parametrize("generation", [0, 2])
@pytest.mark.parametrize("share", [0.35, 2.0])
def test_leave_of_a_selected_shard(generation, share):
    instance = _instance(share)
    selected, _ = _selected_and_unselected(instance)
    _, _, streams = _reseat_both(instance, [_leave(selected)], generation=generation)
    fresh = RandomStreams(0).get("replica-0-leave").bit_generator.state
    assert streams.get("replica-0-leave").bit_generator.state != fresh  # row 0 re-drew


@pytest.mark.parametrize("share", [0.35, 2.0])
def test_leave_of_an_unselected_shard(share):
    instance = _instance(share)
    _, unselected = _selected_and_unselected(instance)
    _reseat_both(instance, [_leave(unselected)])


def test_leave_of_an_absent_shard_changes_nothing():
    instance = _instance(0.35)
    population, counts, _ = _reseat_both(instance, [_leave(999)])
    assert counts == {"threads_spawned": 0, "threads_reinitialised": 0}
    assert population.instance is instance


@pytest.mark.parametrize("generation", [0, 1])
def test_leave_shrinking_n_below_a_family_cardinality(generation):
    instance = _instance(2.0)  # Ĉ never binds: the family reaches N
    population, _, _ = _reseat_both(instance, [_leave(instance.shard_ids[4])],
                                    generation=generation)
    assert population.cardinalities.max() == instance.num_shards - 1


def test_join_of_a_present_shard_changes_nothing():
    instance = _instance(0.35)
    population, counts, _ = _reseat_both(instance, [_join(instance.shard_ids[2], 5, 5.0)])
    assert counts == {"threads_spawned": 0, "threads_reinitialised": 0}
    assert population.instance is instance


@pytest.mark.parametrize("generation", [0, 3])
@pytest.mark.parametrize("share", [0.35, 2.0])
def test_ddl_shifting_join_of_a_new_shard(generation, share):
    instance = _instance(share)
    population, counts, _ = _reseat_both(
        instance, [_join(77, 300, 2.0 * instance.ddl)], generation=generation
    )
    assert population.instance.ddl == 2.0 * instance.ddl
    if share > 1:
        assert counts["threads_spawned"] == 3  # f_{N+1} on each replica


@pytest.mark.parametrize("generation", [0, 1])
def test_multi_event_batch(generation):
    instance = _instance(0.5)
    selected, unselected = _selected_and_unselected(instance)
    _reseat_both(instance, [
        _leave(selected), _join(77, 150, 900.0), _leave(999), _leave(unselected),
        _join(selected, 40, 10.0), _join(77, 1, 1.0),
    ], generation=generation, dropped=(0, 4))


def test_rows_without_a_solution_reinitialise():
    instance = _instance(0.5)
    _, counts, _ = _reseat_both(instance, [_join(77, 150, 900.0)], dropped=(1, 2, 7))
    assert counts["threads_reinitialised"] >= 1


# --------------------------------------------------------------------- #
# generated batches
# --------------------------------------------------------------------- #
@st.composite
def event_batches(draw, instance):
    ids = list(instance.shard_ids)
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if draw(st.booleans()):
            events.append(_leave(draw(st.sampled_from(ids + [999]))))
        else:
            events.append(_join(draw(st.sampled_from(ids + [1_000, 1_001])),
                                draw(tx_counts), draw(latencies)))
    return events


@given(instances(min_shards=2, max_shards=16), st.data())
@settings(max_examples=80, deadline=None)
def test_apply_events_matches_the_scalar_reseat(instance, data):
    gamma = data.draw(st.integers(min_value=1, max_value=3))
    cap = data.draw(st.sampled_from([None, 2, 5]))
    size = gamma * len(
        StochasticExploration(SEConfig(max_solution_threads=cap)).thread_cardinalities(instance)
    )
    dropped = data.draw(st.lists(st.integers(min_value=0, max_value=size - 1), max_size=3))
    _reseat_both(
        instance,
        data.draw(event_batches(instance)),
        gamma=gamma,
        cap=cap,
        generation=data.draw(st.sampled_from([0, 1, 4])),
        seed=data.draw(st.integers(min_value=0, max_value=1_000)),
        dropped=dropped,
    )
