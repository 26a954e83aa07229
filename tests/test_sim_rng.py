"""Tests for named random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import (
    RandomStreams,
    counter_rng,
    derive_seed,
    philox_key,
    spawn_fast_rng,
    spawn_rng,
)


def test_same_seed_same_stream():
    a = spawn_rng(7, "pow")
    b = spawn_rng(7, "pow")
    assert np.allclose(a.random(100), b.random(100))


def test_different_names_differ():
    a = spawn_rng(7, "pow")
    b = spawn_rng(7, "pbft")
    assert not np.allclose(a.random(100), b.random(100))


def test_different_seeds_differ():
    a = spawn_rng(7, "pow")
    b = spawn_rng(8, "pow")
    assert not np.allclose(a.random(100), b.random(100))


def test_derive_seed_stable_and_64bit():
    seed = derive_seed(42, "stream")
    assert seed == derive_seed(42, "stream")
    assert 0 <= seed < 2**64


def test_spawn_fast_rng_deterministic_and_isolated():
    a = spawn_fast_rng(7, "se-thread")
    b = spawn_fast_rng(7, "se-thread")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]
    other = spawn_fast_rng(7, "other-thread")
    assert a.random() != other.random()


def test_spawn_fast_rng_matches_numpy_stream_seed():
    # Both flavours derive the same child seed for the same (root, name).
    assert spawn_fast_rng(5, "x").getrandbits(0) == 0  # smoke: it is a Random
    assert derive_seed(5, "x") == derive_seed(5, "x")


# ---------------------------------------------------------------------- #
# derive_seed properties (hypothesis)
# ---------------------------------------------------------------------- #
_SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
_NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40
)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_SEEDS, _NAMES), min_size=2, max_size=64, unique=True))
def test_derive_seed_distinct_pairs_rarely_collide(pairs):
    # SHA-256 truncated to 64 bits: collisions across a few dozen distinct
    # (root_seed, name) pairs are negligible (~n^2 / 2^65); any collision
    # hypothesis finds here would be an implementation bug (e.g. ignoring
    # part of the key), not bad luck.
    seeds = {derive_seed(root, name) for root, name in pairs}
    assert len(seeds) == len(pairs)


@settings(max_examples=200, deadline=None)
@given(root=_SEEDS, name=_NAMES)
def test_derive_seed_is_pure_and_in_range(root, name):
    first = derive_seed(root, name)
    assert first == derive_seed(root, name)
    assert 0 <= first < 2**64


@settings(max_examples=100, deadline=None)
@given(root=_SEEDS, name=_NAMES)
def test_derive_seed_sensitive_to_both_components(root, name):
    assert derive_seed(root, name) != derive_seed(root, name + "\x00")
    assert derive_seed(root, name) != derive_seed((root + 1) % 2**64, name)


def test_derive_seed_golden_values_stable_across_processes():
    # Frozen outputs of the SHA-256 derivation: any change here would shift
    # every named stream and silently invalidate all recorded figures.
    assert derive_seed(0, "pow") == 17309236853511741701
    assert derive_seed(42, "stream") == 16648157695521472047
    assert derive_seed(123456789, "replica-0-init") == 17135260820722920934
    assert derive_seed(2**63, "Ĉ") == 6762627598470032393


def test_registry_caches_streams():
    streams = RandomStreams(seed=3)
    assert streams.get("x") is streams.get("x")


def test_registry_isolation_between_names():
    streams = RandomStreams(seed=3)
    first = streams.get("a").random(10)
    # Drawing from stream "b" must not perturb stream "a"'s continuation.
    streams.get("b").random(1000)
    fresh = RandomStreams(seed=3)
    fresh_first = fresh.get("a").random(10)
    assert np.allclose(first, fresh_first)


def test_fork_creates_independent_registry():
    parent = RandomStreams(seed=3)
    child = parent.fork("epoch-0")
    assert child.seed != parent.seed
    assert not np.allclose(parent.get("x").random(50), child.get("x").random(50))


def test_fork_is_deterministic():
    a = RandomStreams(seed=3).fork("epoch-0")
    b = RandomStreams(seed=3).fork("epoch-0")
    assert a.seed == b.seed


@pytest.mark.parametrize("block", [0, 7, 5 * 2**64 + 3])
def test_counter_rng_matches_the_philox_constructor(block):
    key = philox_key(spawn_rng(4, "kernel"))
    expected = np.random.Generator(np.random.Philox(key=key, counter=block))
    fresh = counter_rng(key, block)
    used = counter_rng(key, block + 1)
    used.standard_normal(3)  # a used generator re-seats just the same
    reseated = counter_rng(key, block, used)
    normals = expected.standard_normal(1000)
    exponentials = expected.standard_exponential(1000)
    for rng in (fresh, reseated):
        assert rng.standard_normal(1000).tobytes() == normals.tobytes()
        assert rng.standard_exponential(1000).tobytes() == exponentials.tobytes()
