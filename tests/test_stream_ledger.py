"""Stream isolation at run time: the derivation ledger of ``repro.sim.rng``.

Every named stream is derived by ``repro.sim.rng._derive_seed``.  With
``REPRO_CONTRACTS=1`` one SE solve, one storm generation and one chain
epoch each open a scope, and a ``(root seed, name)`` pair derived twice in
the innermost open scope raises.  The unit tests arm the ledger by
patching its flag, so they hold whether or not the suite runs armed; the
storm regression spies on every derivation, so it needs no ledger at all.
"""

import collections

import pytest

import repro.sim.rng as rng
from repro.analysis.contracts import ContractViolation
from repro.faultinject import StormConfig, run_storm
from repro.faultinject.serve import ServeStormConfig, run_serve_storm
from repro.sim.rng import RandomStreams, isolated_streams, spawn_rng


@pytest.fixture
def scoped(monkeypatch):
    """Run a body as one armed scope: ``scoped(body)`` calls it decorated."""
    monkeypatch.setattr(rng, "_LEDGER_ARMED", True)
    return lambda body: isolated_streams(body)()


def test_a_repeat_inside_one_scope_raises_and_names_the_stream(scoped):
    def body():
        spawn_rng(5, "storm-events")
        spawn_rng(5, "storm-events")

    with pytest.raises(ContractViolation, match="'storm-events'"):
        scoped(body)
    assert rng._scopes == []


def test_registry_gets_and_forks_are_recorded_once(scoped):
    def gets():
        streams = RandomStreams(5)
        assert streams.get("x") is streams.get("x")
        RandomStreams(5).get("x")

    def forks():
        RandomStreams(5).fork("epoch-0")
        RandomStreams(5).fork("epoch-0")

    with pytest.raises(ContractViolation, match="'x'"):
        scoped(gets)
    with pytest.raises(ContractViolation, match="'fork:epoch-0'"):
        scoped(forks)


def test_sibling_scopes_and_other_seeds_pass(scoped):
    def body():
        spawn_rng(5, "x")
        spawn_rng(6, "x")

    scoped(body)
    scoped(body)
    spawn_rng(5, "x")  # outside any scope nothing is checked
    spawn_rng(5, "x")


def test_only_the_innermost_scope_is_checked(scoped):
    def inner():
        spawn_rng(5, "x")

    def outer():
        spawn_rng(5, "x")
        scoped(inner)
        scoped(inner)
        spawn_rng(5, "x")

    with pytest.raises(ContractViolation):
        scoped(outer)


def test_nothing_is_recorded_when_disarmed(monkeypatch):
    monkeypatch.setattr(rng, "_LEDGER_ARMED", False)

    def body():
        spawn_rng(5, "x")
        spawn_rng(5, "x")
        assert rng._scopes == []

    assert isolated_streams(body) is body
    body()


@pytest.fixture
def derived(monkeypatch):
    """Every ``(root seed, name)`` derived while the test runs, in order."""
    pairs = []
    derive = rng._derive_seed

    def spy(root_seed, name):
        pairs.append((root_seed, name))
        return derive(root_seed, name)

    monkeypatch.setattr(rng, "_derive_seed", spy)
    return pairs


def _repeated(pairs):
    return {pair: n for pair, n in collections.Counter(pairs).items() if n > 1}


def test_respawned_threads_of_a_serial_storm_derive_fresh_streams(derived, serial_race):
    # Seed 3's storm shrinks and regrows the cardinality family, so the
    # serial oracle spawns threads of one cardinality several times and
    # draws from them; each spawn must get a stream of its own rather than
    # replay an earlier one.
    outcome = run_storm(StormConfig(seed=3, num_events=60, gamma=4))
    assert outcome.survived
    assert _repeated(derived) == {}
    assert any("-dyn" in name for _, name in derived)


def test_each_serve_storm_epoch_draws_its_own_storm_stream(derived):
    config = ServeStormConfig(seed=2, epochs=3, num_committees=20, events_per_epoch=10,
                              max_iterations=200, convergence_window=100)
    assert run_serve_storm(config).survived
    assert [seed for seed, name in derived if name == "storm-events"] == [
        config.storm_config(epoch).seed for epoch in range(config.epochs)
    ]
