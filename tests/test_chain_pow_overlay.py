"""Tests for the scalar PoW election and overlay reference (``tests/formation_oracle.py``)."""

import numpy as np
import pytest

from repro.chain.node import spawn_nodes
from tests.formation_oracle import (
    committee_fill_times,
    committee_members,
    run_overlay_configuration,
    run_pow_election,
    solve_times,
)


@pytest.fixture(scope="module")
def nodes():
    return spawn_nodes(120, byzantine_fraction=0.1, rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def solutions(nodes):
    return run_pow_election(nodes, num_committees=10, mean_solve_s=600.0,
                            epoch_randomness="seed", rng=np.random.default_rng(3))


class TestPow:
    def test_solve_times_scale_with_hash_power(self):
        rng = np.random.default_rng(1)
        fast = list(spawn_nodes(2_000, 0.0, rng, hash_power_sigma=0.01))
        for node in fast:
            node.hash_power = 4.0
        fast_times = solve_times(fast, 600.0, np.random.default_rng(5))
        slow = spawn_nodes(2_000, 0.0, rng, hash_power_sigma=0.01)
        slow_times = solve_times(slow, 600.0, np.random.default_rng(5))
        assert fast_times.mean() < 0.5 * slow_times.mean()

    def test_expected_solve_time_matches_paper(self):
        nodes = spawn_nodes(5_000, 0.0, np.random.default_rng(4), hash_power_sigma=0.01)
        times = solve_times(nodes, 600.0, np.random.default_rng(6))
        assert times.mean() == pytest.approx(600.0, rel=0.1)

    def test_every_solver_assigned_a_committee(self, solutions, nodes):
        assert len(solutions) == len(nodes)
        assert all(0 <= s.committee_index < 10 for s in solutions)

    def test_solutions_sorted_by_time(self, solutions):
        times = [s.solve_time for s in solutions]
        assert times == sorted(times)

    def test_assignment_depends_on_randomness(self, nodes):
        a = run_pow_election(nodes, 10, 600.0, "seed-A", np.random.default_rng(3))
        b = run_pow_election(nodes, 10, 600.0, "seed-B", np.random.default_rng(3))
        assignment_a = {s.node_id: s.committee_index for s in a}
        assignment_b = {s.node_id: s.committee_index for s in b}
        assert assignment_a != assignment_b

    def test_fill_times_monotone_in_committee_size(self, solutions):
        small = committee_fill_times(solutions, 10, 4)
        large = committee_fill_times(solutions, 10, 8)
        for committee in large:
            assert large[committee] >= small[committee]

    def test_members_capped_at_committee_size(self, solutions):
        members = committee_members(solutions, 10, 6)
        assert all(len(m) == 6 for m in members.values())

    def test_unfilled_committees_absent(self):
        nodes = spawn_nodes(10, 0.0, np.random.default_rng(7))
        solutions = run_pow_election(nodes, 5, 600.0, "x", np.random.default_rng(8))
        members = committee_members(solutions, 5, 8)  # 10 nodes can't fill 8x5
        assert len(members) == 0


class TestOverlay:
    def test_registration_serialises(self, solutions, nodes):
        members = committee_members(solutions, 10, 6)
        overlay = run_overlay_configuration(
            solutions, members, registration_rate=1.0, rng=np.random.default_rng(9)
        )
        ready = sorted(overlay.identity_ready_time.values())
        # The server handles 1 identity/s: the last of 120 registrations is
        # at least 120 s after the first solve.
        assert ready[-1] - solutions[0].solve_time >= len(nodes) / 1.0 - 1e-9

    def test_overlay_time_after_every_member_registered(self, solutions):
        members = committee_members(solutions, 10, 6)
        overlay = run_overlay_configuration(
            solutions, members, registration_rate=1.0, rng=np.random.default_rng(9)
        )
        for committee, node_ids in members.items():
            latest = max(overlay.identity_ready_time[n] for n in node_ids)
            assert overlay.committee_overlay_time[committee] >= latest

    def test_faster_registration_lowers_latency(self, solutions):
        members = committee_members(solutions, 10, 6)
        slow = run_overlay_configuration(solutions, members, 0.5, np.random.default_rng(9))
        fast = run_overlay_configuration(solutions, members, 50.0, np.random.default_rng(9))
        assert max(fast.committee_overlay_time.values()) < max(slow.committee_overlay_time.values())

    def test_invalid_rate_rejected(self, solutions):
        with pytest.raises(ValueError):
            run_overlay_configuration(solutions, {}, 0.0, np.random.default_rng(9))
