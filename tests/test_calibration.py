"""Cross-layer calibration tests.

The fast closed-form latency model (`repro.data.latency`) and the
mechanistic protocol simulation (`repro.chain`) describe the same two
quantities.  These tests pin the calibration: the DES-measured means must
land near the paper's targets (PoW 600 s, PBFT 54.5 s) that the closed form
uses directly, so Figs. 8-14 (closed form) and Fig. 2 (DES) stay mutually
consistent.
"""

import numpy as np
import pytest

from repro.chain.committee import calibrated_verify_mean
from repro.chain.node import spawn_nodes
from repro.chain.params import ChainParams
from repro.chain.pbft import run_pbft_round
from repro.data.latency import PAPER_CONSENSUS_MEAN_S, PAPER_FORMATION_MEAN_S
from tests.formation_oracle import solve_times


class TestPowCalibration:
    def test_single_node_solve_mean_is_600s(self):
        params = ChainParams()
        assert params.pow_mean_solve_s == PAPER_FORMATION_MEAN_S == 600.0
        nodes = spawn_nodes(3_000, 0.0, np.random.default_rng(1), hash_power_sigma=0.01)
        times = solve_times(nodes, params.pow_mean_solve_s, np.random.default_rng(2))
        assert times.mean() == pytest.approx(600.0, rel=0.08)


class TestPbftCalibration:
    def test_des_consensus_mean_near_paper_target(self):
        """Run many independent PBFT rounds on the DES; the mean commit
        latency must land within +/-35% of the paper's 54.5 s (the closed
        form and the mechanistic model must tell the same story)."""
        params = ChainParams()
        verify_mean = calibrated_verify_mean(params)
        latencies = []
        for seed in range(24):
            members = spawn_nodes(params.committee_size, 0.0, np.random.default_rng(seed))
            outcome = run_pbft_round(
                members, np.random.default_rng(1000 + seed), params.network, verify_mean,
                round_tag=f"cal-{seed}",
            )
            assert outcome.committed
            latencies.append(outcome.latency)
        mean = float(np.mean(latencies))
        assert mean == pytest.approx(PAPER_CONSENSUS_MEAN_S, rel=0.35)

    def test_consensus_spread_is_a_band(self):
        """Fig. 2(b): consensus latencies vary across committees but stay
        within a bounded band (no exponential blow-ups)."""
        params = ChainParams()
        verify_mean = calibrated_verify_mean(params)
        latencies = []
        for seed in range(24):
            members = spawn_nodes(params.committee_size, 0.0, np.random.default_rng(seed))
            outcome = run_pbft_round(
                members, np.random.default_rng(2000 + seed), params.network, verify_mean,
                round_tag=f"band-{seed}",
            )
            latencies.append(outcome.latency)
        latencies = np.asarray(latencies)
        assert latencies.std() > 0.05 * latencies.mean()
        assert latencies.max() < 4 * latencies.min()
