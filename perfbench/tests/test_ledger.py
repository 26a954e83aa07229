"""The benchmark's own helpers: tail rule, residual, failure counting, patches."""

import math

import pytest

from ledger import (
    FailureTally,
    LayerClock,
    Patches,
    decision_faults,
    harrell_davis,
    median,
    residual,
    tail_percentile,
)


class TestTailRule:
    @pytest.mark.parametrize(
        "n, percentile, rank",
        [(20, 50, 10), (25, 60, 15), (26, 61, 16), (100, 90, 90), (120, 91, 110), (1000, 99, 990)],
    )
    def test_known_sizes(self, n, percentile, rank):
        samples = [float(i) for i in range(n, 0, -1)]  # n .. 1, unsorted on purpose
        tail = tail_percentile(samples)
        assert (tail.percentile, tail.value, tail.samples) == (percentile, float(rank), n)
        assert tail.beyond == n - rank == 10

    @pytest.mark.parametrize("n", range(20, 400))
    def test_highest_percentile_with_ten_beyond(self, n):
        tail = tail_percentile(list(range(n)))
        assert tail.beyond >= 10
        next_rank = math.ceil((tail.percentile + 1) * n / 100)
        assert n - next_rank < 10

    @pytest.mark.parametrize("n, rank", [(1, 1), (3, 2), (4, 2), (12, 6), (19, 10)])
    def test_too_few_samples_stop_at_the_median(self, n, rank):
        tail = tail_percentile([float(i) for i in range(1, n + 1)])
        assert (tail.percentile, tail.value, tail.beyond) == (50, float(rank), n - rank)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class TestHarrellDavis:
    def test_three_samples_weigh_the_beta_2_2_cells(self):
        # Beta(2, 2) puts 7/27, 13/27 and 7/27 on the thirds of [0, 1].
        assert harrell_davis([10.0, 1.0, 2.0]) == pytest.approx(103 / 27, rel=1e-5)

    def test_upper_quantile_of_three_samples(self):
        # Beta(3, 1) has CDF t**3: 1/27, 7/27 and 19/27 on the thirds.
        assert harrell_davis([1.0, 2.0, 10.0], 0.75) == pytest.approx(205 / 27, rel=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 5, 26])
    def test_symmetric_samples_give_their_centre(self, n):
        assert harrell_davis(list(range(n))) == pytest.approx((n - 1) / 2)

    @pytest.mark.parametrize("p", [0.5, 0.61, 0.9])
    def test_constant_samples(self, p):
        assert harrell_davis([0.7] * 26, p) == pytest.approx(0.7)

    def test_rises_with_the_quantile(self):
        samples = [float(i * i) for i in range(26)]
        assert harrell_davis(samples, 0.5) < harrell_davis(samples, 0.61) < harrell_davis(samples, 0.9)

    def test_reordering_neighbours_moves_it_less_than_the_median(self):
        low = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        high = [1.0, 2.0, 3.0, 6.0, 5.0, 6.0, 7.0]  # the middle sample jumps
        assert harrell_davis(high) - harrell_davis(low) < median(high) - median(low)

    @pytest.mark.parametrize("samples, p", [([], 0.5), ([1.0], 0.0), ([1.0], 1.0)])
    def test_refused(self, samples, p):
        with pytest.raises(ValueError):
            harrell_davis(samples, p)


class TestResidual:
    def test_share_of_wall(self):
        unattributed, share = residual(2.0, {"formation": 0.5, "pbft": 1.2, "se": 0.2})
        assert unattributed == pytest.approx(0.1)
        assert share == pytest.approx(0.05)

    def test_overlapping_layers_go_negative(self):
        unattributed, share = residual(1.0, {"a": 0.7, "b": 0.4})
        assert unattributed == pytest.approx(-0.1)
        assert share == pytest.approx(-0.1)

    def test_zero_wall(self):
        assert residual(0.0, {}) == (0.0, 0.0)


class TestFailureCounting:
    def test_feasible_decision_has_no_faults(self):
        assert decision_faults(count=5, weight=900, n_min=5, capacity=900) == []

    def test_each_constraint_is_named(self):
        faults = decision_faults(count=4, weight=901, n_min=5, capacity=900)
        assert len(faults) == 2
        assert faults[0].startswith("const. (3)")
        assert faults[1].startswith("const. (4)")

    def test_tally_counts_failed_against_attempted(self):
        tally = FailureTally()
        tally.record(0, [])
        tally.record(1, ["const. (3): 1 shards < N_min 2", "const. (4): 9 txs > capacity 8"])
        tally.record(2, [])
        assert (tally.attempted, tally.failed, tally.correct) == (3, 1, False)
        assert tally.failures[0][0] == 1

    def test_run_level_failure_is_not_an_attempt(self):
        tally = FailureTally()
        tally.record(0, [])
        tally.fail_run("traced and untraced runs made different decisions")
        assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


class TestLayerClock:
    def test_wrap_times_each_call(self):
        ticks = iter([0.0, 0.25, 1.0, 1.5])
        layers = LayerClock(clock=lambda: next(ticks))
        seen = []
        timed = layers.wrap("se", lambda x: x * 2, on_result=lambda r, s: seen.append((r, s)))
        assert timed(2) == 4 and timed(3) == 6
        assert layers.samples["se"] == [0.25, 0.5]
        assert layers.total("se") == 0.75
        assert layers.total("never-called") == 0.0
        assert seen == [(4, 0.25), (6, 0.5)]


class TestPatches:
    def test_restores_elastico_and_final_attributes(self):
        from repro.chain import elastico, final

        before_elastico = dict(vars(elastico))
        before_final = dict(vars(final))
        with Patches() as patches:
            patches.replace(elastico, "run_intra_consensus_streaming", lambda *a: 0)
            patches.replace(elastico, "FinalCommittee", object)
            assert elastico.FinalCommittee is object
        assert dict(vars(elastico)) == before_elastico
        assert dict(vars(final)) == before_final

    def test_instance_attribute_falls_back_to_the_class(self):
        class Sim:
            def form_committees(self):
                return "real"

        sim = Sim()
        with Patches() as patches:
            patches.replace(sim, "form_committees", lambda: "timed")
            assert sim.form_committees() == "timed"
        assert "form_committees" not in vars(sim)
        assert sim.form_committees() == "real"

    def test_restores_on_error_and_in_reverse_order(self):
        class Box:
            value = "class"

        box = Box()
        box.value = "own"
        with pytest.raises(RuntimeError):
            with Patches() as patches:
                patches.replace(box, "value", "first")
                patches.replace(box, "value", "second")
                raise RuntimeError
        assert box.value == "own"

    def test_missing_attribute_is_refused(self):
        class Empty:
            pass

        with pytest.raises(AttributeError):
            Patches().replace(Empty(), "nope", 1)
