import math

import numpy as np
import pytest
from scipy.linalg import expm

from telegraphctl.analytics import (
    dwell_time,
    hidden_dwell_times,
    integrate_rate_equations,
    mean_occupancy,
    optimal_repump_rate,
    stationary_belief,
    sweep_maximum,
    sweep_repump_rate,
    time_to_target,
)
from telegraphctl.errors import (
    EmptyEnsembleError,
    GuardViolatedError,
    NeverReachedError,
    NoEpisodesError,
)
from telegraphctl.filtering import generator
from telegraphctl.model import Belief, TransitionRates

from oracles import stationary_from_nullspace

DELTA2 = Belief(0.0, 0.0, 1.0)


def belief_trace(argmax_sequence):
    """Synthetic belief trace with the given argmax per bin."""
    table = {
        0: Belief(0.8, 0.15, 0.05),
        1: Belief(0.1, 0.8, 0.1),
        2: Belief(0.05, 0.15, 0.8),
    }
    return [table[a] for a in argmax_sequence]


class TestIntegrateRateEquations:
    def test_frozen_rates_constant(self):
        traj = integrate_rate_equations(
            Belief(0.2, 0.3, 0.5), TransitionRates(0, 0, 0), 0.1, 1e-3
        )
        assert np.allclose(traj, [0.2, 0.3, 0.5], atol=1e-15)

    def test_converges_to_stationary(self, paper_rates):
        p_stat = stationary_from_nullspace(generator(paper_rates))
        traj = integrate_rate_equations(DELTA2, paper_rates, 1.0, 1e-3)
        assert np.abs(traj[-1] - p_stat).max() < 1e-9
        assert stationary_belief(paper_rates).p1 == pytest.approx(
            p_stat[1], abs=1e-12
        )

    def test_normalization_conserved(self, paper_rates):
        traj = integrate_rate_equations(DELTA2, paper_rates, 0.3, 1e-3)
        assert np.abs(traj.sum(axis=1) - 1.0).max() <= 1e-12

    def test_linear_vs_exact_per_step_bound(self, paper_rates):
        lin = integrate_rate_equations(DELTA2, paper_rates, 0.05, 1e-3)
        exact = integrate_rate_equations(DELTA2, paper_rates, 0.05, 1e-3, "exact")
        load = 118.0 * 1e-3
        # grows ~linearly with the number of steps; per-step bound times n
        for n in (0, 9, 49):
            assert np.abs(lin[n] - exact[n]).max() < (n + 1) * load * load

    def test_guard_violation(self, paper_rates):
        with pytest.raises(GuardViolatedError):
            integrate_rate_equations(DELTA2, paper_rates, 0.3, 0.01)
        integrate_rate_equations(DELTA2, paper_rates, 0.3, 0.01, method="exact")

    def test_unknown_method_rejected(self, paper_rates):
        with pytest.raises(ValueError, match="bogus"):
            integrate_rate_equations(DELTA2, paper_rates, 0.3, 1e-3, method="bogus")

    def test_weak_repumping_300ms_mean(self, paper_rates):
        # frozen value, cross-checked against the eigen-decomposition of the
        # generator: stationary p1 = 0.321601, finite-trace mean = 0.309887
        traj = integrate_rate_equations(DELTA2, paper_rates, 0.3, 1e-3)
        mean_p1 = traj[:, 1].mean()
        assert mean_p1 == pytest.approx(0.309887, abs=1e-5)


class TestSweep:
    def test_no_repumping_transient_only(self, paper_rates):
        base = TransitionRates(paper_rates.r21, paper_rates.r10, 0.0)
        curve = sweep_repump_rate(base, [0.0], 0.3)
        # oracle: continuous-time average of the pure decay chain
        g = generator(base)
        fine = np.linspace(0, 0.3, 30001)
        p1 = [expm(g * t)[1, 2] for t in fine[::100]]
        assert curve[0][1] == pytest.approx(np.mean(p1), abs=5e-3)
        assert curve[0][1] < 0.15

    def test_maximum_location_near_closed_form(self, paper_rates):
        r_star = optimal_repump_rate(paper_rates)
        assert r_star == pytest.approx(math.sqrt(50.0 * 35.0 / 2.0), abs=1e-12)
        r_values = np.linspace(5, 120, 231)
        curve = sweep_repump_rate(paper_rates, r_values, 0.3)
        best_r, best_p1 = sweep_maximum(curve)
        # the finite-horizon maximizer sits near the stationary optimum
        assert abs(best_r - r_star) < 3.0
        assert 0.34 <= best_p1 <= 0.37

    def test_stationary_ceiling(self, paper_rates):
        r_star = optimal_repump_rate(paper_rates)
        p1_max = stationary_belief(
            TransitionRates(paper_rates.r21, paper_rates.r10, r_star)
        ).p1
        expected = 1.0 / (1.0 + 50.0 / (2 * r_star) + r_star / 35.0)
        assert p1_max == pytest.approx(expected, abs=1e-12)
        assert p1_max == pytest.approx(0.3717, abs=5e-4)


class TestMeanOccupancy:
    def test_single_constant_trace(self):
        traces = [[Belief(0.0, 1.0, 0.0)] * 10]
        summary = mean_occupancy(traces)
        assert summary.mean_p == Belief(0.0, 1.0, 0.0)
        assert summary.n_bins == 10
        assert summary.n_traces == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyEnsembleError):
            mean_occupancy([])
        with pytest.raises(EmptyEnsembleError):
            mean_occupancy([[], []])

    def test_ensemble_average(self):
        traces = [
            [Belief(1.0, 0.0, 0.0)] * 5,
            [Belief(0.0, 0.0, 1.0)] * 5,
        ]
        summary = mean_occupancy(traces)
        assert summary.mean_p == Belief(0.5, 0.0, 0.5)


class TestDwellTime:
    def test_exact_run_lengths(self):
        # runs of 3 and 2 bins inside the trace; boundary runs excluded
        trace = belief_trace([1, 0, 1, 1, 1, 0, 1, 1, 2, 1])
        stats = dwell_time([trace], 1e-3)
        assert stats.n_episodes == 2
        assert stats.tau == pytest.approx((3 + 2) / 2 * 1e-3)
        assert stats.n_truncated == 2  # leading and trailing runs

    def test_always_in_target_all_truncated(self):
        stats = dwell_time([belief_trace([1] * 20)], 1e-3)
        assert stats.n_episodes == 0
        assert stats.n_truncated == 1
        assert math.isnan(stats.tau)

    def test_never_dominant_raises(self):
        with pytest.raises(NoEpisodesError):
            dwell_time([belief_trace([0, 2, 0, 2])], 1e-3)

    def test_pooling_across_traces(self):
        traces = [
            belief_trace([0, 1, 1, 0]),
            belief_trace([2, 1, 1, 1, 1, 2]),
        ]
        stats = dwell_time(traces, 2e-3)
        assert stats.n_episodes == 2
        assert stats.tau == pytest.approx((2 + 4) / 2 * 2e-3)


class TestHiddenDwellTimes:
    def test_exact_intervals(self):
        # enter target at t=0.1, leave at 0.25; enter 0.4, leave 0.7
        changes = [(0.1, 1), (0.25, 0), (0.4, 1), (0.7, 2)]
        dwells = hidden_dwell_times(2, changes, 1.0)
        assert dwells == [pytest.approx(0.15), pytest.approx(0.3)]

    def test_censored_start_and_end_dropped(self):
        changes = [(0.2, 0), (0.5, 1)]  # starts in target, ends in target
        assert hidden_dwell_times(1, changes, 1.0) == []

    def test_jump_through_without_dwell(self):
        # a both-atom pulse flip 0 -> 2 never visits the middle state
        changes = [(0.3, 2)]
        assert hidden_dwell_times(0, changes, 1.0) == []


class TestTimeToTarget:
    def test_first_bin_dominance_counts_one_bin(self):
        trace = belief_trace([1, 1, 1])
        assert time_to_target([trace], 1e-3) == pytest.approx(1e-3)

    def test_initial_and_interior_episodes(self):
        # start away for 2 bins (reaches target at bin 2 -> 3 bins),
        # then a 2-bin interior excursion
        trace = belief_trace([2, 2, 1, 0, 0, 1])
        assert time_to_target([trace], 1e-3) == pytest.approx((3 + 2) / 2 * 1e-3)

    def test_unfinished_episode_censored(self):
        # trace 1: initial 1-bin episode, then an excursion cut off by the
        # trace end (dropped); trace 2: initial 2-bin episode
        trace = belief_trace([1, 0, 0])
        trace2 = belief_trace([2, 1])
        assert time_to_target([trace, trace2], 1e-3) == pytest.approx(1.5e-3)

    def test_never_reached_raises(self):
        with pytest.raises(NeverReachedError):
            time_to_target([belief_trace([0, 0, 2])], 1e-3)
