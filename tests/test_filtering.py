import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, poisson

from telegraphctl.config import feedback_defaults
from telegraphctl.control import ControlPolicy, pulse_matrix
from telegraphctl.errors import AllZeroError, GuardViolatedError, NotStochasticError
from telegraphctl.experiments import run_closed_loop
from telegraphctl.filtering import (
    FilterConfig,
    apply_pulse_to_belief,
    exact_step_matrix,
    generator,
    guard_load,
    posterior_from_log_likelihoods,
    posterior_update,
    propagate_prior,
    pulsed_belief,
    run_filter,
    step_matrices,
    step_matrix,
    trace_log_likelihood,
    transition_matrix,
)
from telegraphctl.model import (
    Belief,
    PhotonCountModel,
    Pulse,
    TransitionRates,
    normalize,
)
from telegraphctl.simulate import SimConfig, run_trace

from oracles import mp_expm_generator, stationary_from_nullspace

RATE_SETS = [
    TransitionRates(35.0, 50.0, 59.0),
    TransitionRates(10.0, 10.0, 10.0),
    TransitionRates(150.0, 120.0, 80.0),
    TransitionRates(2.0, 200.0, 5.0),
]


def test_generator_columns_sum_to_zero():
    for rates in RATE_SETS:
        g = generator(rates)
        for col in range(3):
            assert math.fsum(g[:, col]) == 0.0


def test_generator_ignores_depumping():
    # continuous depumping is not part of the belief propagation model
    with_d = TransitionRates(35.0, 50.0, 59.0, 77.0)
    without = TransitionRates(35.0, 50.0, 59.0, 0.0)
    assert np.array_equal(generator(with_d), generator(without))


def test_step_matrix_column_stochastic_exactly():
    for rates in RATE_SETS:
        dt = 0.4 / max(2 * rates.r_repump, rates.r10 + rates.r_repump, rates.r21)
        m = step_matrix(rates, dt)
        assert np.all(m >= 0.0)
        for col in range(3):
            assert math.fsum(m[:, col]) == 1.0


@pytest.mark.parametrize("dt", [0.0, 1e-4, 1e-3, 0.5])
def test_exact_step_matrices_match_single_calls(dt):
    r21 = np.array([0.0, 35.0, 150.0, 2.0])
    r10 = np.array([[50.0], [0.0], [120.0]])
    rr = 59.0
    batch = step_matrices(r21, r10, rr, dt, "exact")
    assert batch.shape == (3, 4, 3, 3)
    for i, j in np.ndindex(3, 4):
        single = exact_step_matrix(TransitionRates(r21[j], r10[i, 0], rr), dt)
        assert batch[i, j].tobytes() == single.tobytes()
    assert np.all(batch >= 0.0)


def test_exact_step_matrices_reject_negative_dt():
    with pytest.raises(ValueError):
        step_matrices(1.0, 1.0, 1.0, -1e-3, "exact")


# (r21, r10, r_repump): the default grid's corners, each rate zero and all
# three zero, an equal-root cell (rr = 0, r21 = r10: eigenvalues 0, -40,
# -40) and random cells
ORACLE_CELLS = (
    [(a, b, c) for a in (2.0, 150.0) for b in (2.0, 150.0) for c in (2.0, 150.0)]
    + [(0.0, 50.0, 59.0), (35.0, 0.0, 59.0), (35.0, 50.0, 0.0), (0.0, 0.0, 0.0)]
    + [(40.0, 40.0, 0.0)]
    + [tuple(r) for r in np.random.default_rng(8).uniform(0.0, 150.0, (20, 3))]
)


@pytest.mark.parametrize(
    "dt, rtol",
    [(1e-4, 1e-13), (1e-3, 1e-13), (1e-2, 1e-13), (0.1, 1e-13), (0.5, 1e-13), (5.0, 1e-12)],
)
def test_exact_step_matrices_match_mpmath(dt, rtol):
    # entrywise relative error against 40 digits, the smallest entries
    # included; below the normal range (exp(-750) at 5 s) the bound is the
    # smallest normal float, and true zeros must come out exactly zero
    tiny = np.finfo(float).tiny
    r21, r10, rr = np.array(ORACLE_CELLS).T
    batch = step_matrices(r21, r10, rr, dt, "exact")
    assert np.all(batch >= 0.0)  # with no clamp in the build
    for m, cell in zip(batch, ORACLE_CELLS):
        ref = mp_expm_generator(*cell, dt)
        err = np.abs(m - ref)
        normal = ref >= tiny
        assert np.all(err[normal] <= rtol * ref[normal]), (cell, (err / ref)[normal].max())
        assert np.all(err[~normal] <= tiny), cell
        assert np.all(m[ref == 0.0] == 0.0), cell


@pytest.mark.parametrize("dt", [1e6, 1e300])
def test_exact_step_matrices_reach_stationary_at_huge_dt(dt):
    # about a thousand squarings at 1e300 s: every column must still be the
    # stationary distribution, not an overflow
    for rates in RATE_SETS:
        m = exact_step_matrix(rates, dt)
        p_inf = stationary_from_nullspace(generator(rates))
        assert np.allclose(m, p_inf[:, None], rtol=1e-12, atol=0), rates


def test_exact_step_matrices_zero_dt_is_identity():
    r21, r10, rr = np.array(ORACLE_CELLS).T
    for m in step_matrices(r21, r10, rr, 0.0, "exact"):
        assert m.tobytes() == np.eye(3).tobytes()


def test_import_loads_no_scipy():
    # the exact propagator is built in-house, so importing the package (and
    # its CLI) must not pay for scipy
    code = (
        "import sys, telegraphctl, telegraphctl.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


# step_matrix bits recorded before the linear entries moved into
# step_matrices. Cases two and three have a zero rate (r21, r_repump); in
# the last two, pinning moves a diagonal entry off I + dt*G.
STEP_MATRIX_BITS = [
    ((35.0, 50.0, 59.0), 0.001, (
        ("0x1.c395810624dd3p-1", "0x1.999999999999ap-5", "0x0.0p+0"),
        ("0x1.e353f7ced9169p-4", "0x1.c83126e978d50p-1", "0x1.1eb851eb851ecp-5"),
        ("0x0.0p+0", "0x1.e353f7ced9169p-5", "0x1.ee147ae147ae1p-1"),
    )),
    ((0.0, 50.0, 59.0), 0.001, (
        ("0x1.c395810624dd3p-1", "0x1.999999999999ap-5", "0x0.0p+0"),
        ("0x1.e353f7ced9169p-4", "0x1.c83126e978d50p-1", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.e353f7ced9169p-5", "0x1.0000000000000p+0"),
    )),
    ((120.0, 3.5, 0.0), 0.0003, (
        ("0x1.0000000000000p+0", "0x1.13404ea4a8c15p-10", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.ff765fd8adabap-1", "0x1.26e978d4fdf3bp-5"),
        ("0x0.0p+0", "0x0.0p+0", "0x1.ed916872b020cp-1"),
    )),
    ((17.13, 47.362, 160.255), 0.0012061, (
        ("0x1.3a13e0291772ep-1", "0x1.d3f44291ddd41p-5", "0x0.0p+0"),
        ("0x1.8bd83fadd11a5p-2", "0x1.7fcaabeb6ddc3p-1", "0x1.52806370456b0p-6"),
        ("0x0.0p+0", "0x1.8bd83fadd11a5p-3", "0x1.f56bfce47dd4ap-1"),
    )),
    ((132.1, 186.293, 41.438), 0.0012972, (
        ("0x1.c8f4e0295a734p-1", "0x1.eeeb0f75415f5p-3", "0x0.0p+0"),
        ("0x1.b858feb52c663p-4", "0x1.68bfac375ce1dp-1", "0x1.5ef20df9e8b9cp-3"),
        ("0x0.0p+0", "0x1.b858feb52c663p-5", "0x1.a8437c8185d19p-1"),
    )),
]


@pytest.mark.parametrize("rates, dt, bits", STEP_MATRIX_BITS)
def test_step_matrix_frozen_bits(rates, dt, bits):
    rates = TransitionRates(*rates)
    m = step_matrix(rates, dt)
    assert [[x.hex() for x in row] for row in m.tolist()] == [list(row) for row in bits]
    # the pinned matrix is the linear stack up to an ulp on the diagonal
    stack = step_matrices(rates.r21, rates.r10, rates.r_repump, dt, "linear")
    assert np.abs(m - stack).max() <= np.finfo(float).eps


def test_step_matrix_guard():
    rates = TransitionRates(35.0, 50.0, 59.0)
    with pytest.raises(GuardViolatedError):
        step_matrix(rates, 0.5 / 118.0)  # load exactly at the limit
    step_matrix(rates, 0.49 / 118.0)


class TestPropagatePrior:
    def test_zero_dt_identity(self, paper_rates):
        p = Belief(0.2, 0.3, 0.5)
        assert propagate_prior(p, paper_rates, 0.0) == p

    def test_single_matrix_entry(self, paper_rates):
        out = propagate_prior(Belief(0.0, 0.0, 1.0), paper_rates, 1e-3)
        assert out.p0 == 0.0
        assert out.p1 == pytest.approx(0.035, abs=1e-15)
        assert out.p2 == pytest.approx(0.965, abs=1e-15)

    def test_stationary_fixed_point(self, paper_rates):
        p_stat = stationary_from_nullspace(generator(paper_rates))
        out = propagate_prior(normalize(p_stat), paper_rates, 1e-3)
        for a, b in zip(out.as_tuple(), p_stat):
            assert a == pytest.approx(b, abs=1e-12)

    def test_guard_violation_raises(self, paper_rates):
        for _ in range(3):  # on every call, not only the first
            with pytest.raises(GuardViolatedError):
                propagate_prior(Belief(0, 0, 1), paper_rates, 0.01)

    @pytest.mark.parametrize("method", ["linear", "exact"])
    def test_matches_fresh_matrix(self, method):
        build = step_matrix if method == "linear" else exact_step_matrix
        belief = Belief(0.2, 0.3, 0.5)
        for rates in RATE_SETS:
            for dt in (1e-4, 1e-3):
                if method == "linear" and guard_load(rates, dt) >= 0.5:
                    continue
                expected = normalize(build(rates, dt) @ np.asarray(belief.as_tuple()))
                for _ in range(2):  # the second call reads the cached matrix
                    assert propagate_prior(belief, rates, dt, method) == expected

    def test_cached_matrix_is_read_only(self, paper_rates):
        m = transition_matrix(35.0, 50.0, 59.0, 1e-3, "linear")
        assert m is transition_matrix(35.0, 50.0, 59.0, 1e-3, "linear")
        assert np.array_equal(m, step_matrix(paper_rates, 1e-3))
        with pytest.raises(ValueError):
            m[0, 0] = 0.0

    def test_unknown_method_rejected(self, paper_rates):
        with pytest.raises(ValueError):
            propagate_prior(Belief(0, 0, 1), paper_rates, 1e-3, method="euler")

    def test_exact_mode_allows_large_dt(self, paper_rates):
        out = propagate_prior(Belief(0.0, 0.0, 1.0), paper_rates, 0.5, method="exact")
        p_inf = stationary_from_nullspace(generator(paper_rates))
        for a, b in zip(out.as_tuple(), p_inf):
            assert a == pytest.approx(b, abs=1e-6)  # 0.5 s is ~25 relaxation times

    def test_linearization_error_bound(self):
        # |linear - exact| per component < (max_rate * dt)^2 on the test grid
        rng = np.random.default_rng(5)
        for rates in RATE_SETS:
            for dt in (1e-4, 3e-4, 1e-3):
                load = guard_load(rates, dt)
                if load >= 0.5:
                    continue
                exact = exact_step_matrix(rates, dt)
                linear = step_matrix(rates, dt)
                for _ in range(50):
                    p = rng.dirichlet(np.ones(3))
                    diff = np.abs(exact @ p - linear @ p).max()
                    assert diff < load * load


# Invalid beliefs: a non-finite one is rejected before the product with a
# cached stochastic matrix, so inf * 0 cannot warn; the product of a
# negative one is not a valid weight triple, so it goes through normalize
# and raises its error type (it gives a negative entry 0 under each matrix
# below). The Bayes update rejects a negative component as it weighs it,
# and the weights of a non-finite one through normalize. A Belief has three
# entries; a plain sequence of another length does not unpack into one.
INVALID_BELIEFS = [
    (Belief(-0.5, 0.75, 0.75), ValueError),
    (Belief(math.nan, 0.5, 0.5), ValueError),
    (Belief(0.5, math.nan, 0.5), ValueError),
    (Belief(math.inf, 0.0, 0.0), ValueError),
    (Belief(0.0, 1.0, math.inf), ValueError),
    (Belief(0.0, 0.0, 0.0), AllZeroError),
    ((0.5, 0.5), ValueError),
    ((0.2, 0.3, 0.4, 0.1), ValueError),
]


@pytest.mark.parametrize("belief, error", INVALID_BELIEFS)
@pytest.mark.parametrize(
    "step",
    [
        lambda b: propagate_prior(b, TransitionRates(35.0, 50.0, 59.0), 1e-3),
        lambda b: propagate_prior(b, TransitionRates(35.0, 50.0, 59.0), 1e-3, "exact"),
        lambda b: pulsed_belief(b, 0.4, Pulse.REPUMP),
        lambda b: pulsed_belief(b, 0.4, Pulse.DEPUMP),
        lambda b: posterior_update(b, 28, PhotonCountModel((40.0, 28.0, 16.0))),
    ],
    ids=["linear", "exact", "repump", "depump", "posterior"],
)
def test_invalid_belief_raises_normalize_error(step, belief, error):
    with pytest.raises(error):
        step(belief)


class TestPosteriorUpdate:
    def test_equal_likelihoods_preserve_prior(self):
        prior = Belief(0.2, 0.5, 0.3)
        post = posterior_from_log_likelihoods(prior, (-3.7, -3.7, -3.7))
        for a, b in zip(post.as_tuple(), prior.as_tuple()):
            assert a == pytest.approx(b, rel=1e-14)

    def test_nearly_uninformative_model(self):
        # means separated by 1e-9 approximate the equal-means limit
        model = PhotonCountModel((28.0 + 2e-9, 28.0 + 1e-9, 28.0))
        prior = Belief(0.2, 0.5, 0.3)
        post = posterior_update(prior, 28, model)
        for a, b in zip(post.as_tuple(), prior.as_tuple()):
            assert a == pytest.approx(b, rel=1e-7)

    def test_delta_prior_fixed_point(self, default_model):
        delta = Belief(0.0, 0.0, 1.0)
        for n in (0, 16, 28, 40, 80):
            assert posterior_update(delta, n, default_model) == delta

    def test_matches_direct_pmf_arithmetic(self, default_model):
        prior = normalize((1.0, 1.0, 1.0))
        post = posterior_update(prior, 16, default_model)
        weights = [poisson.pmf(16, m) for m in default_model.mean_counts]
        expected = np.array(weights) / sum(weights)
        for a, b in zip(post.as_tuple(), expected):
            assert a == pytest.approx(b, rel=1e-10)
        assert post.argmax() == 2

    def test_all_zero_raises(self):
        model = PhotonCountModel((40.0, 28.0, 0.0))
        with pytest.raises(AllZeroError):
            posterior_update(Belief(0.0, 0.0, 1.0), 4, model)

    @pytest.mark.parametrize(
        "prior",
        [Belief(math.nan, 0.5, 0.5), Belief(0.5, math.nan, 0.5), Belief(0.0, 1.0, math.inf)],
    )
    def test_non_finite_prior_rejected(self, default_model, prior):
        # its Bayes weights hold a NaN, which normalize rejects
        with pytest.raises(ValueError):
            posterior_update(prior, 28, default_model)

    def test_extreme_count_no_underflow(self, default_model):
        post = posterior_update(normalize((1, 1, 1)), 4000, default_model)
        assert post.argmax() == 0  # largest mean wins for huge counts
        assert math.fsum(post.as_tuple()) == 1.0


class TestApplyPulseToBelief:
    def test_identity(self):
        b = Belief(0.3, 0.4, 0.3)
        assert apply_pulse_to_belief(b, np.eye(3)) == b

    def test_saturating_repump(self):
        m = pulse_matrix(1.0, Pulse.REPUMP)
        for b in (Belief(1, 0, 0), Belief(0.2, 0.5, 0.3)):
            assert apply_pulse_to_belief(b, m) == Belief(0.0, 0.0, 1.0)

    def test_half_pulse_from_bottom(self):
        out = apply_pulse_to_belief(Belief(1.0, 0.0, 0.0), pulse_matrix(0.5, Pulse.REPUMP))
        assert out == Belief(0.25, 0.5, 0.25)

    def test_not_stochastic_rejected(self):
        bad = np.eye(3) * 1.5
        with pytest.raises(NotStochasticError):
            apply_pulse_to_belief(Belief(1, 0, 0), bad)
        negative = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, -0.0001, 1.0]])
        negative[0, 2] = 1.0001
        with pytest.raises(NotStochasticError):
            apply_pulse_to_belief(Belief(1, 0, 0), negative)


class TestRunFilter:
    def test_empty_sequence(self, default_model, paper_rates):
        config = FilterConfig(default_model, paper_rates, 1e-3)
        assert run_filter([], config) == []

    def test_argmax_accuracy_open_loop(self, default_model, paper_rates):
        sim = SimConfig(paper_rates, default_model, 1e-3, 5100, 2, 97531)
        records = run_trace(sim)
        config = FilterConfig(default_model, paper_rates, 1e-3)
        beliefs = run_filter(records, config)
        hits = sum(
            b.argmax() == rec.true_state for b, rec in zip(beliefs, records)
        )
        assert hits / len(records) > 0.93

    def test_normalization_everywhere(self, default_model, paper_rates):
        sim = SimConfig(paper_rates, default_model, 1e-3, 1000, 2, 2468)
        records = run_trace(sim)
        config = FilterConfig(default_model, paper_rates, 1e-3)
        for b in run_filter(records, config):
            assert abs(math.fsum(b.as_tuple()) - 1.0) <= 1e-12

    def test_detects_quantum_jumps_promptly(self, default_model, paper_rates):
        # persistent hidden-state switches show up in the belief within 3 bins
        sim = SimConfig(paper_rates, default_model, 1e-3, 5100, 2, 111)
        records = run_trace(sim)
        beliefs = run_filter(records, FilterConfig(default_model, paper_rates, 1e-3))
        states = [r.true_state for r in records]
        argmaxes = [b.argmax() for b in beliefs]
        checked = detected = 0
        for i in range(1, len(states) - 5):
            if states[i] != states[i - 1] and all(
                s == states[i] for s in states[i : i + 5]
            ):
                checked += 1
                detected += any(a == states[i] for a in argmaxes[i : i + 3])
        assert checked > 50
        assert detected / checked > 0.9

    def test_pulse_replay_matches_online_filter(self, default_model, feedback_rates):
        # offline filtering of a recorded closed-loop trace reproduces the
        # controller's own posterior sequence bit for bit
        fc = FilterConfig(
            default_model, feedback_rates, 1e-3, repump_t=0.4, depump_t=0.4
        )
        sim = SimConfig(feedback_rates, default_model, 1e-3, 400, 2, 8080)
        policy = ControlPolicy(fixed_t_repump=0.4, fixed_t_depump=0.4)
        run = run_closed_loop(sim, fc, policy)
        offline = run_filter(run.records, fc)
        assert offline == run.posteriors

    @pytest.mark.parametrize("seed", range(5))
    def test_replays_feedback_defaults_run(self, seed):
        # the offline filter and the feedback controller share one belief
        # step, so the default closed-loop configuration replays exactly
        cfg = feedback_defaults()
        run = run_closed_loop(
            cfg.sim_config(seed), cfg.filter_config(), cfg.control_policy()
        )
        assert any(rec.pulse for rec in run.records)
        assert run_filter(run.records, cfg.filter_config()) == run.posteriors

    def test_pulse_without_probability_rejected(self, default_model, feedback_rates):
        from telegraphctl.model import TraceRecord

        config = FilterConfig(default_model, feedback_rates, 1e-3)
        records = [TraceRecord(0, 28, Pulse.REPUMP)]
        with pytest.raises(ValueError):
            run_filter(records, config)

    def test_guard_enforced_at_config_time(self, default_model, paper_rates):
        with pytest.raises(GuardViolatedError):
            FilterConfig(default_model, paper_rates, 0.01)
        FilterConfig(default_model, paper_rates, 0.01, propagation="exact")


def test_true_model_log_likelihood_dominates(default_model, paper_rates):
    perturbed = TransitionRates(
        paper_rates.r21 * 1.5, paper_rates.r10 * 1.5, paper_rates.r_repump * 1.5
    )
    for seed in (1, 2, 3):
        sim = SimConfig(paper_rates, default_model, 1e-3, 3000, 2, seed)
        records = run_trace(sim)
        ll_true = trace_log_likelihood(
            records, FilterConfig(default_model, paper_rates, 1e-3)
        )
        ll_wrong = trace_log_likelihood(
            records, FilterConfig(default_model, perturbed, 1e-3)
        )
        assert ll_true > ll_wrong


def test_log_likelihood_matches_numpy_forward_pass(default_model, paper_rates):
    # independent oracle: dense-matrix forward pass summing log normalizers,
    # with pulse matrices built from binomial flip probabilities
    t = 0.4
    fc = FilterConfig(default_model, paper_rates, 1e-3, repump_t=t, depump_t=t)
    sim = SimConfig(paper_rates, default_model, 1e-3, 300, 2, 4242)
    run = run_closed_loop(sim, fc, ControlPolicy(fixed_t_repump=t, fixed_t_depump=t))
    assert {Pulse.REPUMP, Pulse.DEPUMP} <= {rec.pulse for rec in run.records}

    r21, r10, rr = paper_rates.r21, paper_rates.r10, paper_rates.r_repump
    step = np.eye(3) + 1e-3 * np.array(
        [[-2 * rr, r10, 0.0], [2 * rr, -r10 - rr, r21], [0.0, rr, -r21]]
    )
    pulses = {Pulse.REPUMP: np.zeros((3, 3)), Pulse.DEPUMP: np.zeros((3, 3))}
    for alpha in range(3):
        for k in range(3 - alpha):
            pulses[Pulse.REPUMP][alpha + k, alpha] = binom.pmf(k, 2 - alpha, t)
        for k in range(alpha + 1):
            pulses[Pulse.DEPUMP][alpha - k, alpha] = binom.pmf(k, alpha, t)
    means = np.array(default_model.mean_counts)
    p = np.array([0.0, 0.0, 1.0])
    expected = 0.0
    for rec in run.records:
        w = poisson.pmf(rec.photon_count, means) * (step @ p)
        expected += np.log(w.sum())
        p = w / w.sum()
        if rec.pulse != Pulse.NONE:
            p = pulses[rec.pulse] @ p

    assert trace_log_likelihood(run.records, fc) == pytest.approx(expected, abs=1e-9)
