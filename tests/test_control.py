import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    reference_decide_action_optimal,
    reference_optimal_pulse_probability,
    reference_pulse_matrix,
)
from telegraphctl import control
from telegraphctl.config import feedback_defaults, parse_config
from telegraphctl.control import (
    DEFAULT_TARGET,
    ControlPolicy,
    _repump_cannot_help,
    decide_action,
    kolmogorov_distance,
    optimal_pulse_probability,
)
from telegraphctl.experiments import run_closed_loop
from telegraphctl.filtering import build_pulse_matrix
from telegraphctl.model import Belief, Pulse, normalize

TARGET = Belief(0.0, 1.0, 0.0)


def random_beliefs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [normalize(w) for w in rng.dirichlet(np.ones(3), size=n)]


def near_boundary_cases(n, seed=0):
    """(belief, target) pairs whose belief has one component <= 1e-6, so a
    post-pulse component is a quadratic with a tiny leading coefficient;
    on the first pair the textbook root formula loses the small root to
    cancellation."""
    rng = np.random.default_rng(seed)
    cases = [
        (
            Belief(2.359949972002835e-17, 0.9959023361429223, 0.004097663857077609),
            Belief(0.9561125405499274, 0.010252450105613773, 0.03363500934445882),
        )
    ]
    for _ in range(n):
        eps = 10.0 ** -rng.uniform(6.0, 18.0)
        w = list(rng.dirichlet(np.ones(2)) * (1.0 - eps))
        w.insert(int(rng.integers(3)), eps)
        belief = normalize(w)
        assert min(belief.as_tuple()) <= 1e-6
        cases.append((belief, normalize(rng.dirichlet(np.ones(3)))))
    return cases


def lattice_beliefs(denominator=8):
    """Every belief with components in multiples of 1/denominator: point
    masses, exact zeros, and (as belief and target) quadratics with double
    roots and with kinks exactly at T = 0 and T = 1."""
    d = denominator
    return [
        Belief(i / d, j / d, (d - i - j) / d)
        for i in range(d + 1)
        for j in range(d + 1 - i)
    ]


def hex_bits(values):
    return tuple(float(v).hex() for v in values)


def decision_bits(d):
    floats = (d.transition_probability, *d.predicted_belief)
    return (d.action,) + hex_bits(floats + (d.distance_before, d.distance_after))


class TestKolmogorovDistance:
    def test_identity(self):
        for b in random_beliefs(100):
            assert kolmogorov_distance(b, b) == 0.0

    def test_disjoint_support(self):
        assert kolmogorov_distance(Belief(1, 0, 0), Belief(0, 0, 1)) == 1.0

    def test_direct_sum(self):
        assert kolmogorov_distance(Belief(0.5, 0.5, 0), Belief(0, 0.5, 0.5)) == 0.5

    def test_metric_axioms_random_triples(self):
        # non-negativity, symmetry, identity, triangle inequality
        beliefs = random_beliefs(10_000, seed=42)
        rng = np.random.default_rng(1)
        idx = rng.integers(0, len(beliefs), size=(10_000, 3))
        for i, j, k in idx:
            p, q, r = beliefs[i], beliefs[j], beliefs[k]
            dpq = kolmogorov_distance(p, q)
            assert 0.0 <= dpq <= 1.0
            assert dpq == kolmogorov_distance(q, p)
            assert kolmogorov_distance(p, q) <= (
                kolmogorov_distance(p, r) + kolmogorov_distance(r, q) + 1e-12
            )
        for b in beliefs[:100]:
            assert kolmogorov_distance(b, b) == 0.0


class TestPulseMatrix:
    def test_zero_is_identity(self):
        for d in (Pulse.REPUMP, Pulse.DEPUMP):
            assert np.array_equal(build_pulse_matrix(0.0, d), np.eye(3))

    def test_saturating_repump(self):
        m = build_pulse_matrix(1.0, Pulse.REPUMP)
        assert np.array_equal(m, np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1.0]]))

    def test_half_repump_columns(self):
        m = build_pulse_matrix(0.5, Pulse.REPUMP)
        expected = np.array(
            [[0.25, 0.0, 0.0], [0.5, 0.5, 0.0], [0.25, 0.5, 1.0]]
        )
        assert np.array_equal(m, expected)

    def test_builder_matches_nested_reference(self):
        # the flat build against the nested one: the same values, sign bits
        # and strides, so the 3x3 dgemv over either gives the same bits
        rng = np.random.default_rng(29)
        edges = [0.0, 0.5, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 2.0**-53, 0.4]
        for t in edges + rng.random(2000).tolist():
            for d in (Pulse.REPUMP, Pulse.DEPUMP):
                got, want = build_pulse_matrix(t, d), reference_pulse_matrix(t, d)
                assert hex_bits(got.ravel()) == hex_bits(want.ravel()), (t, d)
                assert got.dtype == want.dtype and got.strides == want.strides

    def test_invalid_arguments_rejected(self):
        for args in ((1.5, Pulse.REPUMP), (-0.1, Pulse.DEPUMP), (math.nan, Pulse.REPUMP)):
            with pytest.raises(ValueError, match=r"^transition probability must be in \[0, 1\]$"):
                build_pulse_matrix(*args)
        with pytest.raises(ValueError, match="^direction must be REPUMP or DEPUMP$"):
            build_pulse_matrix(0.4, Pulse.NONE)

    def test_depump_is_index_reversed_mirror(self):
        for t in (0.0, 0.2, 0.5, 0.77, 1.0):
            mr = build_pulse_matrix(t, Pulse.REPUMP)
            md = build_pulse_matrix(t, Pulse.DEPUMP)
            assert np.array_equal(md, mr[::-1, ::-1])

    def test_column_sums_exact_on_dense_sweep(self):
        for i in range(1001):
            t = i / 1000.0
            for d in (Pulse.REPUMP, Pulse.DEPUMP):
                m = build_pulse_matrix(t, d)
                assert np.all(m >= 0.0)
                for col in range(3):
                    assert math.fsum(m[:, col]) == 1.0

    def test_monotone_actuation(self):
        # repumping stochastically increases alpha; depumping mirrors
        rng = np.random.default_rng(3)
        for b in random_beliefs(200, seed=9):
            t = rng.random()
            arr = np.asarray(b.as_tuple())
            up = build_pulse_matrix(t, Pulse.REPUMP) @ arr
            assert up[0] <= arr[0] + 1e-15
            assert up[0] + up[1] <= arr[0] + arr[1] + 1e-15
            down = build_pulse_matrix(t, Pulse.DEPUMP) @ arr
            assert down[2] <= arr[2] + 1e-15
            assert down[1] + down[2] <= arr[1] + arr[2] + 1e-15


class TestOptimalPulseProbability:
    def test_already_at_target(self):
        t, k = optimal_pulse_probability(TARGET, TARGET, Pulse.REPUMP)
        assert (t, k) == (0.0, 0.0)

    def test_bottom_state_quadratic_closed_form(self):
        belief = Belief(1.0, 0.0, 0.0)
        t, k = optimal_pulse_probability(belief, TARGET, Pulse.REPUMP)
        assert abs(t - 0.5) <= 1e-6
        assert abs(k - 0.5) <= 1e-6
        # the objective is exactly 1 - 2T + 2T^2 for this belief
        for tt in np.linspace(0, 1, 11):
            moved = build_pulse_matrix(tt, Pulse.REPUMP) @ np.array([1.0, 0.0, 0.0])
            k_direct = 0.5 * np.abs(moved - np.array([0, 1.0, 0])).sum()
            assert k_direct == pytest.approx(1 - 2 * tt + 2 * tt * tt, abs=1e-12)

    def test_top_state_mirror(self):
        t, k = optimal_pulse_probability(Belief(0.0, 0.0, 1.0), TARGET, Pulse.DEPUMP)
        assert abs(t - 0.5) <= 1e-6
        assert abs(k - 0.5) <= 1e-6

    def test_wrong_direction_prefers_no_pulse(self):
        # repumping cannot help from the top state; smallest minimizing T is 0
        t, k = optimal_pulse_probability(Belief(0.0, 0.0, 1.0), TARGET, Pulse.REPUMP)
        assert t == 0.0
        assert k == pytest.approx(1.0)

    def test_is_global_minimum_on_dense_grid(self):
        rng = np.random.default_rng(11)
        cases = [
            (b, normalize(rng.dirichlet(np.ones(3))))
            for b in random_beliefs(50, seed=23)
        ]
        for b, target in cases + near_boundary_cases(30, seed=5):
            for d in (Pulse.REPUMP, Pulse.DEPUMP):
                t_star, k_star = optimal_pulse_probability(b, target, d)
                arr = np.asarray(b.as_tuple())
                tgt = np.asarray(target.as_tuple())
                for tt in np.linspace(0, 1, 501):
                    k_tt = 0.5 * np.abs(build_pulse_matrix(tt, d) @ arr - tgt).sum()
                    assert k_star <= k_tt + 1e-9


class TestMatchesReferenceEnumeration:
    """The minimizer and the optimal policy against the plain enumeration
    in oracles.py, bit for bit."""

    @staticmethod
    def random_pairs(n, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(3), size=(n, 2)).tolist()
        return [(normalize(b), normalize(g)) for b, g in w]

    @staticmethod
    def assert_minimizer_matches(pairs):
        for b, g in pairs:
            for d in (Pulse.REPUMP, Pulse.DEPUMP):
                got = optimal_pulse_probability(b, g, d)
                want = reference_optimal_pulse_probability(b, g, d)
                assert hex_bits(got) == hex_bits(want), (b, g, d)

    @staticmethod
    def assert_policy_matches(pairs):
        for b, g in pairs:
            got = decide_action(b, ControlPolicy(mode="optimal", target=g))
            want = reference_decide_action_optimal(b, g)
            assert decision_bits(got) == decision_bits(want), (b, g)

    @pytest.mark.parametrize(
        "n",
        [
            pytest.param(500, id="2002"),
            pytest.param(25_000, id="100002", marks=pytest.mark.slow),
        ],
    )
    def test_random_and_near_boundary_pairs(self, n):
        # 4n + 2 (belief, target) pairs: n random and n + 1 with a belief
        # component <= 1e-6, each also swapped
        pairs = self.random_pairs(n, seed=101)
        pairs += near_boundary_cases(n, seed=202)
        pairs += [(g, b) for b, g in pairs]
        assert len(pairs) == 4 * n + 2
        self.assert_minimizer_matches(pairs)
        self.assert_policy_matches(pairs)

    def test_lattice_pairs(self):
        # Every ordered pair of 1/8-lattice beliefs. Among them: point
        # masses and exact zeros; repumping (1, 0, 0) towards (0, 1, 0),
        # whose first component (1 - T)^2 has a double root at T = 1 and
        # whose last, T^2, one at T = 0; towards (1/4, 1/2, 1/4), where
        # three components cross their targets at T = 1/2, one of them as a
        # double root, so the kink repeats; and pairs sharing a component,
        # which crosses its target at T = 0.
        pairs = list(itertools.product(lattice_beliefs(), repeat=2))
        self.assert_minimizer_matches(pairs)
        self.assert_policy_matches(pairs)

    def test_edge_grid(self):
        # Every belief triple of edge values, including non-finite, negative
        # and unnormalized ones, against a target that is the default, one
        # with a double-root kink, an unnormalized one, a non-finite one and
        # a unit-sum one of huge opposite-sign components, whose rounding
        # breaks the max-deviation identity the no-pulse exit rests on. The
        # minimizer must return the reference's bits or raise its exception.
        values = (0.0, -0.0, 5e-324, 1e-300, 1 / 4, 1 / 3, 1 / 2, 2 / 3, 1.0)
        values += (3 / 2, -1 / 2, 1e300, math.inf, -math.inf, math.nan)
        targets = (
            Belief(0.0, 1.0, 0.0),
            Belief(1 / 4, 1 / 2, 1 / 4),
            Belief(1 / 2, 3 / 4, 1 / 4),
            Belief(math.inf, -math.inf, 1.0),
            Belief(6250000000000001.0, -6250000000000000.0, 0.0),
        )

        def outcome(minimizer, *args):
            try:
                return hex_bits(minimizer(*args))
            except Exception as exc:
                return type(exc)

        for b in itertools.product(values, repeat=3):
            b = Belief(*b)
            for g in targets:
                for d in (Pulse.REPUMP, Pulse.DEPUMP):
                    got = outcome(optimal_pulse_probability, b, g, d)
                    want = outcome(reference_optimal_pulse_probability, b, g, d)
                    assert got == want, (b, g, d)


def no_pulse_exit(belief, target, direction):
    """control's exit test for one direction: depumping is repumping on
    the components reversed."""
    if direction == Pulse.DEPUMP:
        belief, target = belief[::-1], target[::-1]
    return _repump_cannot_help(*belief, *target)


class TestNoPulseExit:
    def test_near_tie_takes_exit(self):
        # |b1 - 1| rounds one ulp below b0, so the largest deviation is
        # b1's only within the exit's 1e-15 allowance
        b = Belief(0.02375133476490034, 0.9762486652350997, 1.0968722970704088e-18)
        assert abs(b.p1 - 1.0) < b.p0
        for d in (Pulse.REPUMP, Pulse.DEPUMP):
            assert no_pulse_exit(b, DEFAULT_TARGET, d)
            assert optimal_pulse_probability(b, DEFAULT_TARGET, d)[0] == 0.0

    def test_takes_exit_on_closed_loop_calls(self, monkeypatch):
        # the optimal-policy runs of test_closed_loop_frozen_bits: the exit
        # holds on most minimizer calls, and only where T = 0 is optimal
        calls = []
        minimizer = control.optimal_pulse_probability

        def record(belief, target, direction):
            calls.append((belief, target, direction))
            return minimizer(belief, target, direction)

        monkeypatch.setattr(control, "optimal_pulse_probability", record)
        cfg = replace(feedback_defaults(), policy_mode="optimal")
        for seed in (0, 1, 2):
            run_closed_loop(cfg.sim_config(seed), cfg.filter_config(), cfg.control_policy())
        held = [call for call in calls if no_pulse_exit(*call)]
        assert len(held) >= 0.9 * len(calls) > 0
        for call in held:
            want = reference_optimal_pulse_probability(*call)
            assert want[0] == 0.0
            assert hex_bits(minimizer(*call)) == hex_bits(want)


class TestDecideSimple:
    def test_bottom_dominant_fires_repump(self):
        policy = ControlPolicy(fixed_t_repump=0.5, fixed_t_depump=0.5)
        decision = decide_action(Belief(0.6, 0.3, 0.1), policy)
        assert decision.action == Pulse.REPUMP
        assert decision.transition_probability == 0.5
        assert decision.distance_after <= decision.distance_before

    def test_target_dominant_no_action(self):
        policy = ControlPolicy()
        decision = decide_action(Belief(0.1, 0.8, 0.1), policy)
        assert decision.action == Pulse.NONE
        assert decision.predicted_belief == Belief(0.1, 0.8, 0.1)

    def test_tie_means_no_action(self):
        policy = ControlPolicy()
        third = 1.0 / 3.0
        assert decide_action(Belief(third, third, third), policy).action == Pulse.NONE
        assert decide_action(Belief(0.4, 0.4, 0.2), policy).action == Pulse.NONE

    def test_top_dominant_fires_depump(self):
        policy = ControlPolicy()
        assert decide_action(Belief(0.1, 0.2, 0.7), policy).action == Pulse.DEPUMP

    def test_harmful_pulse_suppressed(self):
        # near-tie belief with a large fixed T: the pulse would overshoot and
        # increase the distance, so no pulse is issued
        policy = ControlPolicy(fixed_t_repump=0.9, fixed_t_depump=0.9)
        decision = decide_action(Belief(0.34, 0.33, 0.33), policy)
        assert decision.action == Pulse.NONE

    def test_improvement_invariant_on_random_beliefs(self):
        rng = np.random.default_rng(7)
        for b in random_beliefs(500, seed=31):
            t = float(rng.random())
            policy = ControlPolicy(fixed_t_repump=t, fixed_t_depump=t)
            d = decide_action(b, policy)
            if d.action != Pulse.NONE:
                assert d.distance_after <= d.distance_before


class TestDecideOptimal:
    def test_at_target_no_action(self):
        policy = ControlPolicy(mode="optimal")
        assert decide_action(TARGET, policy).action == Pulse.NONE

    def test_bottom_state_repump_half(self):
        policy = ControlPolicy(mode="optimal")
        d = decide_action(Belief(1.0, 0.0, 0.0), policy)
        assert d.action == Pulse.REPUMP
        assert d.transition_probability == pytest.approx(0.5, abs=1e-6)
        assert d.distance_after == pytest.approx(0.5, abs=1e-6)

    def test_symmetric_belief_tie_break(self):
        policy = ControlPolicy(mode="optimal")
        b = Belief(0.45, 0.10, 0.45)
        t_r, k_r = optimal_pulse_probability(b, TARGET, Pulse.REPUMP)
        t_d, k_d = optimal_pulse_probability(b, TARGET, Pulse.DEPUMP)
        assert k_r == pytest.approx(k_d, abs=1e-12)  # symmetry
        d = decide_action(b, policy)
        assert d.action == Pulse.REPUMP  # tie-break after no-op check

    def test_never_worse_than_no_action(self):
        policy = ControlPolicy(mode="optimal")
        for b in random_beliefs(300, seed=77):
            d = decide_action(b, policy)
            assert d.distance_after <= d.distance_before + 1e-12


@pytest.mark.parametrize(
    "belief", [Belief(math.nan, 0.5, 0.5), Belief(1.5, -0.5, 0.0)], ids=["nan", "negative"]
)
@pytest.mark.parametrize("mode", ["simple", "optimal"])
def test_invalid_belief_rejected(mode, belief):
    # a component that is not finite and >= 0 is the normalizer's error, not
    # an AssertionError from the optimal scan or a pulse fired on it
    with pytest.raises(ValueError, match=r"^belief must be finite and >= 0, got \("):
        decide_action(belief, ControlPolicy(mode=mode))


def test_unknown_mode_rejected():
    # decide_action reads any mode but "simple" as optimal, so the policy
    # is where a bad mode must fail
    with pytest.raises(ValueError, match="mode must be 'simple' or 'optimal'"):
        ControlPolicy(mode="greedy")


@pytest.mark.parametrize("t", [1.5, -0.1, math.nan], ids=["1.5", "-0.1", "nan"])
@pytest.mark.parametrize("field", ["fixed_t_repump", "fixed_t_depump"])
def test_policy_checks_fixed_t(field, t):
    # building the policy's pulse matrix is the check of its T
    with pytest.raises(ValueError, match=r"^transition probability must be in \[0, 1\]$"):
        ControlPolicy(**{field: t})


def test_policy_holds_built_pulse_matrices():
    # the same values and (Fortran-order) strides as a fresh build, so the
    # simple policy's products keep their dgemv bits
    policy = ControlPolicy(fixed_t_repump=0.3, fixed_t_depump=0.7)
    for held, t, d in (
        (policy.repump_matrix, 0.3, Pulse.REPUMP),
        (policy.depump_matrix, 0.7, Pulse.DEPUMP),
    ):
        built = build_pulse_matrix(t, d)
        assert np.array_equal(held, built)
        assert held.strides == built.strides
        assert built.flags.writeable and not held.flags.writeable


@pytest.mark.parametrize(
    "target", [Belief(0.0, 2.0, 0.0), Belief(0.3, 0.3, 0.3)], ids=["(0,2,0)", "(.3,.3,.3)"]
)
def test_target_must_sum_to_one(target):
    # else a pulse could fire with distances outside [0, 1]
    with pytest.raises(ValueError, match=r"^target must sum to 1, got \("):
        ControlPolicy(target=target)


def test_unit_sum_targets_accepted():
    ControlPolicy(target=DEFAULT_TARGET)
    ControlPolicy(target=Belief(1 / 3, 1 / 3, 1 / 3))
    for text in ("0.125,0.75,0.125", "1,2,1", "0.1,0.7,0.2", "1,0,0", "1,1,3"):
        parsed = parse_config(f"policy.target = {text}\n")
        assert parsed.control_policy().target == parsed.target


def test_nan_distance_raises_value_error():
    # only NaN distances reach the end of the candidate scan
    for d in (Pulse.REPUMP, Pulse.DEPUMP):
        with pytest.raises(ValueError, match="no finite distance"):
            optimal_pulse_probability(Belief(math.nan, 0.5, 0.5), DEFAULT_TARGET, d)


def test_decisions_are_stateless():
    # same belief, same decision, no hysteresis
    policy = ControlPolicy()
    b = Belief(0.55, 0.25, 0.2)
    first = decide_action(b, policy)
    for _ in range(5):
        assert decide_action(b, policy) == first
    opt_policy = ControlPolicy(mode="optimal")
    first_opt = decide_action(b, opt_policy)
    assert decide_action(b, opt_policy) == first_opt
