import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import nbinom, poisson

from telegraphctl.errors import AllZeroError
from telegraphctl.model import (
    Belief,
    PhotonCountModel,
    TraceRecord,
    TransitionRates,
    check_state,
    exit_rates,
    log_likelihoods,
    normalize,
    normalize_triple,
)

from oracles import full_generator, reference_normalize


def _pmf(model, n, alpha):
    """p(n | alpha), from the model's log-likelihood."""
    return math.exp(model.log_likelihood(n, alpha))


def test_state_validation():
    for a in (0, 1, 2):
        assert check_state(a) == a
    for bad in (-1, 3, 1.5):
        with pytest.raises(ValueError):
            check_state(bad)


class TestNormalize:
    def test_proportional_scaling(self):
        assert normalize((2, 2, 0)) == Belief(0.5, 0.5, 0.0)

    def test_single_support(self):
        assert normalize((0, 0, 5)) == Belief(0.0, 0.0, 1.0)

    def test_symmetry(self):
        b = normalize((1, 1, 1))
        assert b.p0 == b.p1 == pytest.approx(1 / 3, abs=1e-15)
        assert math.fsum(b.as_tuple()) == 1.0

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroError):
            normalize((0.0, 0.0, 0.0))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            normalize((1.0, -0.1, 0.0))
        with pytest.raises(ValueError):
            normalize((1.0, math.inf, 0.0))
        with pytest.raises(ValueError):
            normalize((1.0, math.nan, 0.0))

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            w = rng.random(3) * rng.choice([1e-9, 1.0, 1e9])
            once = normalize(w)
            twice = normalize(once.as_tuple())
            assert twice == once  # bitwise equality

    def test_sum_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            b = normalize(rng.random(3))
            assert math.fsum(b.as_tuple()) == 1.0
            assert min(b.as_tuple()) >= 0.0

    def test_denormal_weights_recovered(self):
        b = normalize((1e-320, 1e-320, 0.0))
        assert b == Belief(0.5, 0.5, 0.0)


def _valid_triples(n: int, seed: int) -> list[list[float]]:
    """Finite, non-negative weights with a positive sum, a quarter of each
    kind: plain random triples over many scales, unit-sum triples nudged up
    to 3 ulp off 1, a component below the 1e-300 clamp (subnormals
    included), and one or two exact zeros."""
    rng = np.random.default_rng(seed)
    w = rng.random((n, 3))
    kind = rng.integers(0, 4, size=n)
    col = rng.integers(0, 3, size=n)
    other = (col + rng.integers(1, 3, size=n)) % 3
    scaled, nudged, tiny, zeros = (kind == k for k in range(4))
    w[scaled] *= 10.0 ** rng.uniform(-300.0, 300.0, size=(scaled.sum(), 1))
    w[nudged] /= w[nudged].sum(axis=1, keepdims=True)
    steps = rng.integers(-3, 4, size=n)
    for s in range(3):
        rows = nudged & (np.abs(steps) > s)
        w[rows, col[rows]] = np.nextafter(
            w[rows, col[rows]], np.where(steps[rows] > 0, 2.0, 0.0)
        )
    w[tiny, col[tiny]] = rng.choice(
        [5e-324, 1e-310, 1e-301], size=tiny.sum()
    ) * rng.uniform(1.0, 9.0, size=tiny.sum())
    rows = tiny & (rng.random(n) < 0.3) | zeros & (rng.random(n) < 0.5)
    w[zeros, col[zeros]] = 0.0
    w[rows, other[rows]] = 0.0
    return w.tolist()


def _bits(values) -> tuple[str, ...]:
    return tuple(float(x).hex() for x in values)


def test_normalize_triple_matches_normalize_bitwise():
    triples = _valid_triples(100_000, seed=11)
    assert sum(1 for w in triples if 0.0 < min(w) < 1e-300) > 10_000
    for w in triples:
        expected = _bits(normalize(w))
        assert _bits(normalize_triple(*w)) == expected, w
        assert _bits(reference_normalize(w)) == expected, w


@pytest.mark.parametrize(
    "weights, bad",
    [
        ((math.nan, 0.5, 0.5), "nan"),
        ((0.5, math.inf, 0.5), "inf"),
        ((0.5, 0.5, -math.inf), "-inf"),
        ((-0.25, 0.5, 0.5), "-0.25"),
        ((0.5, -5e-324, 0.5), "-5e-324"),
        # the first bad weight is named, whatever follows it
        ((1.0, -0.5, math.nan), "-0.5"),
        ((math.inf, math.nan, -1.0), "inf"),
        ((0.0, math.inf, -math.inf), "inf"),
    ],
)
def test_normalize_triple_rejects_invalid_weights(weights, bad):
    with pytest.raises(ValueError, match=f"^weights must be finite and >= 0, got {bad}$"):
        normalize_triple(*weights)


def test_normalize_triple_accepts_negative_zero_and_rejects_all_zero():
    assert normalize_triple(-0.0, 1.0, 0.0) == Belief(0.0, 1.0, 0.0)
    assert normalize_triple(-0.0, 2.0, 2.0) == Belief(0.0, 0.5, 0.5)
    for zeros in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)):
        with pytest.raises(AllZeroError, match="^weights sum to zero$"):
            normalize_triple(*zeros)


@pytest.mark.parametrize(
    "weights, error",
    [
        ((1.0, -0.1, 0.0), ValueError),
        ((math.nan, 0.5, 0.5), ValueError),
        ((0.0, 1.0, math.inf), ValueError),
        ((0.0, 0.0, 0.0), AllZeroError),
        ((0.5, 0.5), ValueError),
        ((0.2, 0.3, 0.4, 0.1), ValueError),
    ],
)
def test_normalize_error_types(weights, error):
    with pytest.raises(error):
        normalize(weights)


def test_belief_argmax():
    assert Belief(0.2, 0.5, 0.3).argmax() == 1
    assert Belief(0.5, 0.3, 0.2).argmax() == 0


def test_transition_rates_validation():
    TransitionRates(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        TransitionRates(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        TransitionRates(math.nan, 0.0, 0.0)


def test_exit_rates_build_the_oracle_generator():
    # G laid out from exit_rates, depumping included, is the independent
    # oracle's bit for bit, shut channels too; an array call gives the
    # float calls' values elementwise
    rng = np.random.default_rng(20)
    draws = rng.uniform(0.0, 300.0, size=(500, 4))
    draws[rng.random(draws.shape) < 0.2] = 0.0
    for r21, r10, rr, rd in draws.tolist():
        up0, up1, down1, down2 = exit_rates(r21, r10, rr, rd)
        g = np.array(
            [[-up0, down1, 0.0], [up0, -down1 - up1, down2], [0.0, up1, -down2]]
        )
        oracle = full_generator(TransitionRates(r21, r10, rr, rd))
        assert g.tobytes() == oracle.tobytes()
    columns = exit_rates(*draws.T)
    for i, row in enumerate(draws.tolist()):
        assert tuple(c[i] for c in columns) == exit_rates(*row)
    # the belief model's default: no continuous depumping
    assert exit_rates(35.0, 50.0, 59.0) == (118.0, 59.0, 50.0, 35.0)


class TestPhotonCountModel:
    def test_requires_decreasing_means(self):
        with pytest.raises(ValueError):
            PhotonCountModel((28.0, 40.0, 16.0))
        with pytest.raises(ValueError):
            PhotonCountModel((40.0, 40.0, 16.0))

    def test_overdispersed_requires_fano(self):
        with pytest.raises(ValueError):
            PhotonCountModel((40.0, 28.0, 16.0), family="overdispersed")
        with pytest.raises(ValueError):
            PhotonCountModel((40.0, 28.0, 16.0), family="overdispersed", fano=1.0)

    @pytest.mark.parametrize("family", ["poisson", "overdispersed"])
    @pytest.mark.parametrize("fano", [math.nan, -3.0, 0.5, 1.0, math.inf])
    def test_set_fano_must_be_finite_above_one(self, family, fano):
        # also under the Poisson family, which ignores the value
        with pytest.raises(ValueError, match="fano"):
            PhotonCountModel((40.0, 28.0, 16.0), family=family, fano=fano)

    def test_poisson_pmf_matches_scipy(self, default_model):
        for alpha, mean in enumerate(default_model.mean_counts):
            for n in (0, 1, 5, 16, 28, 40, 90):
                assert _pmf(default_model, n, alpha) == pytest.approx(
                    poisson.pmf(n, mean), rel=1e-12
                )

    def test_poisson_at_zero(self):
        model = PhotonCountModel((16.0, 10.0, 4.0))
        assert _pmf(model, 0, 0) == pytest.approx(math.exp(-16.0), rel=1e-12)

    def test_mode_likelihood_ordering(self):
        # at mean 28 the pmf at 28 exceeds the pmf at 16
        model = PhotonCountModel((40.0, 28.0, 16.0))
        assert _pmf(model, 28, 1) > _pmf(model, 16, 1)
        assert poisson.pmf(28, 28.0) > poisson.pmf(16, 28.0)  # oracle agrees

    def test_neg_binomial_pmf_matches_scipy(self):
        mean, fano = 28.0, 2.0
        model = PhotonCountModel((40.0, mean, 16.0), family="overdispersed", fano=fano)
        shape = mean / (fano - 1.0)
        p = 1.0 / fano
        for n in (0, 3, 15, 28, 60, 150):
            assert _pmf(model, n, 1) == pytest.approx(
                nbinom.pmf(n, shape, p), rel=1e-10
            )

    @pytest.mark.parametrize("family,fano", [("poisson", None), ("overdispersed", 2.0)])
    def test_pmf_sums_to_one(self, family, fano):
        model = PhotonCountModel((40.0, 28.0, 16.0), family=family, fano=fano)
        for alpha in (0, 1, 2):
            total = 0.0
            n = 0
            # accumulate until the remaining tail is provably < 1e-12
            while total < 1.0 - 1e-13 and n < 5000:
                total += _pmf(model, n, alpha)
                n += 1
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_overdispersed_converges_to_poisson(self):
        mean = 40.0
        model = PhotonCountModel(
            (mean, 28.0, 16.0), family="overdispersed", fano=1.0 + 1e-6
        )
        diffs = [
            abs(_pmf(model, n, 0) - poisson.pmf(n, mean)) for n in range(0, 200)
        ]
        assert max(diffs) < 1e-6

    def test_zero_mean_state(self):
        model = PhotonCountModel((40.0, 28.0, 0.0))
        assert _pmf(model, 0, 2) == 1.0
        assert _pmf(model, 3, 2) == 0.0

    def test_rescaled_scales_means(self, default_model):
        half = default_model.rescaled(default_model.bin_time / 2)
        assert half.mean_counts == (20.0, 14.0, 8.0)
        assert half.bin_time == default_model.bin_time / 2

    def test_log_likelihoods_helper(self, default_model):
        logl = log_likelihoods(default_model, 16)
        assert logl == tuple(default_model.log_likelihood(16, a) for a in (0, 1, 2))

    @pytest.mark.parametrize(
        "family, fano", [("poisson", None), ("overdispersed", 2.0)]
    )
    def test_equal_models_hash_equal(self, family, fano):
        a = PhotonCountModel((40.0, 28.0, 16.0), family=family, fano=fano)
        b = PhotonCountModel((40, 28, 16), family=family, fano=fano)
        for other in (b, dataclasses.replace(a), dataclasses.replace(b)):
            assert other == a and hash(other) == hash(a)
        changed = dataclasses.replace(a, bin_time=2e-3)
        assert changed != a and hash(changed) != hash(a)
        assert dataclasses.replace(changed, bin_time=1e-3) == a
        assert hash(dataclasses.replace(changed, bin_time=1e-3)) == hash(a)
        assert log_likelihoods(b, 16) is log_likelihoods(a, 16)

    @pytest.mark.parametrize("bin_time", [0.0, -1e-3, math.inf, math.nan])
    def test_requires_finite_bin_time(self, bin_time):
        with pytest.raises(ValueError, match="bin_time must be finite and > 0"):
            PhotonCountModel((40.0, 28.0, 16.0), bin_time=bin_time)

    def test_log_likelihoods_memoized(self, default_model):
        assert log_likelihoods(default_model, 16) is log_likelihoods(default_model, 16)
        for _ in range(3):  # exceptions are not cached
            with pytest.raises(ValueError):
                log_likelihoods(default_model, -1)

    @pytest.mark.parametrize(
        "family, fano", [("poisson", None), ("overdispersed", 2.0)]
    )
    @pytest.mark.parametrize("n", [10**308, 10**400])
    def test_overflowing_count_has_zero_pmf(self, family, fano, n):
        model = PhotonCountModel((40.0, 28.0, 16.0), family=family, fano=fano)
        assert log_likelihoods(model, n) == (-math.inf,) * 3


def test_trace_record_validation():
    TraceRecord(0, 5)
    with pytest.raises(ValueError):
        TraceRecord(-1, 5)
    with pytest.raises(ValueError):
        TraceRecord(0, -2)
    with pytest.raises(ValueError):
        TraceRecord(0, 5, true_state=4)
