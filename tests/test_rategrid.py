import math
import tracemalloc

import numpy as np
import pytest

from oracles import reference_marginal_rates, reference_run_estimation
from telegraphctl import rategrid
from telegraphctl.errors import AllZeroError, CapExceededError, ZeroMeanError
from telegraphctl.filtering import FilterConfig, expm, run_filter
from telegraphctl.model import (
    Belief,
    PhotonCountModel,
    TraceRecord,
    TransitionRates,
    log_likelihoods,
)
from telegraphctl.rategrid import (
    RATE_NAMES,
    GridAxis,
    GridSpec,
    RateGrid,
    _bayes_weights,
    _propagator,
    init_flat,
    marginal_rates,
    marginal_states,
    run_estimation,
    stopping_check,
    update,
)
from telegraphctl.simulate import SimConfig, run_trace

DELTA2 = Belief(0.0, 0.0, 1.0)

SMALL_SPEC = GridSpec(
    r21=GridAxis(20.0, 50.0, 3),
    r10=GridAxis(40.0, 60.0, 3),
    r_repump=GridAxis(50.0, 70.0, 3),
)
# r21 alone passes a 0.3 rms/mean threshold on many bins of a 250-bin trace
R21_FIRST_SPEC = GridSpec(
    r21=GridAxis(20.0, 50.0, 4),
    r10=GridAxis(10.0, 150.0, 5),
    r_repump=GridAxis(10.0, 150.0, 5),
)
# r21 and r_repump include a zero rate; r10 is a single point
ZERO_RATE_SPEC = GridSpec(
    r21=GridAxis(0.0, 150.0, 7),
    r10=GridAxis(50.0, 50.0, 1),
    r_repump=GridAxis(0.0, 90.0, 6),
)


def cell_rates(spec: GridSpec, cell: tuple[int, int, int]) -> tuple[float, ...]:
    """A cell's (r21, r10, r_repump)."""
    return tuple(float(spec.axis(name).values()[k]) for name, k in zip(RATE_NAMES, cell))


def single_cell_spec(rates: TransitionRates) -> GridSpec:
    return GridSpec(
        r21=GridAxis(rates.r21, rates.r21, 1),
        r10=GridAxis(rates.r10, rates.r10, 1),
        r_repump=GridAxis(rates.r_repump, rates.r_repump, 1),
    )


class TestGridSpec:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            GridAxis(-1.0, 10.0, 5)
        with pytest.raises(ValueError):
            GridAxis(10.0, 5.0, 3)
        with pytest.raises(ValueError):
            GridAxis(10.0, 20.0, 0)
        with pytest.raises(ValueError):
            GridAxis(10.0, 20.0, 1)  # single point needs min == max
        GridAxis(10.0, 10.0, 1)

    def test_axis_rejects_non_finite_max(self):
        with pytest.raises(ValueError, match="finite"):
            GridAxis(2.0, math.inf, 5)

    def test_default_grid_shape(self):
        spec = GridSpec()
        assert spec.shape == (25, 25, 25)
        assert spec.n_cells == 3 * 25**3

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            GridSpec(max_cells=1000)

    def test_axis_values_linear(self):
        axis = GridAxis(0.0, 150.0, 25)
        values = axis.values()
        assert values[0] == 0.0 and values[-1] == 150.0
        assert np.allclose(np.diff(values), 150.0 / 24)


class TestInitFlat:
    def test_mass_in_initial_state_slab(self):
        grid = init_flat(GridSpec(), DELTA2)
        assert grid.joint[0].sum() == 0.0
        assert grid.joint[1].sum() == 0.0
        assert grid.joint[2].sum() == pytest.approx(1.0, abs=1e-12)
        # uniform across the slab
        assert np.ptp(grid.joint[2]) == 0.0

    def test_fresh_marginal_states_equal_initial(self):
        init = Belief(0.25, 0.25, 0.5)
        grid = init_flat(GridSpec(), init)
        assert marginal_states(grid) == init

    def test_fresh_rate_means_are_midpoints(self):
        spec = GridSpec(
            r21=GridAxis(0.0, 150.0, 25),
            r10=GridAxis(10.0, 50.0, 9),
            r_repump=GridAxis(2.0, 150.0, 25),
        )
        marg = marginal_rates(init_flat(spec, DELTA2))
        assert marg.r21.mean == pytest.approx(75.0, abs=1e-9)
        assert marg.r10.mean == pytest.approx(30.0, abs=1e-9)
        assert marg.r_repump.mean == pytest.approx(76.0, abs=1e-9)


class TestStoppingCheck:
    def test_single_cell_grid_true(self, paper_rates):
        grid = init_flat(single_cell_spec(paper_rates), DELTA2)
        marg = marginal_rates(grid)
        assert stopping_check(marg) is True
        assert marg.r21 .rms == 0.0
        assert marg.r21.mean == paper_rates.r21

    @pytest.mark.parametrize(
        "threshold, raises",
        [
            (math.nan, True),
            (math.inf, True),
            (-math.inf, True),
            (-0.1, True),
            (0.0, False),
            (0.1, False),
        ],
    )
    def test_threshold_must_be_finite_and_non_negative(
        self, paper_rates, threshold, raises
    ):
        # NaN and infinity would fire the rule at once, a negative never
        marg = marginal_rates(init_flat(single_cell_spec(paper_rates), DELTA2))
        if raises:
            with pytest.raises(
                ValueError, match=r"^stop_threshold must be finite and >= 0, got "
            ):
                stopping_check(marg, threshold)
        else:
            assert stopping_check(marg, threshold) is True

    def test_fresh_flat_grid_false(self):
        # discrete uniform over [0, 150] with 25 points:
        # rms/mean = sqrt((n^2-1)/12)*spacing / 75
        spec = GridSpec(
            r21=GridAxis(0.0, 150.0, 25),
            r10=GridAxis(0.0, 150.0, 25),
            r_repump=GridAxis(0.0, 150.0, 25),
        )
        grid = init_flat(spec, DELTA2)
        marg = marginal_rates(grid)
        assert stopping_check(marg) is False
        n, spacing = 25, 150.0 / 24
        expected_rms = math.sqrt((n * n - 1) / 12.0) * spacing
        assert marg.r21.rms == pytest.approx(expected_rms, rel=1e-12)
        # the continuum limit approaches 1/sqrt(3) ~ 0.577
        fine = GridSpec(
            r21=GridAxis(0.0, 150.0, 1000),
            r10=GridAxis(0.0, 150.0, 3),
            r_repump=GridAxis(0.0, 150.0, 3),
            max_cells=10_000_000,
        )
        fine_marg = marginal_rates(init_flat(fine, DELTA2))
        assert fine_marg.r21.rms / fine_marg.r21.mean == pytest.approx(0.577, abs=1e-3)


class TestUpdate:
    def test_zero_dt_keeps_rate_marginals_flat(self, default_model):
        grid = init_flat(GridSpec(), DELTA2)
        out = update(grid, 16, default_model, 0.0)
        marg = marginal_rates(out)
        assert marg.r21.mean == pytest.approx(76.0, abs=1e-9)
        assert np.ptp(out.joint[2]) == pytest.approx(0.0, abs=1e-20)
        # states follow the plain Bayes update of the initial belief
        from telegraphctl.filtering import posterior_update

        expected = posterior_update(DELTA2, 16, default_model)
        states = marginal_states(out)
        for a, b in zip(states.as_tuple(), expected.as_tuple()):
            assert a == pytest.approx(b, abs=1e-12)

    def test_total_mass_one_after_updates(self, default_model, paper_rates):
        sim = SimConfig(paper_rates, default_model, 1e-3, 200, 2, 5)
        records = run_trace(sim)
        grid = init_flat(GridSpec(), DELTA2)
        for rec in records:
            grid = update(grid, rec.photon_count, default_model, 1e-3)
            assert grid.joint.sum() == pytest.approx(1.0, abs=1e-10)
            states = marginal_states(grid)
            assert math.fsum(states.as_tuple()) == 1.0
            for post in marginal_rates(grid).as_dict().values():
                assert post.rms >= 0.0
                assert 2.0 <= post.mean <= 150.0

    def test_exact_mode_allows_coarse_bins(self, default_model):
        spec = GridSpec(
            r21=GridAxis(20.0, 50.0, 3),
            r10=GridAxis(40.0, 60.0, 3),
            r_repump=GridAxis(50.0, 70.0, 3),
        )
        grid = init_flat(spec, DELTA2)
        coarse_model = default_model.rescaled(10e-3)
        out = update(grid, 280, coarse_model, 10e-3)
        assert out.joint.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(out.joint >= 0.0)


def test_degenerate_grid_reproduces_plain_filter(default_model, paper_rates):
    # a 1x1x1 rate grid at the true rates is exactly the plain exact filter
    sim = SimConfig(paper_rates, default_model, 1e-3, 10_000, 2, 86420)
    records = run_trace(sim)
    config = FilterConfig(default_model, paper_rates, 1e-3, propagation="exact")
    beliefs = run_filter(records, config)
    grid = init_flat(single_cell_spec(paper_rates), DELTA2)
    worst = 0.0
    for rec, belief in zip(records, beliefs):
        grid = update(grid, rec.photon_count, default_model, 1e-3)
        states = marginal_states(grid)
        worst = max(
            worst,
            max(
                abs(a - b)
                for a, b in zip(states.as_tuple(), belief.as_tuple())
            ),
        )
    assert worst < 1e-12


class TestRunEstimation:
    def test_matches_repeated_update(self, default_model, paper_rates):
        sim = SimConfig(paper_rates, default_model, 1e-3, 300, 2, 9)
        records = run_trace(sim)
        spec = GridSpec(
            r21=GridAxis(10.0, 60.0, 5),
            r10=GridAxis(10.0, 80.0, 5),
            r_repump=GridAxis(10.0, 90.0, 5),
        )
        result = run_estimation(records, spec, default_model, 1e-3, history_every=0)
        grid = init_flat(spec, DELTA2)
        for rec in records:
            grid = update(grid, rec.photon_count, default_model, 1e-3)
        assert np.array_equal(result.final_grid.joint, grid.joint)

    @pytest.mark.parametrize(
        "threshold, stop_at_trigger, spec",
        [
            pytest.param(0.0, False, SMALL_SPEC, id="0.0-False"),
            pytest.param(0.3, False, SMALL_SPEC, id="0.3-False"),
            pytest.param(0.3, True, SMALL_SPEC, id="0.3-True"),
            pytest.param(0.3, False, R21_FIRST_SPEC, id="0.3-False-r21-passes-alone"),
        ],
    )
    def test_marginals_computed_once_per_bin(
        self, monkeypatch, default_model, paper_rates, threshold, stop_at_trigger, spec
    ):
        # perfbench stamps every stopping_check return as one bin step, so
        # the stop rule runs once per bin up to the one where it fires. r21's
        # marginal comes from the step itself; the second pass over the grid
        # (r10 and r_repump) runs at most once per bin, and only where r21
        # passes the threshold or the bin writes a history row, a snapshot or
        # the stop result. marginal_rates runs once, for the final result.
        records = run_trace(SimConfig(paper_rates, default_model, 1e-3, 250, 2, 9))
        first_stop, *_, per_bin = reference_run_estimation(
            records, spec, default_model, 1e-3, threshold
        )
        r21_passes = [m.r21.rms / m.r21.mean <= threshold for m in per_bin]

        calls = dict.fromkeys(["marginal_rates", "stopping_check", "_step"], 0)
        second_pass_bins = []
        for name in calls:

            def counted(*args, _key=name, _original=getattr(rategrid, name), **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(rategrid, name, counted)

        def second_pass(joint, _original=rategrid._other_marginals):
            if not calls["marginal_rates"]:
                second_pass_bins.append(calls["_step"] - 1)
            return _original(joint)

        monkeypatch.setattr(rategrid, "_other_marginals", second_pass)
        result = run_estimation(
            records,
            spec,
            default_model,
            1e-3,
            stop_threshold=threshold,
            stop_at_trigger=stop_at_trigger,
            history_every=100,
            snapshot_every=60,
        )
        monkeypatch.undo()
        assert result.stop_bin == first_stop
        n = result.n_bins
        assert n == (first_stop + 1 if stop_at_trigger else 250)
        checked = n if first_stop is None else first_stop + 1
        assert calls == {"stopping_check": checked, "marginal_rates": 1, "_step": n}
        written = {k - 1 for every in (100, 60) for k in range(every, n + 1, every)}
        if stop_at_trigger:
            written.discard(first_stop)  # acquisition ends before the rows
        expected = {b for b in range(checked) if r21_passes[b]} | written
        assert second_pass_bins == sorted(expected)
        if spec is R21_FIRST_SPEC:
            assert first_stop is None and 0 < len(expected - written) < n
        assert result.final_marginals == marginal_rates(result.final_grid)
        assert len(result.rms_history) == len(range(100, n + 1, 100))

    def test_unknown_method_rejected(self, default_model):
        # the grid propagates exactly; the keyword names no other method
        records = [TraceRecord(0, 30)]
        for method in ("bogus", "linear"):
            with pytest.raises(ValueError, match=repr(method)):
                run_estimation(records, SMALL_SPEC, default_model, 1e-3, method=method)

    def test_single_cell_converges_instantly(self, default_model, paper_rates):
        sim = SimConfig(paper_rates, default_model, 1e-3, 50, 2, 10)
        records = run_trace(sim)
        result = run_estimation(
            records, single_cell_spec(paper_rates), default_model, 1e-3
        )
        assert result.converged and result.stop_bin == 0

    def test_stop_at_trigger_truncates(self, default_model, paper_rates):
        sim = SimConfig(paper_rates, default_model, 1e-3, 50, 2, 11)
        records = run_trace(sim)
        result = run_estimation(
            records,
            single_cell_spec(paper_rates),
            default_model,
            1e-3,
            stop_at_trigger=True,
        )
        assert result.n_bins == 1

    def test_rejects_pulsed_traces(self, default_model, paper_rates):
        from telegraphctl.model import Pulse

        records = [TraceRecord(0, 30, Pulse.REPUMP)]
        with pytest.raises(ValueError):
            run_estimation(records, GridSpec(), default_model, 1e-3)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_threshold_that_is_not_finite_and_non_negative(
        self, default_model, threshold
    ):
        # NaN and infinity would fire at the first bin, a negative never
        records = [TraceRecord(0, 30)]
        with pytest.raises(ValueError, match="stop_threshold"):
            run_estimation(
                records, SMALL_SPEC, default_model, 1e-3, stop_threshold=threshold
            )

    def test_snapshots_exported(self, default_model, paper_rates):
        sim = SimConfig(paper_rates, default_model, 1e-3, 100, 2, 12)
        records = run_trace(sim)
        result = run_estimation(
            records, GridSpec(), default_model, 1e-3, snapshot_every=50
        )
        assert len(result.snapshots) == 2
        bin_index, snap = result.snapshots[0]
        assert bin_index == 49
        values, probs = snap["r21"]
        assert len(values) == 25
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestExactPropagator:
    @pytest.mark.parametrize("spec", [ZERO_RATE_SPEC, SMALL_SPEC], ids=["7x1x6", "3x3x3"])
    @pytest.mark.parametrize("dt", [0.0, 0.3e-3, 1e-3, 10e-3])
    def test_matches_per_cell_exact_step_matrix(self, spec, dt):
        # the one batched build must give every cell exactly the bits of a
        # single scalar expm call
        p = _propagator(spec, dt).p
        assert p.shape == (3, 3, spec.n_cells // 3)
        for flat, cell in enumerate(np.ndindex(spec.shape)):
            expected = expm(*cell_rates(spec, cell), dt)
            assert p[:, :, flat].tobytes() == expected.tobytes(), (cell, dt)

    def test_apply_matches_per_cell_product(self):
        rng = np.random.default_rng(3)
        joint = rng.random((3,) + ZERO_RATE_SPEC.shape)
        out = np.empty_like(joint)
        _propagator(ZERO_RATE_SPEC, 1e-3).apply(joint, out)
        for cell in np.ndindex(ZERO_RATE_SPEC.shape):
            m = expm(*cell_rates(ZERO_RATE_SPEC, cell), 1e-3)
            col = joint[(slice(None),) + cell]
            expected = [math.fsum(m[i] * col) for i in range(3)]
            assert np.allclose(out[(slice(None),) + cell], expected, rtol=1e-15, atol=0)


def _reference_update(grid, n, model, dt):
    """The plain order: per-cell exact propagation, weighting by p(n | alpha),
    one sum and one divide."""
    prior = np.empty_like(grid.joint)
    for cell in np.ndindex(grid.spec.shape):
        idx = (slice(None),) + cell
        m = expm(*cell_rates(grid.spec, cell), dt)
        prior[idx] = m @ grid.joint[idx]
    logl = np.array(log_likelihoods(model, n))
    weighted = prior * np.exp(logl - logl.max())[:, None, None, None]
    total = weighted.sum()
    if total <= 0.0:
        raise AllZeroError("reference grid mass is zero")
    return weighted / total


class TestHostileCounts:
    # From a delta prior on alpha = 2 at dt = 0, the reweighted grid mass is
    # p(n | 2) / p(n | 0): subnormal for n = 800-839 and zero from 840.
    @pytest.mark.parametrize("dt", [0.0, 1e-3])
    @pytest.mark.parametrize("n", [600, 820, 840, 5000])
    def test_matches_plain_order(self, default_model, n, dt):
        grid = init_flat(SMALL_SPEC, DELTA2)
        try:
            expected = _reference_update(grid, n, default_model, dt)
        except AllZeroError:
            with pytest.raises(AllZeroError):
                update(grid, n, default_model, dt)
            return
        out = update(grid, n, default_model, dt)
        assert np.all(np.isfinite(out.joint))
        assert out.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.joint, expected, rtol=1e-12, atol=1e-300)

    def test_memoized_weights_are_read_only(self, default_model):
        w = _bayes_weights(default_model, 30)
        assert w is _bayes_weights(default_model, 30)
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("n", [0, 16, 28, 600, 840])
    def test_weights_read_shared_table(self, default_model, n):
        overdispersed = PhotonCountModel((40.0, 28.0, 16.0), "overdispersed", 2.0)
        for model in (default_model, overdispersed):
            logl = np.array(log_likelihoods(model, n))
            expected = np.exp(logl - logl.max())
            assert np.array_equal(_bayes_weights(model, n), expected)

    def test_subnormal_total_still_normalizes(self, default_model):
        grid = init_flat(SMALL_SPEC, DELTA2)
        logl = log_likelihoods(default_model, 820)
        assert 0.0 < math.exp(logl[2] - logl[0]) < np.finfo(float).tiny
        out = update(grid, 820, default_model, 0.0)
        assert marginal_states(out) == DELTA2


def _reference_marginals(grid: RateGrid) -> dict[str, tuple[float, float]]:
    """Mean and rms per rate from plain per-axis sums of the joint."""
    out = {}
    for k, name in enumerate(RATE_NAMES):
        marg = grid.joint.sum(axis=tuple(i for i in range(4) if i != k + 1))
        p = marg / marg.sum()
        values = grid.spec.axis(name).values()
        mean = float(values @ p)
        var = float((values * values) @ p) - mean * mean
        out[name] = (mean, math.sqrt(max(var, 0.0)))
    return out


class TestFusedMarginals:
    @pytest.mark.parametrize(
        "spec",
        [GridSpec(), SMALL_SPEC, ZERO_RATE_SPEC, GridSpec(
            r21=GridAxis(10.0, 10.0, 1),
            r10=GridAxis(0.0, 90.0, 4),
            r_repump=GridAxis(5.0, 5.0, 1),
        )],
        ids=["25x25x25", "3x3x3", "7x1x6", "1x4x1"],
    )
    def test_match_per_axis_sums(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(5):
            joint = rng.random((3,) + spec.shape) ** 4  # uneven mass
            grid = RateGrid(spec, joint / joint.sum())
            reference = _reference_marginals(grid)
            for name, post in marginal_rates(grid).as_dict().items():
                mean, rms = reference[name]
                assert post.mean == pytest.approx(mean, rel=1e-12)
                assert post.rms == pytest.approx(rms, rel=1e-12, abs=1e-300)

    def test_single_point_axis_is_exact(self, paper_rates):
        # the marginal is normalized before the moments, so a point mass
        # reads back its rate exactly and rms 0 whatever its total mass
        rng = np.random.default_rng(4)
        spec = single_cell_spec(paper_rates)
        for _ in range(50):
            grid = RateGrid(spec, rng.random((3, 1, 1, 1)) * 1e-3)
            for name, post in marginal_rates(grid).as_dict().items():
                assert post.mean == getattr(paper_rates, name)
                assert post.rms == 0.0

    def test_zero_rate_point_mass_continues(self):
        # a point mass at zero rate has mean 0 and rms 0: perfectly known
        spec = GridSpec(
            r21=GridAxis(0.0, 0.0, 1),
            r10=GridAxis(50.0, 50.0, 1),
            r_repump=GridAxis(0.0, 60.0, 4),
        )
        joint = np.zeros((3,) + spec.shape)
        joint[1, 0, 0, 0] = 1.0
        grid = RateGrid(spec, joint)
        marg = marginal_rates(grid)
        assert (marg.r21.mean, marg.r21.rms) == (0.0, 0.0)
        assert (marg.r_repump.mean, marg.r_repump.rms) == (0.0, 0.0)
        assert stopping_check(marg) is True

    def test_zero_mean_with_spread_raises(self):
        # signed mass on r21 = 0, 50, 100 with mean exactly 0 and rms > 0
        spec = GridSpec(
            r21=GridAxis(0.0, 100.0, 3),
            r10=GridAxis(50.0, 50.0, 1),
            r_repump=GridAxis(30.0, 30.0, 1),
        )
        joint = np.zeros((3,) + spec.shape)
        joint[0, :, 0, 0] = [2.0, -2.0, 1.0]
        grid = RateGrid(spec, joint)
        assert marginal_rates(grid).r21.mean == 0.0
        with pytest.raises(ZeroMeanError):
            stopping_check(marginal_rates(grid))

    def test_zero_mass_raises(self):
        grid = RateGrid(SMALL_SPEC, np.zeros((3,) + SMALL_SPEC.shape))
        with pytest.raises(AllZeroError):
            marginal_rates(grid)

    def test_snapshot_marginals_match(self, default_model, paper_rates):
        sim = SimConfig(paper_rates, default_model, 1e-3, 40, 2, 13)
        records = run_trace(sim)
        result = run_estimation(records, SMALL_SPEC, default_model, 1e-3, snapshot_every=40)
        (_, snap), = result.snapshots
        reference = _reference_marginals(result.final_grid)
        for name, (values, probs) in snap.items():
            assert np.array_equal(values, SMALL_SPEC.axis(name).values())
            assert float(values @ probs) == pytest.approx(reference[name][0], rel=1e-12)


def _assert_matches_reference(result, reference):
    """History rows, the stop and its marginals, and the final grid within
    1e-12 relative of the separate-pass oracle; the fused step sums in
    another order, so the bits may differ."""
    stop_bin, at_stop, history, joint, _ = reference
    assert result.stop_bin == stop_bin
    if stop_bin is not None:
        for post, ref in zip(result.marginals_at_stop, at_stop):
            assert post == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert [row[0] for row in result.rms_history] == [row[0] for row in history]
    for row, ref in zip(result.rms_history, history):
        assert row[1:] == pytest.approx(ref[1:], rel=1e-12, abs=0.0)
    np.testing.assert_allclose(result.final_grid.joint, joint, rtol=1e-12, atol=0.0)
    final = reference_marginal_rates(RateGrid(result.final_grid.spec, joint))
    for post, ref in zip(result.final_marginals, final):
        assert post == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestFusedStepMatchesReference:
    @pytest.mark.parametrize(
        "spec, n_bins",
        [(GridSpec(), 5100), (SMALL_SPEC, 1000)],
        ids=["25^3-exact-5100", "3x3x3-exact-1000"],
    )
    def test_simulated_trace(self, default_model, paper_rates, spec, n_bins):
        # 0.3 fires mid-trace on both, so the stop marginals are compared
        records = run_trace(SimConfig(paper_rates, default_model, 1e-3, n_bins, 2, 9))
        result = run_estimation(records, spec, default_model, 1e-3, stop_threshold=0.3)
        assert result.stop_bin is not None and len(result.rms_history) == n_bins // 100
        reference = reference_run_estimation(records, spec, default_model, 1e-3, 0.3)
        _assert_matches_reference(result, reference)

    def test_subnormal_totals(self, default_model):
        # from a delta prior on alpha = 2 at dt = 0 every count in 800-839
        # leaves a subnormal total, so the step weights first and then
        # divides; from 836 each of the 27 cells' share underflows to zero
        def both(records, history_every):
            kwargs = dict(stop_threshold=0.5, history_every=history_every)
            try:
                reference = reference_run_estimation(
                    records, SMALL_SPEC, default_model, 0.0, **kwargs
                )
            except AllZeroError:
                with pytest.raises(AllZeroError):
                    run_estimation(records, SMALL_SPEC, default_model, 0.0, **kwargs)
                return False
            result = run_estimation(records, SMALL_SPEC, default_model, 0.0, **kwargs)
            assert result.stop_bin == 0
            _assert_matches_reference(result, reference)
            return True

        compared = [both([TraceRecord(0, n)], 1) for n in range(800, 840)]
        assert compared == [n < 836 for n in range(800, 840)]
        assert both([TraceRecord(i, n) for i, n in enumerate(range(800, 836))], 5)

    def test_single_point_axes_exact(self, default_model, paper_rates):
        # a point mass reads back its rate and rms 0 exactly, on the bins
        # whose r21 marginal comes from the step and in the final result
        spec = GridSpec(
            r21=GridAxis(paper_rates.r21, paper_rates.r21, 1),
            r10=GridAxis(10.0, 90.0, 5),
            r_repump=GridAxis(paper_rates.r_repump, paper_rates.r_repump, 1),
        )
        records = run_trace(SimConfig(paper_rates, default_model, 1e-3, 300, 2, 15))
        result = run_estimation(
            records,
            spec,
            default_model,
            1e-3,
            stop_threshold=0.6,
            history_every=10,
        )
        assert result.stop_bin is not None and len(result.rms_history) == 30
        for m in (result.marginals_at_stop, result.final_marginals):
            assert (m.r21.mean, m.r21.rms) == (paper_rates.r21, 0.0)
            assert (m.r_repump.mean, m.r_repump.rms) == (paper_rates.r_repump, 0.0)
        assert all(row[1] == 0.0 and row[3] == 0.0 for row in result.rms_history)
        reference = reference_run_estimation(
            records, spec, default_model, 1e-3, 0.6, history_every=10
        )
        _assert_matches_reference(result, reference)


def test_estimation_allocates_no_grid_per_bin(default_model, paper_rates):
    # after a warm-up run has built the propagator and the small caches, a
    # run holds the grid and its one step buffer; a grid-sized block made
    # on any bin, history or snapshot bins included, would add a third
    records = run_trace(SimConfig(paper_rates, default_model, 1e-3, 200, 2, 16))
    spec = GridSpec()

    def run():
        return run_estimation(
            records,
            spec,
            default_model,
            1e-3,
            history_every=50,
            snapshot_every=100,
        )

    run()
    grid_bytes = 8 * spec.n_cells
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_bins == 200
    assert peak < 2 * grid_bytes + grid_bytes // 4
