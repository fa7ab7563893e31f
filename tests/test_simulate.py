import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from telegraphctl.config import ExperimentConfig, feedback_defaults
from telegraphctl.experiments import run_closed_loop
from telegraphctl.model import PhotonCountModel, Pulse, TransitionRates
from telegraphctl.rng import PortableRandom
from telegraphctl.simulate import (
    PulseSpec,
    SimConfig,
    _channel_table,
    apply_pulse,
    emit_photons,
    run_chain,
    run_trace,
    run_trace_events,
    states_at_bin_ends,
    step_continuous_events,
)
from telegraphctl.traceio import format_trace

from oracles import full_generator, stationary_from_nullspace


def test_frozen_chain():
    rates = TransitionRates(0.0, 0.0, 0.0, 0.0)
    rng = PortableRandom(1)
    for state in (0, 1, 2):
        for _ in range(50):
            assert step_continuous_events(state, rates, 1e-3, rng) == (state, [])


def test_channel_table_matches_oracle_generator():
    # depumping mirrors the repump multiplicity: 2->1 takes two atoms' worth
    assert _channel_table(35.0, 50.0, 7.0, 11.0) == (
        (14.0, 68.0, 57.0),
        (((14.0, 1),), ((7.0, 2), (68.0, 0)), ((57.0, 1),)),
    )
    # per state, the exit total is minus the oracle generator's diagonal and
    # the channels are the open ones, the up channel first
    rng = np.random.default_rng(22)
    draws = rng.uniform(0.0, 300.0, size=(500, 4))
    draws[rng.random(draws.shape) < 0.2] = 0.0
    for r21, r10, rr, rd in draws.tolist():
        g = full_generator(TransitionRates(r21, r10, rr, rd))
        totals, channels = _channel_table(r21, r10, rr, rd)
        assert totals == tuple(-np.diag(g))
        for state, exits in enumerate(channels):
            up_first = [d for d in (state + 1, state - 1) if 0 <= d <= 2]
            assert [d for _, d in exits] == [d for d in up_first if g[d, state] > 0]
            if exits:
                assert exits[0][0] == g[exits[0][1], state]
                assert exits[-1][0] == totals[state]


def test_single_bin_jump_frequency_vs_matrix_exponential(paper_rates):
    # start in the top state; one-bin outcome frequencies must match expm
    dt = 1e-3
    p_exact = expm(full_generator(paper_rates) * dt)[:, 2]
    # dt * r21 = 0.035 to first order; the exact value differs at O((rate*dt)^2)
    assert p_exact[1] == pytest.approx(0.035, abs=3e-3)
    rng = PortableRandom(42)
    n = 1_000_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[step_continuous_events(2, paper_rates, dt, rng)[0]] += 1
    freq = counts / n
    for a in range(3):
        sigma = math.sqrt(max(p_exact[a] * (1 - p_exact[a]), 1e-12) / n)
        assert abs(freq[a] - p_exact[a]) < 4 * sigma


@pytest.mark.parametrize(
    "rates",
    [
        TransitionRates(35.0, 50.0, 59.0, 0.0),
        TransitionRates(20.0, 80.0, 30.0, 25.0),
        TransitionRates(5.0, 5.0, 120.0, 0.0),
    ],
)
def test_bin_transition_frequencies_match_exponential(rates):
    dt = 1e-3
    n_bins = 100_000
    p_matrix = expm(full_generator(rates) * dt)
    rng = PortableRandom(7)
    state = 2
    transitions = np.zeros((3, 3))
    for _ in range(n_bins):
        new = step_continuous_events(state, rates, dt, rng)[0]
        transitions[new, state] += 1
        state = new
    for col in range(3):
        n_col = transitions[:, col].sum()
        if n_col < 200:
            continue
        for row in range(3):
            p = p_matrix[row, col]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n_col)
            assert abs(transitions[row, col] / n_col - p) < 4 * sigma, (row, col)


def test_long_run_occupancy_matches_nullspace(paper_rates):
    p_stat = stationary_from_nullspace(full_generator(paper_rates))
    assert p_stat[1] == pytest.approx(0.322, abs=5e-4)
    rng = PortableRandom(3)
    state = 2
    dt = 1e-3
    n_bins = 200_000
    occupancy = np.zeros(3)
    for _ in range(n_bins):
        state = step_continuous_events(state, paper_rates, dt, rng)[0]
        occupancy[state] += 1
    freq = occupancy / n_bins
    # bins are correlated over ~ 20 ms; allow 4 sigma with effective n
    n_eff = n_bins * dt / 0.02
    for a in range(3):
        sigma = math.sqrt(p_stat[a] * (1 - p_stat[a]) / n_eff)
        assert abs(freq[a] - p_stat[a]) < 4 * sigma


def test_pure_decay_is_monotone(default_model):
    rates = TransitionRates(35.0, 50.0, 0.0, 0.0)
    config = SimConfig(rates, default_model, 1e-3, 2000, 2, 17)
    records = run_trace(config)
    states = [r.true_state for r in records]
    assert all(b <= a for a, b in zip(states, states[1:]))
    assert states[-1] == 0


class TestEmitPhotons:
    def test_zero_mean_degenerate(self):
        model = PhotonCountModel((40.0, 28.0, 0.0))
        rng = PortableRandom(1)
        assert all(emit_photons(2, model, rng) == 0 for _ in range(100))

    def test_poisson_moments(self, default_model):
        rng = PortableRandom(2)
        n = 100_000
        xs = np.array([emit_photons(1, default_model, rng) for _ in range(n)])
        assert abs(xs.mean() - 28.0) < 3 * math.sqrt(28.0 / n)
        assert abs(xs.var() / xs.mean() - 1.0) < 3 * math.sqrt(2 / n)

    def test_overdispersed_moments(self):
        model = PhotonCountModel((40.0, 28.0, 16.0), family="overdispersed", fano=2.0)
        rng = PortableRandom(4)
        n = 100_000
        xs = np.array([emit_photons(1, model, rng) for _ in range(n)])
        # sample Fano sd for NB is larger than Poisson's sqrt(2/n); generous 3x
        assert abs(xs.var() / xs.mean() - 2.0) < 3 * 3 * math.sqrt(2 / n)


class TestApplyPulse:
    def test_zero_probability_identity(self):
        rng = PortableRandom(5)
        for state in (0, 1, 2):
            for direction in (Pulse.REPUMP, Pulse.DEPUMP):
                assert apply_pulse(state, PulseSpec(direction, 0.0), rng) == state

    def test_saturating_pulses(self):
        rng = PortableRandom(6)
        for state in (0, 1, 2):
            assert apply_pulse(state, PulseSpec(Pulse.REPUMP, 1.0), rng) == 2
            assert apply_pulse(state, PulseSpec(Pulse.DEPUMP, 1.0), rng) == 0

    def test_repump_never_decreases_depump_never_increases(self):
        rng = PortableRandom(8)
        for _ in range(2000):
            t = rng.uniform()
            s = rng.next_u64() % 3
            assert apply_pulse(s, PulseSpec(Pulse.REPUMP, t), rng) >= s
            assert apply_pulse(s, PulseSpec(Pulse.DEPUMP, t), rng) <= s

    def test_half_probability_binomial_distribution(self):
        # repump at T = 0.5 from the bottom state: exact binomial (1/4, 1/2, 1/4)
        rng = PortableRandom(9)
        n = 1_000_000
        counts = np.zeros(3)
        spec = PulseSpec(Pulse.REPUMP, 0.5)
        for _ in range(n):
            counts[apply_pulse(0, spec, rng)] += 1
        for a, p in enumerate((0.25, 0.5, 0.25)):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[a] / n - p) < 3 * sigma


class TestRunTrace:
    def test_single_frozen_bin(self):
        model = PhotonCountModel((40.0, 28.0, 0.0))
        config = SimConfig(TransitionRates(0, 0, 0), model, 1e-3, 1, 2, 123)
        records = run_trace(config)
        assert len(records) == 1
        rec = records[0]
        assert (rec.bin_index, rec.photon_count, rec.pulse, rec.true_state) == (
            0,
            0,
            Pulse.NONE,
            2,
        )

    def test_deterministic_given_seed(self, default_model, paper_rates):
        config = SimConfig(paper_rates, default_model, 1e-3, 500, 2, 31337)
        assert run_trace(config) == run_trace(config)

    def test_bin_time_mismatch_rejected(self, default_model, paper_rates):
        config = SimConfig(paper_rates, default_model, 2e-3, 10, 2, 1)
        with pytest.raises(ValueError):
            run_trace(config)

    def test_histogram_is_three_component_mixture(self, default_model, paper_rates):
        config = SimConfig(paper_rates, default_model, 1e-3, 5100, 2, 2024)
        records = run_trace(config)
        counts = np.bincount([r.photon_count for r in records], minlength=90)[:90]
        emp = counts / counts.sum()
        from scipy.stats import poisson

        pi = stationary_from_nullspace(full_generator(paper_rates))
        mix = sum(
            pi[a] * poisson.pmf(np.arange(90), default_model.mean_counts[a])
            for a in range(3)
        )
        tv = 0.5 * np.abs(emp - mix).sum()
        assert tv < 0.05
        # all three per-state count windows are populated
        for mean in default_model.mean_counts:
            lo, hi = int(mean - 2), int(mean + 3)
            assert emp[lo:hi].sum() > 0.05

    def test_controller_hook_applies_pulse_at_boundary(self, default_model):
        rates = TransitionRates(0.0, 0.0, 0.0)

        def controller(i, count):
            return PulseSpec(Pulse.DEPUMP, 1.0) if i == 0 else None

        config = SimConfig(rates, default_model, 1e-3, 2, 2, 55)
        records, events = run_trace_events(config, controller)
        assert records[0].pulse == Pulse.DEPUMP
        assert records[0].true_state == 2  # pulse fires after the emission
        assert records[1].true_state == 0
        assert events.changes == [(1e-3, 0)]


def test_run_chain_and_bin_end_states(paper_rates):
    events = run_chain(paper_rates, 0.5, 2, 77)
    assert events.initial_state == 2
    assert events.duration == 0.5
    # times strictly increasing, states valid, consecutive states differ
    times = [t for t, _ in events.changes]
    assert times == sorted(times)
    seq = [events.initial_state] + [s for _, s in events.changes]
    assert all(s in (0, 1, 2) for s in seq)
    assert all(a != b for a, b in zip(seq, seq[1:]))
    states = states_at_bin_ends(events, 1e-3)
    assert len(states) == 500
    # walking the events by hand reproduces a few spot checks
    for i in (0, 123, 499):
        t_end = (i + 1) * 1e-3
        state = events.initial_state
        for t, s in events.changes:
            if t <= t_end:
                state = s
        assert states[i] == state


@pytest.mark.parametrize("bin_time", [0.0, -1e-3, math.inf, math.nan])
def test_bin_end_states_require_finite_bin_time(bin_time, paper_rates):
    # checked before the division, so no length divides by zero or gives []
    events = run_chain(paper_rates, 0.01, 2, 77)
    with pytest.raises(
        ValueError, match=rf"^bin_time must be finite and > 0, got {bin_time!r}$"
    ):
        states_at_bin_ends(events, bin_time)


# sha256 of each seed's trace text and exact event times (as hex) for
# seeds 1, 42 and 777, recorded on the code before the per-run channel
# table: open loop (1000 bins at the paper's rates) and 300-bin closed
# loops under both policies, with Poisson and over-dispersed (fano 2)
# counts. The "pumped" rates add continuous repumping and depumping, so
# state 1 has two exits and the depump weight enters every channel.
SIMULATOR_DIGESTS = {
    "open-poisson": "2d8ea3d846a62cdf5dc0eedb4b7819e34478d84b211021694d8b09a30211d5b9",
    "open-fano2": "60362fa7054396f4af1d2fbcfb46a7b6ed6e5b387ca4fa16d57b6ff04fb68d5a",
    "simple-poisson": "d0cbe58ff3fbe74a9354eb7208f24e2e5170bafb01e06b94d24769c75c9beae9",
    "simple-fano2": "15189ecf2825e634a0eeae15004a9a2cfbe66dc6bd26b69b83169392ed7cae1d",
    "optimal-poisson": "e80c2ee0c32470bc6bf14bc3ee61a5050dd54029ed8492ad3d3e88b12aa69790",
    "optimal-fano2": "a03e99844cdeeda96b5128121c4d79b1a37e9400acbca745817d986fec3bbda5",
    "open-pumped": "38166d165c956df54f6103fb276f59d0cf3746fc0e13f30cc1693bb9478f4b8e",
    "simple-pumped": "e10fc408acc9e0fe7be344bf184096d9bdefbec478622769480d1844ea10ac8a",
}
_FAMILIES = {"poisson": {}, "fano2": {"family": "overdispersed", "fano": 2.0}}


@pytest.mark.parametrize("key", sorted(SIMULATOR_DIGESTS))
def test_simulator_frozen_bits(key):
    mode, variant = key.split("-")
    if mode == "open":
        cfg = replace(ExperimentConfig(), n_bins=1000)
    else:
        cfg = replace(feedback_defaults(), policy_mode=mode)
    if variant == "pumped":
        cfg = replace(cfg, rates=TransitionRates(35.0, 50.0, 20.0, 15.0))
    else:
        cfg = replace(cfg, **_FAMILIES[variant])
    h = hashlib.sha256()
    for seed in (1, 42, 777):
        if mode == "open":
            records, events = run_trace_events(cfg.sim_config(seed), None)
        else:
            run = run_closed_loop(
                cfg.sim_config(seed), cfg.filter_config(), cfg.control_policy()
            )
            records, events = run.records, run.events
        h.update(format_trace(records).encode())
        h.update(",".join(f"{t.hex()}:{s}" for t, s in events.changes).encode())
    assert h.hexdigest() == SIMULATOR_DIGESTS[key]


def test_channel_draws_take_the_up_channel_first():
    # two exits from state 1 (repump up first, then decay plus depump down):
    # a uniform below the up rate's share goes up, any other goes down
    rates = TransitionRates(35.0, 50.0, 20.0, 15.0)
    assert _channel_table(35.0, 50.0, 20.0, 15.0)[1][1] == ((20.0, 2), (85.0, 0))
    ups = downs = 0
    rng = PortableRandom(3)
    for _ in range(20_000):
        _, jumps = step_continuous_events(1, rates, 1e-3, rng)
        if jumps:
            ups += jumps[0][1] == 2
            downs += jumps[0][1] == 0
    share = ups / (ups + downs)
    sigma = math.sqrt(0.25 * 0.75 / (ups + downs))
    assert abs(share - 20.0 / 85.0) < 4 * sigma


# an infinite interval is rejected the same way; it is not run here, since
# a simulator without the check never returns from it
@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_step_rejects_empty_interval(dt, paper_rates):
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        step_continuous_events(2, paper_rates, dt, PortableRandom(1))


@pytest.mark.parametrize("bin_time", [0.0, -1e-3, math.inf, math.nan])
def test_sim_config_requires_finite_bin_time(bin_time, default_model, paper_rates):
    with pytest.raises(ValueError, match="bin_time must be finite and > 0"):
        SimConfig(paper_rates, default_model, bin_time, 10)
