import hashlib
from dataclasses import replace

import numpy as np
import pytest

from telegraphctl import experiments, filtering, simulate
from telegraphctl.config import ExperimentConfig, feedback_defaults
from telegraphctl.control import ControlPolicy
from telegraphctl.filtering import FilterConfig, run_filter, trace_log_likelihood
from telegraphctl.model import Belief, Pulse, TransitionRates
from telegraphctl.rng import derive_seed
from telegraphctl.simulate import SimConfig, run_chain, run_trace
from telegraphctl.traceio import format_trace
from telegraphctl.experiments import (
    observe_chain,
    rebin_counts,
    run_closed_loop,
    run_closed_loop_ensemble,
    run_open_loop_ensemble,
    tune_fixed_pulse_probability,
)


@pytest.fixture(scope="module")
def feedback_setup(default_model, feedback_rates):
    fc = FilterConfig(default_model, feedback_rates, 1e-3)
    sc = SimConfig(feedback_rates, default_model, 1e-3, 300, 2, 0)
    return sc, fc


def test_closed_loop_run_shapes(feedback_setup):
    sc, fc = feedback_setup
    run = run_closed_loop(
        SimConfig(sc.rates, sc.photon_model, sc.bin_time, sc.n_bins, 2, 77),
        fc,
        ControlPolicy(),
    )
    assert len(run.records) == len(run.posteriors) == len(run.decisions) == 300
    # pulses recorded in the trace match the decisions
    for rec, dec in zip(run.records, run.decisions):
        assert rec.pulse == dec.action


def test_closed_loop_deterministic(feedback_setup):
    sc, fc = feedback_setup
    cfg = SimConfig(sc.rates, sc.photon_model, sc.bin_time, 200, 2, 123)
    a = run_closed_loop(cfg, fc, ControlPolicy())
    b = run_closed_loop(cfg, fc, ControlPolicy())
    assert a.records == b.records
    assert a.posteriors == b.posteriors


def test_ensemble_uses_derived_seeds(feedback_setup):
    sc, fc = feedback_setup
    runs = run_closed_loop_ensemble(sc, fc, ControlPolicy(), 3, master_seed=555)
    assert [r.seed for r in runs] == [derive_seed(555, i) for i in range(3)]
    # members differ
    assert runs[0].records != runs[1].records


def test_open_loop_ensemble_filters(default_model, paper_rates):
    sc = SimConfig(paper_rates, default_model, 1e-3, 100, 2, 0)
    fc = FilterConfig(default_model, paper_rates, 1e-3)
    runs = run_open_loop_ensemble(sc, fc, 2, master_seed=9)
    assert len(runs) == 2
    assert all(len(r.posteriors) == 100 for r in runs)
    assert all(rec.pulse == Pulse.NONE for r in runs for rec in r.records)


def test_tuning_sweep_returns_table(feedback_setup):
    sc, fc = feedback_setup
    best, table = tune_fixed_pulse_probability(
        sc, fc, t_values=(0.3, 0.5), n_traces=3, master_seed=1
    )
    assert best in (0.3, 0.5)
    assert len(table) == 2
    assert all(0.0 < v < 1.0 for _, v in table)


def test_observe_chain_counts_follow_states(default_model, paper_rates):
    events = run_chain(paper_rates, 1.0, 2, 31)
    records = observe_chain(events, default_model, 1e-3, seed=7)
    assert len(records) == 1000
    from telegraphctl.simulate import states_at_bin_ends

    assert [r.true_state for r in records] == states_at_bin_ends(events, 1e-3)
    # per-state count means track the rescaled model
    for alpha in (0, 1, 2):
        xs = [r.photon_count for r in records if r.true_state == alpha]
        if len(xs) > 100:
            assert abs(np.mean(xs) - default_model.mean_counts[alpha]) < 4 * np.sqrt(
                default_model.mean_counts[alpha] / len(xs)
            )


def test_observe_chain_binning_consistency(paper_rates, default_model):
    # the same chain observed at 2 ms has half as many bins
    events = run_chain(paper_rates, 1.0, 2, 32)
    fine = observe_chain(events, default_model, 1e-3, seed=1)
    coarse = observe_chain(events, default_model, 2e-3, seed=1)
    assert len(coarse) == len(fine) // 2
    assert [r.true_state for r in coarse] == [r.true_state for r in fine][1::2]


def test_repump_only_policy_saturates_top_state(default_model, feedback_rates):
    # optimal policy aiming at the top state: depumping can never reduce the
    # distance, so only repump pulses fire, and they pin the system up
    fc = FilterConfig(default_model, feedback_rates, 1e-3)
    sc = SimConfig(feedback_rates, default_model, 1e-3, 300, 2, 0)
    policy = ControlPolicy(mode="optimal", target=Belief(0.0, 0.0, 1.0))
    runs = run_closed_loop_ensemble(sc, fc, policy, 20, 424242)
    assert all(
        dec.action != Pulse.DEPUMP for r in runs for dec in r.decisions
    )
    mean_p2 = np.mean([p.p2 for r in runs for p in r.posteriors])
    assert mean_p2 > 0.9


def test_pure_decay_first_dominance_matches_first_passage(default_model):
    # open loop without pumping: the middle state first dominates the belief
    # one decay time (1/r21) plus ~a bin of detection lag after the start;
    # traces whose middle-state visit is too short to dominate are rare
    from telegraphctl.analytics import time_to_target
    from telegraphctl.errors import NeverReachedError

    rates = TransitionRates(35.0, 50.0, 0.0)
    sc = SimConfig(rates, default_model, 1e-3, 300, 2, 0)
    fc = FilterConfig(default_model, rates, 1e-3)
    runs = run_open_loop_ensemble(sc, fc, 100, 1357)
    times = []
    missed = 0
    for r in runs:
        try:
            times.append(time_to_target([r.posteriors], 1e-3))
        except NeverReachedError:
            missed += 1
    assert missed < 10
    mean_ms = np.mean(times) * 1e3
    # first-passage mean 1/35 = 28.6 ms plus filter lag, minus a small bias
    # from conditioning on detection; Monte-Carlo tolerance
    assert 25.0 < mean_ms < 34.0


def test_rebin_counts_sums_and_truncates(default_model, paper_rates):
    sc = SimConfig(paper_rates, default_model, 1e-3, 101, 2, 3)
    runs = run_open_loop_ensemble(sc, None, 1, 0)
    fine = runs[0].records
    coarse = rebin_counts(fine, 10)
    assert len(coarse) == 10
    assert coarse[0].photon_count == sum(r.photon_count for r in fine[:10])
    assert coarse[-1].true_state == fine[99].true_state
    with pytest.raises(ValueError):
        rebin_counts(fine, 0)


def _belief_hex(beliefs) -> str:
    return ",".join(x.hex() for b in beliefs for x in b.as_tuple()) + ";"


# Digests recorded on the code before the per-count log-likelihood table
# and the memoized pulse matrices: any drift in the belief step, the policy
# or the simulator changes them. Both sides of the replay tests change
# together, so only frozen bits catch a changed rounding.
CLOSED_LOOP_DIGESTS = {
    "simple": "70e68520f68b26acf13ba392c316bb8b2969e1c648b49b32963812a1a564cf6c",
    "optimal": "d5a23f1ed483ee1de0648e1779a415de7a5315947d48fa914cea96f0a7a50ff6",
}


@pytest.mark.parametrize("mode", sorted(CLOSED_LOOP_DIGESTS))
def test_closed_loop_frozen_bits(mode):
    cfg = replace(feedback_defaults(), policy_mode=mode)
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        run = run_closed_loop(
            cfg.sim_config(seed), cfg.filter_config(), cfg.control_policy()
        )
        h.update(format_trace(run.records).encode())
        h.update(_belief_hex(run.posteriors).encode())
        for d in run.decisions:
            h.update(
                f"{int(d.action)} {d.transition_probability.hex()} "
                f"{_belief_hex([d.predicted_belief])} {d.distance_before.hex()} "
                f"{d.distance_after.hex()}\n".encode()
            )
    assert h.hexdigest() == CLOSED_LOOP_DIGESTS[mode]


# (posterior digest, trace log-likelihood) of the default 5100-bin open-loop
# trace, recorded like CLOSED_LOOP_DIGESTS; "exact" was re-recorded when the
# matrix exponential moved to uniformization (same log-likelihood bits)
OPEN_LOOP_BITS = {
    "linear": (
        "8b1009b022c2e9790b1fefc579e76fdf0c2ed656aa799d4d0ce4a2fe9c266546",
        "-0x1.f529d88324a24p+13",
    ),
    "exact": (
        "b2c1ff48b41f84b32e205baa56035755096c55b1cb4005356518eedb69862bbc",
        "-0x1.f53074511159dp+13",
    ),
}


@pytest.mark.parametrize("method", sorted(OPEN_LOOP_BITS))
def test_open_loop_filter_frozen_bits(method):
    cfg = replace(ExperimentConfig(), propagation=method)
    records = run_trace(cfg.sim_config(11))
    fc = cfg.filter_config()
    digest = hashlib.sha256(_belief_hex(run_filter(records, fc)).encode()).hexdigest()
    assert (digest, trace_log_likelihood(records, fc).hex()) == OPEN_LOOP_BITS[method]


# perfbench wraps these module attributes for its per-layer spans
# (filtering.propagate_prior, filtering.posterior_update,
# control.decide_action), so the per-bin step must keep calling each of
# them once per bin through these names.
BELIEF_STEP_BOUNDARIES = [
    (experiments, "propagate_prior"),
    (experiments, "posterior_update"),
    (experiments, "decide_action"),
    (filtering, "propagate_prior"),
    (filtering, "posterior_update"),
]


def test_belief_step_boundaries_called_once_per_bin(monkeypatch):
    calls = {}
    for owner, name in BELIEF_STEP_BOUNDARIES:
        key = f"{owner.__name__.rsplit('.', 1)[1]}.{name}"
        calls[key] = 0

        def counted(*args, _key=key, _original=getattr(owner, name), **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    cfg = feedback_defaults()
    run = run_closed_loop(cfg.sim_config(0), cfg.filter_config(), cfg.control_policy())
    n = len(run.records)
    assert any(rec.pulse for rec in run.records)
    assert calls == {
        "experiments.propagate_prior": n,
        "experiments.posterior_update": n,
        "experiments.decide_action": n,
        "filtering.propagate_prior": 0,
        "filtering.posterior_update": 0,
    }

    calls.update(dict.fromkeys(calls, 0))
    filtering.run_filter(run.records, cfg.filter_config())
    assert calls == {
        "experiments.propagate_prior": 0,
        "experiments.posterior_update": 0,
        "experiments.decide_action": 0,
        "filtering.propagate_prior": n,
        "filtering.posterior_update": n,
    }


# perfbench also wraps these simulator attributes for its per-layer spans
# (simulate.gillespie_us_per_bin, emit_us_per_bin, pulse_us_per_call), so
# run_trace_events must look each up through the module once per bin, or
# once per fired pulse.
SIMULATOR_BOUNDARIES = ["step_continuous_events", "emit_photons", "apply_pulse"]


def test_simulator_boundaries_called_once_per_bin(monkeypatch):
    calls = dict.fromkeys(SIMULATOR_BOUNDARIES, 0)
    for name in SIMULATOR_BOUNDARIES:

        def counted(*args, _key=name, _original=getattr(simulate, name), **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(simulate, name, counted)

    cfg = feedback_defaults()
    run = run_closed_loop(cfg.sim_config(0), cfg.filter_config(), cfg.control_policy())
    n = len(run.records)
    fired = sum(1 for rec in run.records if rec.pulse)
    assert fired > 0
    assert calls == {"step_continuous_events": n, "emit_photons": n, "apply_pulse": fired}

    calls.update(dict.fromkeys(calls, 0))
    records = run_trace(cfg.sim_config(1))
    n = len(records)
    assert calls == {"step_continuous_events": n, "emit_photons": n, "apply_pulse": 0}
