"""Reusable experiment drivers: closed-loop runs, seeded ensembles, the
fixed-T tuning sweep, and the multi-bin-time robustness harness.

Ensemble members use seeds derived from the master seed through the
documented mixing function (rng.derive_seed), so members are independent
of each other and of execution order; aggregation is deterministic by
trace index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .control import DEFAULT_TARGET, ControlPolicy, ControlDecision, decide_action
from .filtering import FilterConfig, posterior_update, propagate_prior, run_filter
from .model import Belief, PhotonCountModel, Pulse, TraceRecord
from .rng import PortableRandom, derive_seed
from .simulate import (
    PulseSpec,
    SimConfig,
    TraceEvents,
    emit_photons,
    run_trace_events,
    states_at_bin_ends,
)

# Read on every bin: a module name is cheaper to look up than an enum member.
_NONE = Pulse.NONE


class FeedbackController:
    """Streaming filter + policy, usable as the simulator's control hook.

    Per bin it propagates its belief, applies the Bayes update with the
    observed count, asks the policy for a decision, folds an issued pulse
    back into the belief, and returns the pulse for the simulator to apply
    at the bin boundary.
    """

    def __init__(self, filter_config: FilterConfig, policy: ControlPolicy):
        self.config = filter_config
        self.policy = policy
        self.belief = filter_config.initial_belief
        self.posteriors: list[Belief] = []
        self.decisions: list[ControlDecision] = []

    def __call__(self, bin_index: int, photon_count: int) -> Optional[PulseSpec]:
        config = self.config
        prior = propagate_prior(self.belief, config)
        post = posterior_update(prior, photon_count, config.photon_model)
        decision = decide_action(post, self.policy)
        self.posteriors.append(post)
        self.decisions.append(decision)
        self.belief = decision.predicted_belief
        if decision.action == _NONE:
            return None
        # a decision's direction and T are valid by construction
        return PulseSpec._make((decision.action, decision.transition_probability))


@dataclass
class ClosedLoopRun:
    """One closed-loop trace: records, the controller's per-bin posteriors
    (post-measurement, pre-pulse) and decisions, and the exact hidden-state
    event history."""

    records: list[TraceRecord]
    posteriors: list[Belief]
    decisions: list[ControlDecision]
    events: TraceEvents
    seed: int


def run_closed_loop(
    sim_config: SimConfig, filter_config: FilterConfig, policy: ControlPolicy
) -> ClosedLoopRun:
    controller = FeedbackController(filter_config, policy)
    records, events = run_trace_events(sim_config, controller)
    return ClosedLoopRun(
        records, controller.posteriors, controller.decisions, events, sim_config.rng_seed
    )


def run_closed_loop_ensemble(
    sim_config: SimConfig,
    filter_config: FilterConfig,
    policy: ControlPolicy,
    n_traces: int,
    master_seed: Optional[int] = None,
) -> list[ClosedLoopRun]:
    """n_traces independent closed-loop runs with derived per-trace seeds."""
    base = sim_config.rng_seed if master_seed is None else master_seed
    return [
        run_closed_loop(
            replace(sim_config, rng_seed=derive_seed(base, i)), filter_config, policy
        )
        for i in range(n_traces)
    ]


@dataclass
class OpenLoopRun:
    records: list[TraceRecord]
    posteriors: list[Belief]
    events: TraceEvents
    seed: int


def run_open_loop_ensemble(
    sim_config: SimConfig,
    filter_config: Optional[FilterConfig],
    n_traces: int,
    master_seed: Optional[int] = None,
) -> list[OpenLoopRun]:
    """Open-loop traces, filtered offline when a filter config is given."""
    base = sim_config.rng_seed if master_seed is None else master_seed
    runs = []
    for i in range(n_traces):
        cfg = replace(sim_config, rng_seed=derive_seed(base, i))
        records, events = run_trace_events(cfg, None)
        posteriors = run_filter(records, filter_config) if filter_config else []
        runs.append(OpenLoopRun(records, posteriors, events, cfg.rng_seed))
    return runs


def tune_fixed_pulse_probability(
    sim_config: SimConfig,
    filter_config: FilterConfig,
    t_values: Sequence[float] = tuple(i / 10 for i in range(1, 10)),
    n_traces: int = 20,
    master_seed: int = 0x7E1E6_0001,
) -> tuple[float, list[tuple[float, float]]]:
    """Coarse sweep of the shared fixed transition probability maximizing the
    mean posterior occupancy of the default target state; returns the
    maximizer and the (T, mean_p_target) table."""
    table = []
    target_index = DEFAULT_TARGET.argmax()
    for t in t_values:
        policy = ControlPolicy(mode="simple", fixed_t_repump=t, fixed_t_depump=t)
        runs = run_closed_loop_ensemble(
            sim_config, filter_config, policy, n_traces, master_seed
        )
        mean = float(
            np.mean([p.as_tuple()[target_index] for r in runs for p in r.posteriors])
        )
        table.append((float(t), mean))
    best_t = max(table, key=lambda tv: tv[1])[0]
    return best_t, table


def observe_chain(
    events: TraceEvents,
    photon_model: PhotonCountModel,
    bin_time: float,
    seed: int,
) -> list[TraceRecord]:
    """Observe one hidden-chain realization at the given bin length: per bin,
    a count drawn from the end-of-bin state under the model rescaled to this
    bin length. Re-observing the same chain at several bin lengths is the
    bin-time robustness protocol."""
    model = photon_model.rescaled(bin_time)
    rng = PortableRandom(seed)
    return [
        TraceRecord(i, emit_photons(state, model, rng), Pulse.NONE, true_state=state)
        for i, state in enumerate(states_at_bin_ends(events, bin_time))
    ]
