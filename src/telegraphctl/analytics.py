"""Deterministic rate-equation predictions and ensemble statistics.

Covers the quantities the experiments report: time-averaged occupancies,
the passive repump-rate sweep with its stationary-limit closed form, mean
dwell time in the target state, and the mean time to reach target
dominance after losing it.

Conventions: a trajectory bin's value is the end-of-bin state, matching the
simulator's per-bin records, and "the target is reached" means the target
state carries the largest belief component (argmax), which is exactly the
controller's own decision variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .control import DEFAULT_TARGET
from .errors import EmptyEnsembleError, NeverReachedError, NoEpisodesError
from .filtering import transition_matrix
from .model import Belief, TransitionRates, check_belief, exit_rates, normalize

TARGET_STATE = DEFAULT_TARGET.argmax()


def integrate_rate_equations(
    p0: Belief,
    rates: TransitionRates,
    duration: float,
    dt: float,
    method: str = "linear",
) -> np.ndarray:
    """Deterministic forward iteration of the rate-equation model.

    Returns the propagated beliefs at t = dt, 2*dt, ..., n*dt as an (n, 3)
    array (the initial condition is not included). method="exact" swaps in
    the matrix-exponential step and serves as the oracle for the
    linearization error.
    """
    if not 0.0 < duration < math.inf:  # NaN too
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    if not 0.0 < dt < math.inf:  # NaN too
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    n = int(round(duration / dt))
    if n < 1:
        raise ValueError("duration shorter than one step")
    m = transition_matrix(rates.r21, rates.r10, rates.r_repump, dt, method)
    out = np.empty((n, 3))
    p = np.asarray(check_belief(p0))
    for i in range(n):
        p = m @ p
        p = p / p.sum()  # not a no-op: it changes bits on most steps of a sweep
        out[i] = p
    return out


def stationary_belief(rates: TransitionRates) -> Belief:
    """Fixed point of the belief model's generator (no continuous
    depumping), by detailed balance: p0 = down1/up0 * p1 and
    p2 = up1/down2 * p1 (requires r21, r10 and rr > 0)."""
    up0, up1, down1, down2 = exit_rates(rates.r21, rates.r10, rates.r_repump)
    if min(up0, down1, down2) <= 0.0:
        raise ValueError("closed-form stationary state needs positive rates")
    lower, upper = down1 / up0, up1 / down2
    p1 = 1.0 / (1.0 + lower + upper)
    return normalize((lower * p1, p1, upper * p1))


def optimal_repump_rate(rates: TransitionRates) -> float:
    """Repump rate maximizing the stationary middle-state occupancy:
    sqrt(r10 * r21 / 2)."""
    return math.sqrt(rates.r10 * rates.r21 / 2.0)


def sweep_repump_rate(
    rates_base: TransitionRates,
    r_values: Sequence[float],
    duration: float,
    dt: float = 1e-3,
) -> list[tuple[float, float]]:
    """Mean middle-state occupancy of the finite-length rate-equation
    solution from Belief(0, 0, 1), by the linearized step, per repump rate.
    The stationary closed form above is the infinite-horizon oracle for the
    curve's maximum."""
    curve = []
    for r in r_values:
        rates = TransitionRates(rates_base.r21, rates_base.r10, float(r))
        traj = integrate_rate_equations(Belief(0.0, 0.0, 1.0), rates, duration, dt)
        curve.append((float(r), float(traj[:, 1].mean())))
    return curve


def sweep_maximum(curve: Sequence[tuple[float, float]]) -> tuple[float, float]:
    if not curve:
        raise EmptyEnsembleError("empty sweep")
    return max(curve, key=lambda rv: rv[1])


@dataclass(frozen=True)
class OccupancySummary:
    """Time-and-ensemble averaged posterior occupancies."""

    mean_p: Belief
    n_bins: int
    n_traces: int


def mean_occupancy(belief_traces: Sequence[Sequence[Belief]]) -> OccupancySummary:
    """Component-wise average over every bin of every trace."""
    if not belief_traces or all(len(t) == 0 for t in belief_traces):
        raise EmptyEnsembleError("no beliefs to average")
    # Python floats added in trace order: the same IEEE sums as a numpy
    # accumulator, without a numpy call per bin
    s0 = s1 = s2 = 0.0
    n = 0
    for trace in belief_traces:
        for b0, b1, b2 in trace:
            s0 += b0
            s1 += b1
            s2 += b2
        n += len(trace)
    return OccupancySummary(normalize((s0 / n, s1 / n, s2 / n)), n, len(belief_traces))


@dataclass(frozen=True)
class DwellStats:
    """Mean contiguous dwell in the target state. Episodes truncated by a
    trace boundary are excluded from tau and counted separately."""

    tau: float
    stderr: float
    n_episodes: int
    n_truncated: int


def _dominance_runs(argmaxes: Sequence[int], target: int) -> list[tuple[int, int]]:
    """Every maximal [start, end) run of bins with argmax == target, in
    order, those touching either end of the trace included."""
    runs = []
    start = None
    for i, a in enumerate(argmaxes):
        if a == target:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(argmaxes)))
    return runs


def dwell_time(
    belief_traces: Sequence[Sequence[Belief]],
    bin_time: float,
    target_alpha: int = TARGET_STATE,
) -> DwellStats:
    """Mean duration of complete target-dominance runs across the ensemble."""
    durations = []
    truncated = 0
    seen_target = False
    for trace in belief_traces:
        runs = _dominance_runs([b.argmax() for b in trace], target_alpha)
        seen_target = seen_target or bool(runs)
        for s, e in runs:
            if s == 0 or e == len(trace):
                truncated += 1
            else:
                durations.append((e - s) * bin_time)
    if not seen_target:
        raise NoEpisodesError("target state never dominant in any trace")
    if not durations:
        return DwellStats(math.nan, math.nan, 0, truncated)
    tau = float(np.mean(durations))
    stderr = float(np.std(durations, ddof=1) / math.sqrt(len(durations))) if len(durations) > 1 else math.nan
    return DwellStats(tau, stderr, len(durations), truncated)


def hidden_dwell_times(
    initial_state: int,
    changes: Sequence[tuple[float, int]],
    duration: float,
    target_alpha: int = TARGET_STATE,
) -> list[float]:
    """Exact dwell durations of the hidden chain in the target state, from a
    simulated event history; intervals touching either end of the trace are
    dropped as censored."""
    dwells = []
    state = initial_state
    entered: Optional[float] = 0.0 if state == target_alpha else None
    start_censored = state == target_alpha
    for t, new_state in changes:
        if new_state == state:
            continue
        if state == target_alpha:
            if not start_censored:
                dwells.append(t - entered)
            start_censored = False
            entered = None
        elif new_state == target_alpha:
            entered = t
        state = new_state
    # an open target interval at the end of the trace is censored and dropped
    return dwells


def time_to_target(
    belief_traces: Sequence[Sequence[Belief]],
    bin_time: float,
    target_alpha: int = TARGET_STATE,
) -> float:
    """Mean time from losing target dominance (or trace start) until the
    target is dominant again, pooled over all completed recovery episodes.

    The initial episode runs from t = 0 through the end of the first
    dominant bin (at least one bin: information must arrive before dominance
    can be confirmed); an interior episode counts its consecutive
    non-dominant bins. Unfinished episodes at the trace end are censored
    and dropped.
    """
    episodes = []
    for trace in belief_traces:
        runs = _dominance_runs([b.argmax() for b in trace], target_alpha)
        if not runs:
            raise NeverReachedError("a trace never reached target dominance")
        # initial episode: the belief starts outside dominance by precondition
        episodes.append((runs[0][0] + 1) * bin_time)
        episodes.extend((s - e) * bin_time for (_, e), (s, _) in zip(runs, runs[1:]))
    if not episodes:
        raise NoEpisodesError("no completed recovery episodes")
    return float(np.mean(episodes))
