"""Control policy for stabilizing the middle state with pump pulses.

Two policies are provided. The optimal policy minimizes the Kolmogorov
(total-variation) distance between the post-pulse belief and the target
over the pulse transition probability, separately for each pulse direction,
and fires the better one. Each post-pulse component is a quadratic in the
transition probability, so the distance is piecewise quadratic and its
minimizer is found exactly among a handful of closed-form candidates. The
simplified threshold policy fires a fixed-T repump pulse when p0 dominates
and a fixed-T depump pulse when p2 dominates; simulations show it performs
within a couple of percentage points of the optimal policy, which is why the
fixed-T variant is the default.

The default fixed transition probabilities below were chosen by a coarse
sweep over T in {0.1, ..., 0.9} maximizing the mean posterior occupancy of
the target state in closed-loop simulation with the default photon model
(see experiments.tune_fixed_pulse_probability); they are recorded in every
run manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .filtering import pulse_matrix
from .model import Belief, Pulse, normalize
from .simulate import PulseSpec

# Result of the tuning sweep with the default configuration (seeded, see
# experiments.tune_fixed_pulse_probability).
DEFAULT_T_REPUMP = 0.4
DEFAULT_T_DEPUMP = 0.4

_TIE_EPS = 1e-12


@dataclass(frozen=True)
class ControlPolicy:
    mode: str = "simple"  # "simple" (fixed T, threshold rule) or "optimal"
    fixed_t_repump: float = DEFAULT_T_REPUMP
    fixed_t_depump: float = DEFAULT_T_DEPUMP
    target: Belief = Belief(0.0, 1.0, 0.0)

    def __post_init__(self):
        if self.mode not in ("simple", "optimal"):
            raise ValueError("mode must be 'simple' or 'optimal'")
        for t in (self.fixed_t_repump, self.fixed_t_depump):
            if not 0.0 <= t <= 1.0:
                raise ValueError("fixed transition probabilities must be in [0, 1]")


@dataclass(frozen=True)
class ControlDecision:
    """A pulse (or no-op) together with its predicted effect on the belief.
    A pulse is only issued when it does not increase the distance to the
    target, so distance_after <= distance_before whenever action fires."""

    action: Pulse
    transition_probability: float
    predicted_belief: Belief
    distance_before: float
    distance_after: float

    def pulse_spec(self) -> Optional[PulseSpec]:
        if self.action == Pulse.NONE:
            return None
        return PulseSpec(self.action, self.transition_probability)


def kolmogorov_distance(p: Belief, q: Belief) -> float:
    """Total-variation distance 0.5 * sum |p - q|, in [0, 1]."""
    return 0.5 * math.fsum((abs(p.p0 - q.p0), abs(p.p1 - q.p1), abs(p.p2 - q.p2)))


def _pulse_quadratics(belief: Belief, direction: Pulse) -> list[tuple[float, float, float]]:
    """Coefficients (c2, c1, c0) of each post-pulse belief component as a
    quadratic in the transition probability T."""
    b0, b1, b2 = belief.as_tuple()
    if direction == Pulse.REPUMP:
        return [
            (b0, -2.0 * b0, b0),
            (-2.0 * b0, 2.0 * b0 - b1, b1),
            (b0, b1, b2),
        ]
    if direction == Pulse.DEPUMP:
        return [
            (b2, b1, b0),
            (-2.0 * b2, 2.0 * b2 - b1, b1),
            (b2, -2.0 * b2, b2),
        ]
    raise ValueError("direction must be REPUMP or DEPUMP")


def _post_pulse_distance(t: float, quads, target: Belief) -> float:
    total = 0.0
    for (c2, c1, c0), g in zip(quads, target.as_tuple()):
        total += abs((c2 * t + c1) * t + c0 - g)
    return 0.5 * total


def optimal_pulse_probability(
    belief: Belief, target: Belief, direction: Pulse
) -> tuple[float, float]:
    """(T*, k*) minimizing the post-pulse Kolmogorov distance over T in [0,1].

    Each post-pulse component minus its target is a quadratic in T, so the
    objective is piecewise quadratic with kinks where a component crosses
    its target. The exact candidate set is the endpoints 0 and 1, every kink
    in (0, 1), and the vertex of each convex piece between consecutive
    kinks (the piece's sign pattern is read at its midpoint). Ties resolve
    to the smallest minimizing T.
    """
    quads = _pulse_quadratics(belief, direction)
    g = target.as_tuple()
    crossings = {0.0, 1.0}
    for (c2, c1, c0), gi in zip(quads, g):
        crossings.update(r for r in _quadratic_roots(c2, c1, c0 - gi) if 0.0 < r < 1.0)
    kinks = sorted(crossings)
    candidates = list(kinks)
    for lo, hi in zip(kinks, kinks[1:]):
        mid = 0.5 * (lo + hi)
        a2 = a1 = 0.0
        for (c2, c1, c0), gi in zip(quads, g):
            s = 1.0 if (c2 * mid + c1) * mid + c0 - gi >= 0.0 else -1.0
            a2 += s * c2
            a1 += s * c1
        if a2 > 0.0:
            v = -a1 / (2.0 * a2)
            if lo < v < hi:
                candidates.append(v)
    candidates.sort()
    k_vals = [_post_pulse_distance(t, quads, target) for t in candidates]
    k_min = min(k_vals)
    for t, k in zip(candidates, k_vals):
        if k <= k_min + _TIE_EPS:
            return t, k
    raise AssertionError("unreachable")


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c, in the cancellation-free form that
    keeps the small root accurate when a is tiny."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def _predicted(belief: Belief, t: float, action: Pulse) -> Belief:
    return normalize(pulse_matrix(t, action) @ np.asarray(belief.as_tuple()))


def decide_action_simple(belief: Belief, policy: ControlPolicy) -> ControlDecision:
    """Fixed-T threshold rule: repump when p0 strictly dominates, depump when
    p2 strictly dominates, otherwise no pulse; ties mean no pulse. A pulse
    that would increase the distance to the target is suppressed."""
    if policy.mode != "simple":
        raise ValueError("policy mode must be 'simple'")
    p0, p1, p2 = belief.as_tuple()
    k_before = kolmogorov_distance(policy.target, belief)
    if p0 > p1 and p0 > p2:
        action, t = Pulse.REPUMP, policy.fixed_t_repump
    elif p2 > p0 and p2 > p1:
        action, t = Pulse.DEPUMP, policy.fixed_t_depump
    else:
        return ControlDecision(Pulse.NONE, 0.0, belief, k_before, k_before)
    predicted = _predicted(belief, t, action)
    k_after = kolmogorov_distance(policy.target, predicted)
    if k_after > k_before:
        return ControlDecision(Pulse.NONE, 0.0, belief, k_before, k_before)
    return ControlDecision(action, t, predicted, k_before, k_after)


def decide_action_optimal(belief: Belief, policy: ControlPolicy) -> ControlDecision:
    """Pick the direction and T that minimize the post-pulse distance to the
    target; prefer no pulse, then repumping, on exact ties."""
    if policy.mode != "optimal":
        raise ValueError("policy mode must be 'optimal'")
    k_none = kolmogorov_distance(policy.target, belief)
    t_r, k_r = optimal_pulse_probability(belief, policy.target, Pulse.REPUMP)
    t_d, k_d = optimal_pulse_probability(belief, policy.target, Pulse.DEPUMP)
    if k_none <= min(k_r, k_d) + _TIE_EPS:
        return ControlDecision(Pulse.NONE, 0.0, belief, k_none, k_none)
    if k_r <= k_d + _TIE_EPS:
        action, t, k = Pulse.REPUMP, t_r, k_r
    else:
        action, t, k = Pulse.DEPUMP, t_d, k_d
    predicted = _predicted(belief, t, action)
    return ControlDecision(action, t, predicted, k_none, k)


def decide_action(belief: Belief, policy: ControlPolicy) -> ControlDecision:
    if policy.mode == "simple":
        return decide_action_simple(belief, policy)
    return decide_action_optimal(belief, policy)
