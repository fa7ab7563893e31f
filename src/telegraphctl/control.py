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
from typing import NamedTuple, Optional

# pulse_matrix stays importable from here, next to the policies that use it
from .filtering import pulse_matrix, pulsed_belief, pulsed_belief_once  # noqa: F401
from .model import Belief, Pulse
from .simulate import PulseSpec

# Result of the tuning sweep with the default configuration (seeded, see
# experiments.tune_fixed_pulse_probability).
DEFAULT_T_REPUMP = 0.4
DEFAULT_T_DEPUMP = 0.4

_TIE_EPS = 1e-12

# Read on every bin: a module name is cheaper to look up than an enum member.
_NONE, _REPUMP, _DEPUMP = Pulse.NONE, Pulse.REPUMP, Pulse.DEPUMP


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


class ControlDecision(NamedTuple):
    """A pulse (or no-op) together with its predicted effect on the belief.
    A pulse is only issued when it does not increase the distance to the
    target, so distance_after <= distance_before whenever action fires."""

    action: Pulse
    transition_probability: float
    predicted_belief: Belief
    distance_before: float
    distance_after: float

    def pulse_spec(self) -> Optional[PulseSpec]:
        if self.action == _NONE:
            return None
        # a decision's direction and T are valid by construction
        return PulseSpec._make((self.action, self.transition_probability))


def kolmogorov_distance(p: Belief, q: Belief) -> float:
    """Total-variation distance 0.5 * sum |p - q|, in [0, 1]."""
    return 0.5 * math.fsum((abs(p.p0 - q.p0), abs(p.p1 - q.p1), abs(p.p2 - q.p2)))


def optimal_pulse_probability(
    belief: Belief, target: Belief, direction: Pulse
) -> tuple[float, float]:
    """(T*, k*) minimizing the post-pulse Kolmogorov distance over T in [0,1].

    Each post-pulse component minus its target is a quadratic in T, so the
    objective is piecewise quadratic with kinks where a component crosses
    its target. The exact candidate set is the endpoints 0 and 1, every kink
    in (0, 1), and the vertex of each convex piece between consecutive
    kinks (the piece's sign pattern is read at its midpoint). The roots are
    taken in the cancellation-free form, which keeps the small root
    accurate when the leading coefficient is tiny. Candidates are produced
    in increasing T, so ties resolve to the smallest minimizing T.
    """
    # post-pulse component i is (ci2 * T + ci1) * T + ci0
    b0, b1, b2 = belief
    if direction == _REPUMP:
        c02, c01, c00 = b0, -2.0 * b0, b0
        c12, c11, c10 = -2.0 * b0, 2.0 * b0 - b1, b1
        c22, c21, c20 = b0, b1, b2
    elif direction == _DEPUMP:
        c02, c01, c00 = b2, b1, b0
        c12, c11, c10 = -2.0 * b2, 2.0 * b2 - b1, b1
        c22, c21, c20 = b2, -2.0 * b2, b2
    else:
        raise ValueError("direction must be REPUMP or DEPUMP")
    g0, g1, g2 = target
    kinks = []  # the roots in (0, 1) of a*T^2 + b*T + c for each component
    for a, b, c in ((c02, c01, c00 - g0), (c12, c11, c10 - g1), (c22, c21, c20 - g2)):
        if a == 0.0:
            if b != 0.0:
                r = -c / b
                if 0.0 < r < 1.0:
                    kinks.append(r)
            continue
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            if q != 0.0:  # else the only root is 0
                r = q / a
                if 0.0 < r < 1.0:
                    kinks.append(r)
                r = c / q
                if 0.0 < r < 1.0:
                    kinks.append(r)
    if kinks:
        kinks.sort()
        kinks.append(1.0)
    else:
        kinks = (1.0,)
    # Candidates in increasing T: each kink, preceded by the vertex of the
    # piece it closes. A kink found twice bounds an empty piece, which has
    # no vertex.
    ts = [0.0]
    lo = 0.0
    for hi in kinks:
        if lo < hi:
            mid = 0.5 * (lo + hi)
            s0 = 1.0 if (c02 * mid + c01) * mid + c00 - g0 >= 0.0 else -1.0
            s1 = 1.0 if (c12 * mid + c11) * mid + c10 - g1 >= 0.0 else -1.0
            s2 = 1.0 if (c22 * mid + c21) * mid + c20 - g2 >= 0.0 else -1.0
            a2 = 0.0 + s0 * c02 + s1 * c12 + s2 * c22
            if a2 > 0.0:
                v = -(0.0 + s0 * c01 + s1 * c11 + s2 * c21) / (2.0 * a2)
                if lo < v < hi:
                    ts.append(v)
        ts.append(hi)
        lo = hi
    # a loop, not a comprehension: a closure would turn every coefficient
    # above into a cell variable, slower to read
    ks = []
    for t in ts:
        ks.append(
            0.5
            * (
                abs((c02 * t + c01) * t + c00 - g0)
                + abs((c12 * t + c11) * t + c10 - g1)
                + abs((c22 * t + c21) * t + c20 - g2)
            )
        )
    k_tie = min(ks) + _TIE_EPS
    for t, k in zip(ts, ks):
        if k <= k_tie:
            return t, k
    raise AssertionError("unreachable")


def decide_action_simple(belief: Belief, policy: ControlPolicy) -> ControlDecision:
    """Fixed-T threshold rule: repump when p0 strictly dominates, depump when
    p2 strictly dominates, otherwise no pulse; ties mean no pulse. A pulse
    that would increase the distance to the target is suppressed."""
    if policy.mode != "simple":
        raise ValueError("policy mode must be 'simple'")
    p0, p1, p2 = belief
    k_before = kolmogorov_distance(policy.target, belief)
    if p0 > p1 and p0 > p2:
        action, t = _REPUMP, policy.fixed_t_repump
    elif p2 > p0 and p2 > p1:
        action, t = _DEPUMP, policy.fixed_t_depump
    else:
        return ControlDecision(_NONE, 0.0, belief, k_before, k_before)
    predicted = pulsed_belief(belief, t, action)
    k_after = kolmogorov_distance(policy.target, predicted)
    if k_after > k_before:
        return ControlDecision(_NONE, 0.0, belief, k_before, k_before)
    return ControlDecision(action, t, predicted, k_before, k_after)


def decide_action_optimal(belief: Belief, policy: ControlPolicy) -> ControlDecision:
    """Pick the direction and T that minimize the post-pulse distance to the
    target; prefer no pulse, then repumping, on exact ties. T is new on
    every bin, so its pulse matrix is built uncached."""
    if policy.mode != "optimal":
        raise ValueError("policy mode must be 'optimal'")
    target = policy.target
    b0, b1, b2 = belief
    g0, g1, g2 = target
    # kolmogorov_distance(target, belief), inline
    k_none = 0.5 * math.fsum((abs(g0 - b0), abs(g1 - b1), abs(g2 - b2)))
    t_r, k_r = optimal_pulse_probability(belief, target, _REPUMP)
    t_d, k_d = optimal_pulse_probability(belief, target, _DEPUMP)
    if k_none <= min(k_r, k_d) + _TIE_EPS:
        return ControlDecision(_NONE, 0.0, belief, k_none, k_none)
    if k_r <= k_d + _TIE_EPS:
        action, t, k = _REPUMP, t_r, k_r
    else:
        action, t, k = _DEPUMP, t_d, k_d
    return ControlDecision(action, t, pulsed_belief_once(belief, t, action), k_none, k)


def decide_action(belief: Belief, policy: ControlPolicy) -> ControlDecision:
    if policy.mode == "simple":
        return decide_action_simple(belief, policy)
    return decide_action_optimal(belief, policy)
