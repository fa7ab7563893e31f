"""Control policy for stabilizing the middle state with pump pulses.

Two policies are provided. The optimal policy minimizes the Kolmogorov
(total-variation) distance between the post-pulse belief and the target
over the pulse transition probability, separately for each pulse direction,
and fires the better one. Each post-pulse component is a quadratic in the
transition probability, so the distance is piecewise quadratic and its
minimizer is found exactly among a handful of closed-form candidates.

Most bins need no pulse, and that is proved before the candidate scan.
For three-component vectors of equal sums the distance equals the largest
single deviation |x_i - g_i| (total variation as a maximum over events),
so no T beats T = 0 when a largest deviation can only grow with T: under
repumping x0 falls, x2 rises and x1 starts downhill on a concave arc when
2 * p0 <= p1; depumping is the mirror image. The minimizer then returns
T = 0 with the scan's own T = 0 distance, the same bits the scan returns.
The test runs only on non-negative belief and target whose sums lie
within 1e-15 of 1; anything else goes to the scan unchanged.

The simplified threshold policy fires a fixed-T repump pulse when p0
dominates and a fixed-T depump pulse when p2 dominates; simulations show it
performs within a couple of percentage points of the optimal policy, which
is why the fixed-T variant is the default.

decide_action checks the belief once, computes the no-pulse distance and
frames every decision; each policy only chooses a pulse, or none.
ControlPolicy builds the two fixed-T pulse matrices once, when it checks
their T, and keeps them read-only for the simple policy; the optimal
policy picks a new T on every bin and builds that bin's matrix.

The default fixed transition probabilities below were chosen by a coarse
sweep over T in {0.1, ..., 0.9} maximizing the mean posterior occupancy of
the target state in closed-loop simulation with the default photon model
(see experiments.tune_fixed_pulse_probability); they are recorded in every
run manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .filtering import build_pulse_matrix, pulsed_belief
from .model import Belief, Pulse, check_belief

# Result of the tuning sweep with the default configuration (seeded, see
# experiments.tune_fixed_pulse_probability).
DEFAULT_T_REPUMP = 0.4
DEFAULT_T_DEPUMP = 0.4
# The balanced state, one atom in each level: the middle state alpha = 1.
DEFAULT_TARGET = Belief(0.0, 1.0, 0.0)

_TIE_EPS = 1e-12
_TARGET_SUM_EPS = 1e-12  # the slack on the target's unit sum
# optimal_pulse_probability's exit: the slack on a unit sum, and on which
# deviation counts as largest
_UNIT_SUM_EPS = 1e-15
_MAX_DEV_EPS = 1e-15

# Read on every bin: a module name is cheaper to look up than an enum member.
_NONE, _REPUMP, _DEPUMP = Pulse.NONE, Pulse.REPUMP, Pulse.DEPUMP


@dataclass(frozen=True)
class ControlPolicy:
    mode: str = "simple"  # "simple" (fixed T, threshold rule) or "optimal"
    fixed_t_repump: float = DEFAULT_T_REPUMP
    fixed_t_depump: float = DEFAULT_T_DEPUMP
    target: Belief = DEFAULT_TARGET
    # The pulse matrices of the two fixed T, built when the policy is made
    # (which checks each T) and read-only.
    repump_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    depump_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("simple", "optimal"):
            raise ValueError("mode must be 'simple' or 'optimal'")
        for name, t, direction in (
            ("repump_matrix", self.fixed_t_repump, _REPUMP),
            ("depump_matrix", self.fixed_t_depump, _DEPUMP),
        ):
            m = build_pulse_matrix(t, direction)
            m.flags.writeable = False
            object.__setattr__(self, name, m)
        if not abs(math.fsum(check_belief(self.target)) - 1.0) <= _TARGET_SUM_EPS:
            raise ValueError(f"target must sum to 1, got {tuple(self.target)!r}")


class ControlDecision(NamedTuple):
    """A pulse (or no-op) together with its predicted effect on the belief.
    A pulse is only issued when it does not increase the distance to the
    target, so distance_after <= distance_before whenever action fires."""

    action: Pulse
    transition_probability: float
    predicted_belief: Belief
    distance_before: float
    distance_after: float


def kolmogorov_distance(p: Belief, q: Belief) -> float:
    """Total-variation distance 0.5 * sum |p - q|, in [0, 1]."""
    return 0.5 * math.fsum((abs(p.p0 - q.p0), abs(p.p1 - q.p1), abs(p.p2 - q.p2)))


def _repump_cannot_help(
    b0: float, b1: float, b2: float, g0: float, g1: float, g2: float
) -> bool:
    """True when no repump pulse, whatever its T in [0, 1], brings the belief
    (b0, b1, b2) closer to the target (g0, g1, g2) than no pulse does, by the
    largest-deviation test of the module docstring; the depump test is this
    one on both triples reversed.

    A deviation within _MAX_DEV_EPS of the largest counts as largest, so a
    rounded |b1 - g1| one ulp short of the largest still qualifies; no T
    then beats T = 0 by more than a few 1e-15, far inside the scan's tie
    tolerance. False unless both triples are non-negative with sums within
    _UNIT_SUM_EPS of 1: NaN and infinities fail these comparisons without
    raising, and huge components of opposite signs that sum to 1 would
    round the scan's distances by more than its tie tolerance.
    """
    if not (
        b0 >= 0.0
        and b1 >= 0.0
        and b2 >= 0.0
        and g0 >= 0.0
        and g1 >= 0.0
        and g2 >= 0.0
        and -_UNIT_SUM_EPS <= b0 + b1 + b2 - 1.0 <= _UNIT_SUM_EPS
        and -_UNIT_SUM_EPS <= g0 + g1 + g2 - 1.0 <= _UNIT_SUM_EPS
    ):
        return False
    d0 = abs(b0 - g0)
    d1 = abs(b1 - g1)
    d2 = abs(b2 - g2)
    floor = d0 if d0 >= d1 else d1
    if d2 > floor:
        floor = d2
    floor -= _MAX_DEV_EPS
    return (
        (d1 >= floor and b1 <= g1 and 2.0 * b0 <= b1)
        or (d0 >= floor and b0 <= g0)
        or (d2 >= floor and b2 >= g2)
    )


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
    in increasing T, so ties resolve to the smallest minimizing T. When no
    pulse can help (_repump_cannot_help), the scan is skipped and its first
    candidate, T = 0, is returned with the bits the scan would give it.
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
    if (
        _repump_cannot_help(b0, b1, b2, g0, g1, g2)
        if direction == _REPUMP
        else _repump_cannot_help(b2, b1, b0, g2, g1, g0)
    ):
        # the scan's T = 0 distance, the first candidate, which it returns
        return 0.0, 0.5 * (abs(c00 - g0) + abs(c10 - g1) + abs(c20 - g2))
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
    # only NaN distances get here
    raise ValueError(f"no finite distance for belief {tuple(belief)!r}")


def _simple_pulse(belief: Belief, policy: ControlPolicy, k_none: float):
    """Fixed-T threshold rule: (action, T, predicted belief, distance) of a
    repump when p0 strictly dominates or a depump when p2 does; None on ties
    and for a pulse that would end farther from the target than k_none."""
    p0, p1, p2 = belief
    if p0 > p1 and p0 > p2:
        action, t, m = _REPUMP, policy.fixed_t_repump, policy.repump_matrix
    elif p2 > p0 and p2 > p1:
        action, t, m = _DEPUMP, policy.fixed_t_depump, policy.depump_matrix
    else:
        return None
    predicted = pulsed_belief(belief, m)
    k = kolmogorov_distance(policy.target, predicted)
    return None if k > k_none else (action, t, predicted, k)


def _optimal_pulse(belief: Belief, policy: ControlPolicy, k_none: float):
    """(action, T, predicted belief, distance) minimizing the distance to the
    target, or None; no pulse wins exact ties, then repumping. T is new on
    every bin, and so is its pulse matrix."""
    t_r, k_r = optimal_pulse_probability(belief, policy.target, _REPUMP)
    t_d, k_d = optimal_pulse_probability(belief, policy.target, _DEPUMP)
    if k_none <= min(k_r, k_d) + _TIE_EPS:
        return None
    if k_r <= k_d + _TIE_EPS:
        action, t, k = _REPUMP, t_r, k_r
    else:
        action, t, k = _DEPUMP, t_d, k_d
    return action, t, pulsed_belief(belief, build_pulse_matrix(t, action)), k


def decide_action(belief: Belief, policy: ControlPolicy) -> ControlDecision:
    """The policy's decision for a posterior belief, by its mode."""
    b0, b1, b2 = check_belief(belief)
    g0, g1, g2 = policy.target
    # kolmogorov_distance(policy.target, belief), inline
    k_none = 0.5 * math.fsum((abs(g0 - b0), abs(g1 - b1), abs(g2 - b2)))
    if policy.mode == "simple":
        pulse = _simple_pulse(belief, policy, k_none)
    else:
        pulse = _optimal_pulse(belief, policy, k_none)
    if pulse is None:
        return ControlDecision(_NONE, 0.0, belief, k_none, k_none)
    action, t, predicted, k = pulse
    return ControlDecision(action, t, predicted, k_none, k)
