"""Independent oracles shared by the test modules."""

import math

import mpmath
import numpy as np

from telegraphctl.control import ControlDecision, kolmogorov_distance
from telegraphctl.filtering import pulsed_belief
from telegraphctl.model import Belief, Pulse, TransitionRates
from telegraphctl.rng import PortableRandom

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def full_generator(rates: TransitionRates) -> np.ndarray:
    """Generator of the simulated chain including continuous depumping
    (channel rates mirror the repump multiplicities); independent oracle for
    transition-frequency tests."""
    up0 = 2.0 * rates.r_repump
    up1 = rates.r_repump
    down1 = rates.r10 + rates.r_depump
    down2 = rates.r21 + 2.0 * rates.r_depump
    return np.array(
        [
            [-up0, down1, 0.0],
            [up0, -down1 - up1, down2],
            [0.0, up1, -down2],
        ]
    )


def stationary_from_nullspace(gen: np.ndarray) -> np.ndarray:
    """Stationary distribution via an independent linear solve."""
    a = np.vstack([gen, np.ones(3)])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    p, *_ = np.linalg.lstsq(a, b, rcond=None)
    return p


def mp_expm_generator(r21: float, r10: float, rr: float, dt: float) -> np.ndarray:
    """exp(dt*G) of the belief model's generator at 40 significant digits
    (mpmath), rounded once to float64; an oracle independent of the
    float arithmetic under test."""
    with mpmath.workdps(40):
        r21, r10, rr, dt = (mpmath.mpf(v) for v in (r21, r10, rr, dt))
        g = mpmath.matrix(
            [[-2 * rr, r10, 0], [2 * rr, -r10 - rr, r21], [0, rr, -r21]]
        )
        e = mpmath.expm(g * dt)
        return np.array([[float(e[i, j]) for j in range(3)] for i in range(3)])


def splitmix64_finalize(z: int) -> int:
    """SplitMix64 output function on Python ints, written from the
    published constants (Steele, Lea and Flood, OOPSLA 2014)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class ScalarSplitMix64(PortableRandom):
    """Reference stream: one SplitMix64 step and one finalize per draw, and
    the textbook Knuth loop through ``uniform``. The higher samplers are
    inherited, so they run on this scalar stream; ``drawn`` counts outputs."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self._scalar_state = seed & _MASK64
        self.drawn = 0

    def next_u64(self) -> int:
        self._scalar_state = (self._scalar_state + _GOLDEN_GAMMA) & _MASK64
        self.drawn += 1
        return splitmix64_finalize(self._scalar_state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def _poisson_small(self, mean: float) -> int:
        limit = math.exp(-mean)
        k = 0
        prod = self.uniform()
        while prod > limit:
            k += 1
            prod *= self.uniform()
        return k


def reference_normalize(weights) -> tuple[float, float, float]:
    """Normalization to a unit-sum triple written out step by step: an
    exactly unit fsum is kept, otherwise divide by the plain sum and nudge
    the largest entry until the fsum is 1.0; components below 1e-300 are
    then floored to zero and the triple renormalized once more."""

    def pinned(w):
        if math.fsum(w) == 1.0:
            return list(w)
        s = w[0] + w[1] + w[2]
        p = [x / s for x in w]
        total = math.fsum(p)
        i = p.index(max(p))
        for _ in range(4):
            if total == 1.0:
                break
            p[i] -= total - 1.0
            total = math.fsum(p)
        return p

    p = pinned([float(x) for x in weights])
    if any(0.0 < x < 1e-300 for x in p):
        p = pinned([0.0 if x < 1e-300 else x for x in p])
    return tuple(p)


_TIE_EPS = 1e-12


def reference_optimal_pulse_probability(
    belief: Belief, target: Belief, direction: Pulse
) -> tuple[float, float]:
    """(T*, k*) minimizing the post-pulse Kolmogorov distance over T in
    [0, 1], by the plain enumeration: collect every root of the three
    component-minus-target quadratics, sort the kinks in (0, 1) together
    with 0 and 1, add the vertex of each convex piece (its sign pattern read
    at the midpoint), sort all candidates again, and return the first whose
    distance is within 1e-12 of the least."""
    b0, b1, b2 = belief
    if direction == Pulse.REPUMP:
        c02, c01, c00 = b0, -2.0 * b0, b0
        c12, c11, c10 = -2.0 * b0, 2.0 * b0 - b1, b1
        c22, c21, c20 = b0, b1, b2
    elif direction == Pulse.DEPUMP:
        c02, c01, c00 = b2, b1, b0
        c12, c11, c10 = -2.0 * b2, 2.0 * b2 - b1, b1
        c22, c21, c20 = b2, -2.0 * b2, b2
    else:
        raise ValueError("direction must be REPUMP or DEPUMP")
    g0, g1, g2 = target
    roots = (
        _quadratic_roots(c02, c01, c00 - g0)
        + _quadratic_roots(c12, c11, c10 - g1)
        + _quadratic_roots(c22, c21, c20 - g2)
    )
    kinks = sorted([0.0, 1.0] + [r for r in roots if 0.0 < r < 1.0])
    candidates = kinks[:]
    for lo, hi in zip(kinks, kinks[1:]):
        mid = 0.5 * (lo + hi)
        s0 = 1.0 if (c02 * mid + c01) * mid + c00 - g0 >= 0.0 else -1.0
        s1 = 1.0 if (c12 * mid + c11) * mid + c10 - g1 >= 0.0 else -1.0
        s2 = 1.0 if (c22 * mid + c21) * mid + c20 - g2 >= 0.0 else -1.0
        a2 = 0.0 + s0 * c02 + s1 * c12 + s2 * c22
        a1 = 0.0 + s0 * c01 + s1 * c11 + s2 * c21
        if a2 > 0.0:
            v = -a1 / (2.0 * a2)
            if lo < v < hi:
                candidates.append(v)
    candidates.sort()
    k_vals = [
        0.5
        * (
            abs((c02 * t + c01) * t + c00 - g0)
            + abs((c12 * t + c11) * t + c10 - g1)
            + abs((c22 * t + c21) * t + c20 - g2)
        )
        for t in candidates
    ]
    k_tie = min(k_vals) + _TIE_EPS
    for t, k in zip(candidates, k_vals):
        if k <= k_tie:
            return t, k
    raise AssertionError("unreachable")


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c, in the cancellation-free form."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def reference_decide_action_optimal(belief: Belief, target: Belief) -> ControlDecision:
    """The optimal policy written from the reference minimizer, the checked
    distance and the cached pulse transform: no pulse on a tie with the
    best pulse, then repumping on a tie between the directions."""
    k_none = kolmogorov_distance(target, belief)
    t_r, k_r = reference_optimal_pulse_probability(belief, target, Pulse.REPUMP)
    t_d, k_d = reference_optimal_pulse_probability(belief, target, Pulse.DEPUMP)
    if k_none <= min(k_r, k_d) + _TIE_EPS:
        return ControlDecision(Pulse.NONE, 0.0, belief, k_none, k_none)
    if k_r <= k_d + _TIE_EPS:
        action, t, k = Pulse.REPUMP, t_r, k_r
    else:
        action, t, k = Pulse.DEPUMP, t_d, k_d
    return ControlDecision(action, t, pulsed_belief(belief, t, action), k_none, k)
