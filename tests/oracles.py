"""Independent oracles shared by the test modules."""

import math

import mpmath
import numpy as np

from telegraphctl.model import TransitionRates
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
