"""Independent oracles shared by the test modules."""

import math

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
