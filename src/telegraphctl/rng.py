"""Seedable, portable random number generation.

Traces produced by the simulator are meant to be reproducible bit-for-bit
across platforms and reimplementable in other languages, so everything is
built on one small, fully documented generator instead of a platform RNG:

* Core stream: SplitMix64. State advances by the 64-bit golden-gamma
  constant 0x9E3779B97F4A7C15; each output is the standard two-round
  xor-multiply finalizer of the new state. All arithmetic is mod 2**64.
  Output k of a stream is ``finalize(seed + k * gamma)``, so outputs are
  generated in blocks, with the same bits and the same draw order as one
  at a time.
* Uniform doubles take the top 53 bits of one output: ``(x >> 11) * 2**-53``,
  giving values in [0, 1).
* Exponential: inverse CDF, ``-log1p(-u) / rate``.
* Poisson: Knuth's product-of-uniforms method, applied to chunks of the
  mean no larger than 30 so the ``exp(-mean)`` threshold never underflows
  (counts for independent chunks add exactly).
* Normal: Box-Muller pair from two uniforms; the second value of each pair
  is cached and returned by the next call.
* Gamma: Marsaglia-Tsang squeeze for shape >= 1; for shape < 1 the usual
  boost ``Gamma(shape+1) * U**(1/shape)``.
* Negative binomial with mean m and Fano factor f > 1: Poisson mixed over
  ``Gamma(shape=m/(f-1), scale=f-1)``.

Derived streams for ensemble members: ``derive_seed(seed, i)`` gives the
seed ``finalize(seed XOR ((i+1) * 0x9E3779B97F4A7C15 mod 2**64))`` where
``finalize`` is the SplitMix64 output function. Consumers must document
their draw order; the samplers above consume draws strictly in the order
stated.
"""

from __future__ import annotations

import math

import numpy as np

from .model import check_above, check_nonneg

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_POISSON_CHUNK = 30.0
_BLOCK = 512
# k * gamma mod 2**64 for k = 1.._BLOCK (uint64 array arithmetic wraps).
_BLOCK_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _finalize(z: int) -> int:
    """SplitMix64 output function (mod 2**64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Documented mixing function for per-trace seeds (order-independent)."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return _finalize((master_seed ^ (((index + 1) * _GAMMA) & _MASK64)) & _MASK64)


class PortableRandom:
    """SplitMix64-based stream with the samplers documented above."""

    def __init__(self, seed: int):
        # State after the last output of the current block; the block is
        # empty until the first draw.
        self._state = seed & _MASK64
        self._spare_normal: float | None = None
        self._outputs = np.empty(0, dtype=np.uint64)
        self._uniforms: list[float] = []
        self._pos = _BLOCK

    def _refill(self) -> None:
        """Generate the next _BLOCK outputs and their uniforms."""
        z = _BLOCK_STEPS + np.uint64(self._state)
        self._state = (self._state + _BLOCK * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._outputs = z
        self._uniforms = ((z >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()
        self._pos = 0

    def next_u64(self) -> int:
        i = self._pos
        if i == _BLOCK:
            self._refill()
            i = 0
        self._pos = i + 1
        return int(self._outputs[i])

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits: (x >> 11) * 2**-53."""
        i = self._pos
        if i == _BLOCK:
            self._refill()
            i = 0
        self._pos = i + 1
        return self._uniforms[i]

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def exponential(self, rate: float) -> float:
        check_above("rate", rate)  # before the draw
        return -math.log1p(-self.uniform()) / rate

    def _poisson_small(self, mean: float) -> int:
        # Knuth: multiply uniforms until the product drops below exp(-mean).
        # Reads the block directly (this is the simulator's hot loop);
        # 1.0 * u == u, so starting from 1.0 leaves every product unchanged.
        # The count is the uniforms read minus one; `start` moves back by a
        # block at each refill so that i - start stays the number read.
        limit = math.exp(-mean)
        prod = 1.0
        us = self._uniforms
        i = start = self._pos
        while True:
            if i == _BLOCK:
                self._refill()
                us = self._uniforms
                start -= _BLOCK
                i = 0
            prod *= us[i]
            i += 1
            if prod <= limit:
                self._pos = i
                return i - start - 1

    def poisson(self, mean: float) -> int:
        if check_nonneg("mean", mean) == 0.0:
            return 0
        total = 0
        while mean > _POISSON_CHUNK:
            total += self._poisson_small(_POISSON_CHUNK)
            mean -= _POISSON_CHUNK
        return total + self._poisson_small(mean)

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def gamma(self, shape: float) -> float:
        """Unit-scale Gamma(shape) variate (Marsaglia-Tsang)."""
        if check_above("shape", shape) < 1.0:
            u = self.uniform()
            while u == 0.0:
                u = self.uniform()
            return self.gamma(shape + 1.0) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = self.uniform()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v
            if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def neg_binomial(self, mean: float, fano: float) -> int:
        """Over-dispersed count with the given mean and variance = fano * mean."""
        check_above("fano", fano, 1.0)
        if check_nonneg("mean", mean) == 0.0:
            return 0
        shape = mean / (fano - 1.0)
        lam = self.gamma(shape) * (fano - 1.0)
        return self.poisson(lam)
