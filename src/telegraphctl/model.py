"""Core domain types and the per-bin photon-count observation model.

The hidden state is the number of atoms in the upper pseudo-spin level,
``alpha`` in {0, 1, 2}. More coupled atoms means lower cavity transmission,
so per-state mean counts must be strictly decreasing in alpha. Counts per
bin are Poisson by default; an over-dispersed negative-binomial family
(variance = fano * mean) models super-Poissonian broadening.

All types are immutable value types and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Optional

from .errors import AllZeroError

STATES = (0, 1, 2)

# Components below this are treated as exact zeros before renormalizing,
# so denormals cannot drag the filter.
_CLAMP = 1e-300


class Pulse(IntEnum):
    """Pulse channel recorded per bin (values match the trace file format)."""

    NONE = 0
    REPUMP = 1
    DEPUMP = 2


def check_state(alpha: int) -> int:
    if alpha not in STATES:
        raise ValueError(f"hidden state must be 0, 1 or 2, got {alpha!r}")
    return alpha


def pin_unit_sum(values: list[float]) -> list[float]:
    """Nudge the largest entry (in place) by a few ulp until the exactly
    rounded sum (math.fsum) is 1.0; the largest entry absorbs the correction
    without changing sign. Returns the same list."""
    total = math.fsum(values)
    if total != 1.0:
        i = values.index(max(values))
        for _ in range(4):
            values[i] -= total - 1.0
            total = math.fsum(values)
            if total == 1.0:
                break
    return values


def _pinned_triple(w0: float, w1: float, w2: float) -> tuple[float, float, float]:
    """Scale to unit sum, then pin the exact sum to 1.0; already-normalized
    input is returned unchanged, which makes normalization idempotent."""
    if math.fsum((w0, w1, w2)) == 1.0:
        return (w0, w1, w2)
    s = w0 + w1 + w2
    return tuple(pin_unit_sum([w0 / s, w1 / s, w2 / s]))


@dataclass(frozen=True)
class Belief:
    """Occupation probabilities (p0, p1, p2) over the three joint states."""

    p0: float
    p1: float
    p2: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.p2)

    def __getitem__(self, i: int) -> float:
        return self.as_tuple()[i]

    def argmax(self) -> int:
        t = self.as_tuple()
        return max(STATES, key=t.__getitem__)


def normalize(weights: Iterable[float]) -> Belief:
    """Belief proportional to the given non-negative weights.

    Raises AllZeroError when the weights sum to zero (numerical collapse);
    the caller must then recompute in the log domain.
    """
    w = [float(x) for x in weights]
    if len(w) != 3:
        raise ValueError("expected exactly three weights")
    for x in w:
        if not math.isfinite(x) or x < 0.0:
            raise ValueError(f"weights must be finite and >= 0, got {x!r}")
    if w[0] + w[1] + w[2] == 0.0:
        raise AllZeroError("weights sum to zero")
    p = _pinned_triple(*w)
    if any(0.0 < x < _CLAMP for x in p):
        # Floor denormal-scale components, then renormalize once more.
        p = _pinned_triple(*(0.0 if x < _CLAMP else x for x in p))
    return Belief(*p)


@dataclass(frozen=True)
class TransitionRates:
    """Continuous drive rates in 1/s: probe decays r21 (2->1) and r10 (1->0),
    plus continuous repumping and depumping."""

    r21: float
    r10: float
    r_repump: float
    r_depump: float = 0.0

    def __post_init__(self):
        for name in ("r21", "r10", "r_repump", "r_depump"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class PhotonCountModel:
    """Per-state count distributions p(n | alpha) for one bin.

    mean_counts are counts/bin for alpha = 0, 1, 2 and must be strictly
    decreasing (more coupled atoms transmit less). family is "poisson" or
    "overdispersed"; the latter is a negative binomial with
    variance = fano * mean.
    """

    mean_counts: tuple[float, float, float]
    family: str = "poisson"
    fano: Optional[float] = None
    bin_time: float = 1e-3

    def __post_init__(self):
        m = tuple(float(x) for x in self.mean_counts)
        object.__setattr__(self, "mean_counts", m)
        if len(m) != 3 or any(x < 0.0 or not math.isfinite(x) for x in m):
            raise ValueError("mean_counts must be three finite non-negative values")
        if not (m[0] > m[1] > m[2]):
            raise ValueError("mean_counts must be strictly decreasing in alpha")
        if self.family not in ("poisson", "overdispersed"):
            raise ValueError(f"unknown count family {self.family!r}")
        if self.family == "overdispersed":
            if self.fano is None or not self.fano > 1.0:
                raise ValueError("overdispersed family requires fano > 1")
        if not self.bin_time > 0.0:
            raise ValueError("bin_time must be > 0")

    def rescaled(self, bin_time: float) -> "PhotonCountModel":
        """Same count intensity expressed for a different bin length."""
        factor = bin_time / self.bin_time
        return PhotonCountModel(
            tuple(m * factor for m in self.mean_counts),
            family=self.family,
            fano=self.fano,
            bin_time=bin_time,
        )

    def log_likelihood(self, n: int, alpha: int) -> float:
        """log p(n | alpha); -inf where the pmf is exactly zero."""
        if n < 0:
            raise ValueError("photon count must be >= 0")
        check_state(alpha)
        mean = self.mean_counts[alpha]
        if self.family == "poisson":
            return _poisson_logpmf(n, mean)
        return _neg_binomial_logpmf(n, mean, self.fano)


def _poisson_logpmf(n: int, mean: float) -> float:
    if mean == 0.0:
        return 0.0 if n == 0 else -math.inf
    return n * math.log(mean) - mean - math.lgamma(n + 1)


def _neg_binomial_logpmf(n: int, mean: float, fano: float) -> float:
    if mean == 0.0:
        return 0.0 if n == 0 else -math.inf
    shape = mean / (fano - 1.0)  # number-of-successes parameter
    p = 1.0 / fano
    return (
        math.lgamma(n + shape)
        - math.lgamma(shape)
        - math.lgamma(n + 1)
        + shape * math.log(p)
        + n * math.log1p(-p)
    )


def likelihood(model: PhotonCountModel, n: int, alpha: int) -> float:
    """p(n | alpha) under the configured family (computed in log domain)."""
    return math.exp(model.log_likelihood(n, alpha))


def log_likelihoods(model: PhotonCountModel, n: int) -> tuple[float, float, float]:
    """log p(n | alpha) for all three states at once."""
    return tuple(model.log_likelihood(n, a) for a in STATES)


@dataclass(frozen=True)
class TraceRecord:
    """One bin of a run. true_state is the hidden state the count was drawn
    from (before any end-of-bin pulse); None when ground truth is withheld."""

    bin_index: int
    photon_count: int
    pulse: Pulse = Pulse.NONE
    true_state: Optional[int] = None

    def __post_init__(self):
        if self.bin_index < 0:
            raise ValueError("bin_index must be >= 0")
        if self.photon_count < 0:
            raise ValueError("photon_count must be >= 0")
        if self.true_state is not None:
            check_state(self.true_state)
