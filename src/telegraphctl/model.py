"""Core domain types and the per-bin photon-count observation model.

The hidden state is the number of atoms in the upper pseudo-spin level,
``alpha`` in {0, 1, 2}. More coupled atoms means lower cavity transmission,
so per-state mean counts must be strictly decreasing in alpha. Counts per
bin are Poisson by default; an over-dispersed negative-binomial family
(variance = fano * mean) models super-Poissonian broadening.

All types are immutable value types and all operations are pure. The
model is fixed for a run and a run sees few distinct counts, so the
per-count log-likelihood triple (log_likelihoods) is memoized: the filter,
the feedback controller and the rate grid read one shared table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple, Optional

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


def check_above(name: str, value: float, low: float = 0.0) -> float:
    """``value``, or ValueError unless it is finite and > low (NaN fails).
    This is the one check of a scalar parameter bounded away from ``low``."""
    if not low < value < math.inf:
        raise ValueError(f"{name} must be finite and > {low:g}, got {value!r}")
    return value


def check_nonneg(name: str, value: float) -> float:
    """``value``, or ValueError unless it is finite and >= 0 (NaN fails).
    This is the one check of a non-negative scalar parameter."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


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


class Belief(NamedTuple):
    """Occupation probabilities (p0, p1, p2) over the three joint states."""

    p0: float
    p1: float
    p2: float

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)

    def argmax(self) -> int:
        """Index of the largest component, the first on ties, as
        max(STATES, key=self.__getitem__) picks it."""
        p0, p1, p2 = self
        if p1 > p0:
            return 2 if p2 > p1 else 1
        return 2 if p2 > p0 else 0


def check_belief(belief) -> tuple[float, float, float]:
    """The components (b0, b1, b2) of a belief, or ValueError unless each is
    finite and >= 0. This is the one check of a belief."""
    b0, b1, b2 = belief
    if not (0.0 <= b0 < math.inf and 0.0 <= b1 < math.inf and 0.0 <= b2 < math.inf):
        raise ValueError(f"belief must be finite and >= 0, got {tuple(belief)!r}")
    return b0, b1, b2


def normalize_triple(w0: float, w1: float, w2: float) -> Belief:
    """Belief proportional to three Python-float weights, each finite and
    >= 0: the first that is not raises ValueError, and a zero sum raises
    AllZeroError (numerical collapse; the caller must then recompute in the
    log domain). This is the one check of a weight triple."""
    if not (0.0 <= w0 < math.inf and 0.0 <= w1 < math.inf and 0.0 <= w2 < math.inf):
        # the comparisons are also false for NaN
        x = next(x for x in (w0, w1, w2) if not 0.0 <= x < math.inf)
        raise ValueError(f"weights must be finite and >= 0, got {x!r}")
    if math.fsum((w0, w1, w2)) != 1.0:  # a unit sum is kept: idempotent
        s = w0 + w1 + w2
        if s == 0.0:
            raise AllZeroError("weights sum to zero")
        w0, w1, w2 = pin_unit_sum([w0 / s, w1 / s, w2 / s])
    if 0.0 < w0 < _CLAMP or 0.0 < w1 < _CLAMP or 0.0 < w2 < _CLAMP:
        # Floor denormal-scale components, then renormalize once more: the
        # floored sum is <= 1, so no kept component drops below the clamp
        # and this call floors nothing.
        return normalize_triple(*(0.0 if x < _CLAMP else x for x in (w0, w1, w2)))
    return Belief(w0, w1, w2)


def normalize(weights: Iterable[float]) -> Belief:
    """normalize_triple for any three weights that float() converts."""
    w = [float(x) for x in weights]
    if len(w) != 3:
        raise ValueError("expected exactly three weights")
    return normalize_triple(*w)


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
            check_nonneg(name, getattr(self, name))


def exit_rates(r21, r10, r_repump, r_depump=0.0):
    """The chain's channel rates (up0, up1, down1, down2): 0->1, 1->2, 1->0
    and 2->1, elementwise for floats or numpy arrays. This is the one place
    they are written. Repumping addresses the atoms in the lower level (two
    in state 0, one in state 1); decay and depumping those in the upper
    level (one in state 1, two in state 2), so depumping mirrors the repump
    multiplicity. The generator G has these off the diagonal and minus each
    column's exit total on it. The belief model leaves r_depump at 0
    (depumping acts there through pulses only); the simulator passes it."""
    return 2.0 * r_repump, r_repump, r10 + r_depump, r21 + 2.0 * r_depump


@dataclass(frozen=True)
class PhotonCountModel:
    """Per-state count distributions p(n | alpha) for one bin.

    mean_counts are counts/bin for alpha = 0, 1, 2 and must be strictly
    decreasing (more coupled atoms transmit less). family is "poisson" or
    "overdispersed"; the latter is a negative binomial with
    variance = fano * mean, which requires a fano that is finite and > 1;
    the Poisson family rejects a fano that is set.
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
        if self.fano is not None:
            check_above("fano", self.fano, 1.0)
            if self.family == "poisson":
                raise ValueError(f"the poisson family takes no fano, got {self.fano!r}")
        elif self.family == "overdispersed":
            raise ValueError("overdispersed family requires fano > 1")
        check_above("bin_time", self.bin_time)
        # log_likelihoods is memoized per (model, count), so hash once here
        # rather than in a generated __hash__ on every lookup. Only numbers
        # go in: str and None hashes vary between processes, and the value
        # travels with a pickled model.
        fano = 0.0 if self.fano is None else self.fano
        key = (m, self.family == "poisson", fano, self.bin_time)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def rescaled(self, bin_time: float) -> "PhotonCountModel":
        """Same count intensity expressed for a different bin length."""
        factor = check_above("bin_time", bin_time) / self.bin_time
        return PhotonCountModel(
            tuple(m * factor for m in self.mean_counts),
            family=self.family,
            fano=self.fano,
            bin_time=bin_time,
        )

    def log_likelihood(self, n: int, alpha: int) -> float:
        """log p(n | alpha); -inf where the pmf is exactly zero, and for a
        count too large for float arithmetic, whose pmf rounds to zero."""
        if n < 0:
            raise ValueError("photon count must be >= 0")
        check_state(alpha)
        mean = self.mean_counts[alpha]
        try:
            if self.family == "poisson":
                return _poisson_logpmf(n, mean)
            return _neg_binomial_logpmf(n, mean, self.fano)
        except OverflowError:
            return -math.inf


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


@functools.lru_cache(maxsize=1024)
def log_likelihoods(model: PhotonCountModel, n: int) -> tuple[float, float, float]:
    """log p(n | alpha) for all three states at once, memoized per
    (model, count); an invalid count raises on every call, since exceptions
    are not cached."""
    return tuple(model.log_likelihood(n, a) for a in STATES)


class _TraceRecordFields(NamedTuple):
    bin_index: int
    photon_count: int
    pulse: Pulse = Pulse.NONE
    true_state: Optional[int] = None


class TraceRecord(_TraceRecordFields):
    """One bin of a run. true_state is the hidden state the count was drawn
    from (before any end-of-bin pulse); None when ground truth is withheld.
    The constructor checks its values; ``TraceRecord._make`` builds a record
    from values that are valid by construction without checking them."""

    __slots__ = ()

    def __new__(
        cls,
        bin_index: int,
        photon_count: int,
        pulse: Pulse = Pulse.NONE,
        true_state: Optional[int] = None,
    ):
        if bin_index < 0:
            raise ValueError("bin_index must be >= 0")
        if photon_count < 0:
            raise ValueError("photon_count must be >= 0")
        if true_state is not None:
            check_state(true_state)
        return super().__new__(cls, bin_index, photon_count, pulse, true_state)
