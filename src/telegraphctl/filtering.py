"""Per-bin belief updates: Bayes posterior from counts, rate-equation
prior propagation, and pulse matrices with the pulse-conditioned belief
product built on them.

Propagation applies one bin's transition matrix for the rate-equation
generator G, whose channel rates come from model.exit_rates. There are
two builders, and transition_matrix is the one place that chooses between
them by ``method``. step_matrix is the linearized step I + dt*G for one
rate triple, valid while guard_load, the largest exit total times dt, is
below 0.5; expm is the exact step exp(dt*G) for rates broadcast together,
by uniformization: a Taylor series of non-negative terms, scaled and
squared, so every entry is computed without cancellation. The rate grid
(rategrid) always uses the exact builder. Continuous depumping is
deliberately absent from G (the builders leave exit_rates' r_depump at 0:
in the belief model depumping acts through pulses only) while the
simulator supports it, which keeps the mismatch testable.
Rates, dt and the pulse transition probabilities are fixed for a run, so
FilterConfig builds its transition matrix and its pulse matrices once,
when it checks them, and keeps them read-only; every bin's step reads
them from the config. The per-count log-likelihoods come from the
memoized table in model.log_likelihoods.

Every per-bin step checks its belief with model.check_belief and ends
in model.normalize_triple. FilterConfig checks its initial belief and
builds its matrices when it is made, so a bad config fails before a bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import AllZeroError, GuardViolatedError
from .model import (
    Belief,
    PhotonCountModel,
    Pulse,
    TraceRecord,
    TransitionRates,
    check_belief,
    check_nonneg,
    exit_rates,
    log_likelihoods,
    normalize_triple,
    pin_unit_sum,
)

GUARD_LIMIT = 0.5

# Read on every pulse: a module name is cheaper to look up than an enum member.
_NONE, _REPUMP, _DEPUMP = Pulse.NONE, Pulse.REPUMP, Pulse.DEPUMP


def guard_load(rates: TransitionRates, dt: float) -> float:
    """Linearization load, the largest exit total of G times dt; must stay
    below GUARD_LIMIT."""
    up0, up1, down1, down2 = exit_rates(rates.r21, rates.r10, rates.r_repump)
    return max(up0, up1 + down1, down2) * dt


# Taylor terms of exp(B) for ||B||_1 = x < 1. The tests hold every entry
# to 1e-13 relative against a 40-digit oracle; 12 terms give 1.5e-9.
_TAYLOR_TERMS = 18


def _square(m: np.ndarray) -> np.ndarray:
    """m @ m per cell for a (3, 3, n) stack of column-stochastic matrices,
    written out entry by entry, with each column rescaled to unit sum: the
    square of a stochastic matrix is stochastic, and the rescaling keeps
    rounding in the column sums from doubling with every squaring."""
    out = np.empty_like(m)
    for i in range(3):
        np.multiply(m[i, 0], m[0], out=out[i])
        out[i] += m[i, 1] * m[1]
        out[i] += m[i, 2] * m[2]
    out /= out[0] + out[1] + out[2]
    return out


def expm(r21, r10, r_repump, dt: float) -> np.ndarray:
    """exp(dt*G) for rates broadcast together, stacked as (..., 3, 3), by
    uniformization with scaling and squaring.

    Per cell, c = dt * (largest exit total) and s >= 0 is the least
    power of two with x = c / 2**s < 1. B = (dt / 2**s) * G + x*I is
    non-negative and its columns sum to x. The Taylor series of exp(B),
    summed by Horner to a fixed number of terms, has columns summing to
    the same series of exp(x); dividing by those column sums gives
    exp(dt*G / 2**s), which is squared s times. Every term, product and
    sum adds non-negative numbers, so no entry loses relative accuracy and
    none needs clamping; dt = 0 or all-zero rates give the identity
    exactly, and a dt far beyond every relaxation time gives the
    stationary distribution in every column.
    The entries are computed elementwise over cells (no matrix products or
    reductions), so a cell's bits do not depend on the rest of the batch
    and a slice equals the scalar call's bits. dt must be finite and >= 0.
    """
    check_nonneg("dt", dt)
    r21, r10, rr = np.broadcast_arrays(
        *(np.asarray(r, dtype=float) for r in (r21, r10, r_repump))
    )
    shape = r21.shape
    up0, up1, down1, down2 = exit_rates(r21.ravel(), r10.ravel(), rr.ravel())
    d1 = up1 + down1
    dmax = np.maximum(np.maximum(up0, d1), down2)
    s = np.maximum(np.frexp(dt * dmax)[1], 0)
    h = np.ldexp(dt, -s)
    x = h * dmax  # h * d <= x for every diagonal rate d, so B >= 0
    n = x.size
    b00, b10, b01, b11, b21, b12, b22 = (
        x - h * up0, h * up0, h * down1, x - h * d1,
        h * up1, h * down2, x - h * down2,
    )
    t = np.zeros((3, 3, n))
    t[0, 0], t[1, 0], t[0, 1], t[1, 1] = b00, b10, b01, b11
    t[2, 1], t[1, 2], t[2, 2] = b21, b12, b22
    # Horner: t <- I + B t / k for k = N, ..., 1 (the first step from t = I)
    t /= _TAYLOR_TERMS
    t.reshape(9, n)[::4] += 1.0  # the diagonal entries
    out = np.empty_like(t)
    tmp = np.empty((3, n))
    for k in range(_TAYLOR_TERMS - 1, 0, -1):
        np.multiply(b00, t[0], out=out[0])
        out[0] += np.multiply(b01, t[1], out=tmp)
        np.multiply(b10, t[0], out=out[1])
        out[1] += np.multiply(b11, t[1], out=tmp)
        out[1] += np.multiply(b12, t[2], out=tmp)
        np.multiply(b21, t[1], out=out[2])
        out[2] += np.multiply(b22, t[2], out=tmp)
        out /= k
        out.reshape(9, n)[::4] += 1.0
        t, out = out, t
    t /= t[0] + t[1] + t[2]
    for j in range(int(s.max(initial=0))):
        more = s > j  # cells that still need squaring
        t[:, :, more] = _square(t[:, :, more])
    return np.moveaxis(t, (0, 1), (-2, -1)).reshape(shape + (3, 3))


def step_matrix(rates: TransitionRates, dt: float) -> np.ndarray:
    """Linearized one-step transition matrix I + dt*G.

    The guard is checked first: GuardViolatedError unless the load is
    below GUARD_LIMIT. Columns are pinned to sum to exactly 1.0 in floating
    point; entries are non-negative whenever the guard holds, which also
    makes each column's diagonal its largest entry (the one the pinning
    adjusts). dt must be finite and >= 0.
    """
    check_nonneg("dt", dt)
    load = guard_load(rates, dt)
    if not load < GUARD_LIMIT:
        raise GuardViolatedError(
            f"linearized propagation invalid: max rate * dt = {load:.3g} >= {GUARD_LIMIT}"
        )
    up0, up1, down1, down2 = exit_rates(rates.r21, rates.r10, rates.r_repump)
    a, b, c, d = up0 * dt, down1 * dt, up1 * dt, down2 * dt
    cols = ([1.0 - a, a, 0.0], [b, 1.0 - (b + c), c], [0.0, d, 1.0 - d])
    return np.array(
        [[0.0 if x == 0.0 else x for x in pin_unit_sum(col)] for col in cols]
    ).T


def transition_matrix(
    r21: float, r10: float, rr: float, dt: float, method: str
) -> np.ndarray:
    """One bin's belief transition matrix, step_matrix for "linear" and
    expm for "exact". This is the one check of ``method``: any other value
    raises ValueError."""
    if method == "linear":
        return step_matrix(TransitionRates(r21, r10, rr), dt)
    if method == "exact":
        return expm(r21, r10, rr, dt)
    raise ValueError(f"unknown propagation method {method!r}")


def _hold(owner, name: str, m: Optional[np.ndarray]) -> None:
    """Keep m read-only as owner.name, on a frozen dataclass."""
    if m is not None:
        m.flags.writeable = False
    object.__setattr__(owner, name, m)


@dataclass(frozen=True)
class FilterConfig:
    photon_model: PhotonCountModel
    rates: TransitionRates
    bin_time: float
    initial_belief: Belief = Belief(0.0, 0.0, 1.0)
    propagation: str = "linear"  # or "exact"
    # Per-atom transition probabilities used to fold recorded pulses into the
    # belief; only needed when traces carry pulse events.
    repump_t: Optional[float] = None
    depump_t: Optional[float] = None
    # Built from the fields above when the config is made, and read-only:
    # one bin's transition matrix, and the pulse matrix of each T that is set.
    transition_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    repump_matrix: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    depump_matrix: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the matrix builds reject an unknown propagation method, a bad
        # bin_time or T and, for "linear", a violated guard
        check_belief(self.initial_belief)
        r = self.rates
        step = transition_matrix(
            float(r.r21), float(r.r10), float(r.r_repump), self.bin_time, self.propagation
        )
        _hold(self, "transition_matrix", step)
        for name, t, direction in (
            ("repump_matrix", self.repump_t, _REPUMP),
            ("depump_matrix", self.depump_t, _DEPUMP),
        ):
            _hold(self, name, None if t is None else build_pulse_matrix(t, direction))


def _bayes_weights(
    prior: Belief, logl: Sequence[float]
) -> tuple[float, float, float, float]:
    """Log-domain Bayes weights exp(log p(n | a) + log prior_a - m), whose
    largest is 1.0, and their log scale m, for a checked prior."""
    l0, l1, l2 = logl
    p0, p1, p2 = prior
    s0 = -math.inf if p0 == 0.0 or l0 == -math.inf else l0 + math.log(p0)
    s1 = -math.inf if p1 == 0.0 or l1 == -math.inf else l1 + math.log(p1)
    s2 = -math.inf if p2 == 0.0 or l2 == -math.inf else l2 + math.log(p2)
    m = max(s0, s1, s2)
    if m == -math.inf:
        raise AllZeroError("observation has zero likelihood under every supported state")
    return (
        0.0 if s0 == -math.inf else math.exp(s0 - m),
        0.0 if s1 == -math.inf else math.exp(s1 - m),
        0.0 if s2 == -math.inf else math.exp(s2 - m),
        m,
    )


def posterior_update(prior: Belief, n: int, model: PhotonCountModel) -> Belief:
    """Bayes update: posterior proportional to p(n | alpha) * prior, in the
    log domain so extreme counts cannot underflow unless the posterior is
    genuinely all-zero. Equal log-likelihoods reproduce the prior up to
    roundoff; a delta prior is an exact fixed point for any observation."""
    w0, w1, w2, _ = _bayes_weights(check_belief(prior), log_likelihoods(model, n))
    return normalize_triple(w0, w1, w2)


def _stochastic_product(m: np.ndarray, belief: Belief) -> Belief:
    """m @ belief, normalized, for a stochastic, non-negative m; the belief
    is checked first, as inf * 0 would warn and a negative entry cancel.
    ndarray.dot gives the bits of m @ np.asarray(belief), and numpy converts
    a plain tuple faster than the Belief subclass."""
    return normalize_triple(*m.dot(check_belief(belief)).tolist())


def propagate_prior(posterior: Belief, config: FilterConfig) -> Belief:
    """Advance a belief by one bin of the config with the rate-equation
    model, through the transition matrix the config holds: the linearized
    step (guard checked when the config was made) or, for
    propagation="exact", the matrix exponential."""
    return _stochastic_product(config.transition_matrix, posterior)


def build_pulse_matrix(transition_probability: float, direction: Pulse) -> np.ndarray:
    """Column-stochastic action of one pulse on a belief vector.

    For repumping, column alpha holds the binomial flip distribution of the
    2-alpha addressable lower-level atoms over the reachable states, and the
    top state is absorbing; depumping is the index-reversed mirror. Column
    sums are exactly 1.0 in floating point and entries are non-negative.
    The matrix is the transpose of a C-ordered array (Fortran order), the
    layout every pulse product has used.
    """
    t = transition_probability
    if not 0.0 <= t <= 1.0:
        raise ValueError("transition probability must be in [0, 1]")
    u = 1.0 - t
    col_both = pin_unit_sum([u * u, 2.0 * t * u, t * t])  # two addressable atoms
    col_one = pin_unit_sum([0.0, u, t])  # one addressable atom
    # one flat list is cheaper for np.array than nested ones, and gives the
    # same values and layout
    if direction == _REPUMP:
        return np.array(col_both + col_one + [0.0, 0.0, 1.0]).reshape(3, 3).T
    if direction == _DEPUMP:
        return np.array([1.0, 0.0, 0.0] + col_one[::-1] + col_both[::-1]).reshape(3, 3).T
    raise ValueError("direction must be REPUMP or DEPUMP")


def pulsed_belief(belief: Belief, matrix: np.ndarray) -> Belief:
    """Belief after one pulse, given its pulse matrix (build_pulse_matrix).
    That matrix is exactly stochastic and non-negative by construction, so
    it is not re-checked and the product needs no clamping."""
    return _stochastic_product(matrix, belief)


def _forward(records: Sequence[TraceRecord], config: FilterConfig):
    """(record, prior, posterior) for each bin of a recorded trace.

    Per bin: propagate the previous belief, apply the Bayes update with the
    recorded count, and finally fold in the recorded pulse (if any) so the
    next prior reflects it. The yielded posterior is the post-measurement
    one (before the pulse), which is what occupancy statistics and the
    controller act on. An AllZeroError names the bin it arose in.
    """
    model = config.photon_model
    belief = config.initial_belief
    try:
        for rec in records:
            prior = propagate_prior(belief, config)
            post = posterior_update(prior, rec.photon_count, model)
            yield rec, prior, post
            belief = _fold_pulse(post, rec.pulse, config)
    except AllZeroError as exc:
        raise AllZeroError(f"bin {rec.bin_index}: {exc}") from None


def run_filter(records: Sequence[TraceRecord], config: FilterConfig) -> list[Belief]:
    """Posterior belief per bin for a recorded trace (see _forward)."""
    return [post for _, _, post in _forward(records, config)]


def _fold_pulse(post: Belief, pulse: Pulse, config: FilterConfig) -> Belief:
    if pulse == _NONE:
        return post
    m = config.repump_matrix if pulse == _REPUMP else config.depump_matrix
    if m is None:
        raise ValueError(
            "trace carries pulse events but FilterConfig does not define the "
            "matching transition probability"
        )
    return pulsed_belief(post, m)


def trace_log_likelihood(records: Sequence[TraceRecord], config: FilterConfig) -> float:
    """Total predictive log-likelihood sum_i log p(n_i | n_<i) under the
    filter model, the log normalizer of each bin's Bayes update summed;
    higher for the model that generated the data, and -inf for a trace
    with an impossible count."""
    total = 0.0
    try:
        for rec, prior, _ in _forward(records, config):
            logl = log_likelihoods(config.photon_model, rec.photon_count)
            w0, w1, w2, m = _bayes_weights(prior, logl)
            total += m + math.log(math.fsum((w0, w1, w2)))
    except AllZeroError:
        return -math.inf
    return total
