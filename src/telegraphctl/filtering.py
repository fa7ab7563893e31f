"""Per-bin belief updates: Bayes posterior from counts, rate-equation
prior propagation, and pulse matrices with the pulse-conditioned belief
transforms built on them.

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
each (rates, dt, method) transition matrix and each (T, direction) pulse
matrix is built once and shared read-only; the optimal policy picks a new
T on every bin, so its pulse matrix is built afresh (pulsed_belief_once).
The per-count log-likelihoods come from the memoized table in
model.log_likelihoods.

The per-bin steps (propagate_prior, posterior_update, pulsed_belief, and
through them run_filter and trace_log_likelihood) normalize with
model.normalize_unchecked: normalize's arithmetic without its input
checks, used only on a stochastic matrix times a finite belief whose
product is finite and non-negative, and on Bayes weights from a finite,
non-negative prior. A belief that is not finite raises ValueError, as
do a negative prior component in the Bayes update and a product that is
not a valid weight triple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AllZeroError, GuardViolatedError
from .model import (
    Belief,
    PhotonCountModel,
    Pulse,
    TraceRecord,
    TransitionRates,
    exit_rates,
    log_likelihoods,
    normalize,
    normalize_unchecked,
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
    and a slice equals the scalar call's bits. dt must be >= 0.
    """
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
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
    adjusts).
    """
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
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


@functools.lru_cache(maxsize=32)
def transition_matrix(
    r21: float, r10: float, rr: float, dt: float, method: str
) -> np.ndarray:
    """One bin's belief transition matrix, step_matrix for "linear" and
    expm for "exact", built once per (rates, dt, method) and
    shared read-only. This is the one check of ``method``: any other value
    raises ValueError. A guard violation raises on every call, since
    exceptions are not cached."""
    if method == "linear":
        m = step_matrix(TransitionRates(r21, r10, rr), dt)
    elif method == "exact":
        m = expm(r21, r10, rr, dt)
    else:
        raise ValueError(f"unknown propagation method {method!r}")
    m.flags.writeable = False
    return m


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

    def __post_init__(self):
        # the step matrix build rejects an unknown propagation method and,
        # for "linear", a violated guard
        r = self.rates
        transition_matrix(r.r21, r.r10, r.r_repump, self.bin_time, self.propagation)


def _bayes_weights(
    prior: Belief, logl: Sequence[float]
) -> tuple[float, float, float, float]:
    """Log-domain Bayes weights exp(log p(n | a) + log prior_a - m), whose
    largest is 1.0, and their log scale m. A negative prior component
    raises ValueError."""
    l0, l1, l2 = logl
    p0, p1, p2 = prior
    s0 = _zero_weight(p0) if p0 <= 0.0 or l0 == -math.inf else l0 + math.log(p0)
    s1 = _zero_weight(p1) if p1 <= 0.0 or l1 == -math.inf else l1 + math.log(p1)
    s2 = _zero_weight(p2) if p2 <= 0.0 or l2 == -math.inf else l2 + math.log(p2)
    m = max(s0, s1, s2)
    if m == -math.inf:
        raise AllZeroError("observation has zero likelihood under every supported state")
    return (
        0.0 if s0 == -math.inf else math.exp(s0 - m),
        0.0 if s1 == -math.inf else math.exp(s1 - m),
        0.0 if s2 == -math.inf else math.exp(s2 - m),
        m,
    )


def _zero_weight(p: float) -> float:
    """The log weight -inf of a state that the prior or the count rules out;
    a negative prior component is not a probability, and raises."""
    if p < 0.0:
        raise ValueError(f"belief components must be >= 0, got {p!r}")
    return -math.inf


def _posterior(prior: Belief, w0: float, w1: float, w2: float) -> Belief:
    """The Bayes weights normalized. They lie in [0, 1] unless the prior
    holds a NaN or an infinity, which normalize then rejects."""
    p0, p1, p2 = prior
    if p0 < math.inf and p1 < math.inf and p2 < math.inf:  # false for NaN
        return normalize_unchecked(w0, w1, w2)
    return normalize((w0, w1, w2))


def posterior_update(prior: Belief, n: int, model: PhotonCountModel) -> Belief:
    """Bayes update: posterior proportional to p(n | alpha) * prior, in the
    log domain so extreme counts cannot underflow unless the posterior is
    genuinely all-zero. Equal log-likelihoods reproduce the prior up to
    roundoff; a delta prior is an exact fixed point for any observation."""
    w0, w1, w2, _ = _bayes_weights(prior, log_likelihoods(model, n))
    return _posterior(prior, w0, w1, w2)


def _stochastic_product(m: np.ndarray, belief: Belief) -> Belief:
    """m @ belief, normalized, for a stochastic, non-negative m: the product
    of a valid belief is finite and >= 0, so it takes normalize_unchecked;
    any other goes through normalize, which raises. A belief that is not
    finite is rejected before the product, where inf * 0 would warn.
    ndarray.dot is the same dgemv, and gives the same bits, as
    m @ np.asarray(belief); numpy converts a plain tuple faster than the
    Belief subclass."""
    b0, b1, b2 = belief
    if not (math.isfinite(b0) and math.isfinite(b1) and math.isfinite(b2)):
        raise ValueError(f"belief must be finite, got {tuple(belief)!r}")
    w0, w1, w2 = w = m.dot((b0, b1, b2)).tolist()
    if 0.0 <= w0 < math.inf and 0.0 <= w1 < math.inf and 0.0 <= w2 < math.inf:
        return normalize_unchecked(w0, w1, w2)
    return normalize(w)


def propagate_prior(
    posterior: Belief, rates: TransitionRates, dt: float, method: str = "linear"
) -> Belief:
    """Advance a belief by dt with the rate-equation model.

    method="linear" is the per-bin linearized step (guard enforced);
    method="exact" uses the matrix exponential and serves as the oracle.
    """
    if dt < 0.0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0:
        return posterior
    m = transition_matrix(
        float(rates.r21), float(rates.r10), float(rates.r_repump), dt, method
    )
    return _stochastic_product(m, posterior)


def build_pulse_matrix(transition_probability: float, direction: Pulse) -> np.ndarray:
    """Column-stochastic action of one pulse on a belief vector.

    For repumping, column alpha holds the binomial flip distribution of the
    2-alpha addressable lower-level atoms over the reachable states, and the
    top state is absorbing; depumping is the index-reversed mirror. Column
    sums are exactly 1.0 in floating point and entries are non-negative.
    The matrix is the transpose of a C-ordered array (Fortran order), the
    layout every pulse product has used. Not cached: pulse_matrix is the
    cached form, for a T fixed for a run.
    """
    t = transition_probability
    if not 0.0 <= t <= 1.0:
        raise ValueError("transition probability must be in [0, 1]")
    u = 1.0 - t
    col_both = pin_unit_sum([u * u, 2.0 * t * u, t * t])  # two addressable atoms
    col_one = pin_unit_sum([0.0, u, t])  # one addressable atom
    if direction == _REPUMP:
        return np.array([col_both, col_one, [0.0, 0.0, 1.0]]).T
    if direction == _DEPUMP:
        return np.array([[1.0, 0.0, 0.0], col_one[::-1], col_both[::-1]]).T
    raise ValueError("direction must be REPUMP or DEPUMP")


@functools.lru_cache(maxsize=32)
def pulse_matrix(transition_probability: float, direction: Pulse) -> np.ndarray:
    """build_pulse_matrix, built once per (T, direction) and shared
    read-only; invalid arguments raise on every call, since exceptions are
    not cached."""
    m = build_pulse_matrix(transition_probability, direction)
    m.flags.writeable = False
    return m


def pulsed_belief(belief: Belief, t: float, direction: Pulse) -> Belief:
    """Belief after one pulse of a T fixed for a run, through the cached
    pulse_matrix(t, direction). That matrix is exactly stochastic and
    non-negative by construction, so it is not re-checked and the product
    needs no clamping."""
    return _stochastic_product(pulse_matrix(t, direction), belief)


def pulsed_belief_once(belief: Belief, t: float, direction: Pulse) -> Belief:
    """pulsed_belief for a T chosen afresh on each bin, as the optimal
    policy's is: the same matrix and bits, built without the cache."""
    return _stochastic_product(build_pulse_matrix(t, direction), belief)


def _forward(records: Sequence[TraceRecord], config: FilterConfig):
    """(record, prior, posterior) for each bin of a recorded trace.

    Per bin: propagate the previous belief, apply the Bayes update with the
    recorded count, and finally fold in the recorded pulse (if any) so the
    next prior reflects it. The yielded posterior is the post-measurement
    one (before the pulse), which is what occupancy statistics and the
    controller act on. An AllZeroError names the bin it arose in.
    """
    rates, dt, method = config.rates, config.bin_time, config.propagation
    model = config.photon_model
    belief = config.initial_belief
    try:
        for rec in records:
            prior = propagate_prior(belief, rates, dt, method)
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
    t = config.repump_t if pulse == _REPUMP else config.depump_t
    if t is None:
        raise ValueError(
            "trace carries pulse events but FilterConfig does not define the "
            "matching transition probability"
        )
    return pulsed_belief(post, t, pulse)


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
