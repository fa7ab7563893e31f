"""Independent oracles shared by the test modules."""

import math

import mpmath
import numpy as np

from telegraphctl.analytics import DwellStats
from telegraphctl.control import ControlDecision, kolmogorov_distance
from telegraphctl.errors import (
    AllZeroError,
    NeverReachedError,
    NoEpisodesError,
    TraceFormatError,
)
from telegraphctl.filtering import build_pulse_matrix, pulsed_belief
from telegraphctl.model import Belief, Pulse, TraceRecord, TransitionRates, pin_unit_sum
from telegraphctl.rategrid import (
    RATE_NAMES,
    RateGrid,
    RateMarginals,
    RatePosterior,
    _bayes_weights,
    _propagator,
    init_flat,
)
from telegraphctl.rng import PortableRandom
from telegraphctl.traceio import TRACE_HEADER

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


def reference_pulse_matrix(t: float, direction: Pulse) -> np.ndarray:
    """The pulse matrix built from nested column lists and transposed: the
    binomial flip columns of two and of one addressable atom, each pinned
    to an exact unit sum, and the absorbing column; depumping is the
    index-reversed mirror."""
    u = 1.0 - t
    col_both = pin_unit_sum([u * u, 2.0 * t * u, t * t])
    col_one = pin_unit_sum([0.0, u, t])
    if direction == Pulse.REPUMP:
        return np.array([col_both, col_one, [0.0, 0.0, 1.0]]).T
    return np.array([[1.0, 0.0, 0.0], col_one[::-1], col_both[::-1]]).T


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
    raise ValueError("no finite distance")  # NaN distances only


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
    distance and the pulse product: no pulse on a tie with the
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
    predicted = pulsed_belief(belief, build_pulse_matrix(t, action))
    return ControlDecision(action, t, predicted, k_none, k)


def reference_parse_trace(text: str) -> list[TraceRecord]:
    """Trace parsing through the checking constructors: an ``int`` call per
    field, the ``Pulse`` enum call and the checking ``TraceRecord``; any
    ValueError becomes a TraceFormatError naming the line."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != TRACE_HEADER:
        lineno = lines[0][0] if lines else 1
        raise TraceFormatError(
            f"line {lineno}: trace file must start with header {TRACE_HEADER!r}"
        )
    records = []
    prev_index = -1
    for lineno, ln in lines[1:]:
        try:
            parts = ln.split(",")
            if len(parts) != 4:
                raise ValueError("expected 4 comma-separated fields")
            idx, count, pulse, true_state = (int(p) for p in parts)
            if idx <= prev_index:
                raise ValueError("bin_index must be strictly increasing")
            records.append(
                TraceRecord(
                    idx,
                    count,
                    Pulse(pulse),
                    true_state=None if true_state == -1 else true_state,
                )
            )
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        prev_index = idx
    return records


def reference_grid_step(prop, joint: np.ndarray, out: np.ndarray, model, n: int) -> None:
    """The grid step in separate passes: the propagation einsum, one
    per-state sum, one scale by w / total (or, for a subnormal total,
    weight first and then divide)."""
    prop.apply(joint, out)
    w = _bayes_weights(model, n)
    slabs = out.reshape(3, -1)
    total = w @ slabs.sum(axis=1)
    if total >= np.finfo(float).tiny:
        slabs *= (w / total)[:, None]
        return
    slabs *= w[:, None]
    total = slabs.sum()
    if total <= 0.0:
        raise AllZeroError("grid mass underflowed to zero")
    slabs /= total


def reference_marginal_rates(grid: RateGrid) -> RateMarginals:
    """Mean and rms of each rate from two gemvs over the whole grid, with
    each 1-D marginal normalized before its moments."""
    _, n21, n10, nr = grid.joint.shape
    rows = grid.joint.reshape(3 * n21, n10 * nr)
    by_r21 = (rows @ np.ones(n10 * nr)).reshape(3, n21)
    rest = (np.ones(3 * n21) @ rows).reshape(n10, nr)
    out = []
    for name, marg in zip(
        RATE_NAMES, (np.ones(3) @ by_r21, rest @ np.ones(nr), np.ones(n10) @ rest)
    ):
        v = grid.spec.axis(name).values()
        p = marg / marg.sum()
        mean, second = (np.array([v, v * v]) @ p).tolist()
        out.append(RatePosterior(mean, math.sqrt(max(second - mean * mean, 0.0))))
    return RateMarginals(*out)


def reference_run_estimation(
    records, spec, model, dt, stop_threshold=0.10, history_every=100
):
    """(stop_bin, marginals at the stop, rms history, final joint, every
    bin's marginals) from the separate-pass step, with all three marginals
    computed from the whole grid on every bin and the stop rule read from
    them; every axis must have a positive mean."""
    prop = _propagator(spec, dt)
    grid = init_flat(spec, Belief(0.0, 0.0, 1.0))
    stop_bin = at_stop = None
    history, per_bin = [], []
    for k, rec in enumerate(records, start=1):
        out = np.empty_like(grid.joint)
        reference_grid_step(prop, grid.joint, out, model, rec.photon_count)
        grid = RateGrid(spec, out)
        m = reference_marginal_rates(grid)
        per_bin.append(m)
        if stop_bin is None and all(p.rms / p.mean <= stop_threshold for p in m):
            stop_bin, at_stop = rec.bin_index, m
        if k % history_every == 0:
            history.append((rec.bin_index, m.r21.rms, m.r10.rms, m.r_repump.rms))
    return stop_bin, at_stop, history, grid.joint, per_bin


def _reference_dominance_runs(argmaxes, target):
    """Maximal [start, end) runs with argmax == target, split into complete
    runs and the count of boundary-truncated ones."""
    runs = []
    truncated = 0
    start = None
    for i, a in enumerate(argmaxes):
        if a == target and start is None:
            start = i
        elif a != target and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(argmaxes)))
    complete = []
    for s, e in runs:
        if s == 0 or e == len(argmaxes):
            truncated += 1
        else:
            complete.append((s, e))
    return complete, truncated


def reference_dwell_time(belief_traces, bin_time, target_alpha) -> DwellStats:
    """Mean duration of complete target-dominance runs, from the run scan
    that drops boundary runs as it goes."""
    durations = []
    truncated = 0
    seen_target = False
    for trace in belief_traces:
        argmaxes = [b.argmax() for b in trace]
        seen_target = seen_target or target_alpha in argmaxes
        complete, trunc = _reference_dominance_runs(argmaxes, target_alpha)
        truncated += trunc
        durations.extend((e - s) * bin_time for s, e in complete)
    if not seen_target:
        raise NoEpisodesError("target state never dominant in any trace")
    if not durations:
        return DwellStats(math.nan, math.nan, 0, truncated)
    tau = float(np.mean(durations))
    stderr = (
        float(np.std(durations, ddof=1) / math.sqrt(len(durations)))
        if len(durations) > 1
        else math.nan
    )
    return DwellStats(tau, stderr, len(durations), truncated)


def reference_time_to_target(belief_traces, bin_time, target_alpha) -> float:
    """Mean recovery time from a per-bin scan: the initial episode through
    the first dominant bin, then each interior run of non-dominant bins."""
    episodes = []
    for trace in belief_traces:
        argmaxes = [b.argmax() for b in trace]
        if target_alpha not in argmaxes:
            raise NeverReachedError("a trace never reached target dominance")
        first = argmaxes.index(target_alpha)
        episodes.append((first + 1) * bin_time)
        away = 0
        for a in argmaxes[first:]:
            if a == target_alpha:
                if away:
                    episodes.append(away * bin_time)
                    away = 0
            else:
                away += 1
    if not episodes:
        raise NoEpisodesError("no completed recovery episodes")
    return float(np.mean(episodes))
