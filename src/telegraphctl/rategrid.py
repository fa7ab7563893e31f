"""Joint Bayesian inference of the hidden state and the transition rates on
a discrete grid.

The generalized distribution p(alpha, r21, r10, r_repump) lives on a dense
array of shape (3, n21, n10, nr). Each bin update propagates every rate
cell's state slice with that cell's exact one-bin step exp(dt*G) (there is
no linearized grid step: over thousands of bins its error biases the rates
low), multiplies by the count likelihood (which depends on alpha only; rate
information enters purely through the propagation coupling), and
renormalizes the whole grid. Likelihoods are computed in the log domain
and the grid is renormalized every bin, so thousands of multiplicative
updates cannot underflow.

The propagator holds every cell's matrix from filtering.expm, stored flat
as (3, 3, cells). Per bin that makes three passes over the grid: one
einsum over the propagator, one gemv for the (alpha, r21) row sums of the
propagated grid, and one scale of each state slab by w_alpha / total.
Weighted by w and summed over alpha, the row sums are the r21 marginal,
and their sum is the total. The stopping rule checks r21 first; r10 and
r_repump take one more gemv, made only on bins that need them: where r21
passes the threshold, and on history, snapshot and stop bins. The moments
come from cached per-axis rows (v, v*v).

Rates are estimated in the open-loop weak-repumping regime (no continuous
depumping), so the grid spans (r21, r10, r_repump) only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import filtering
from .errors import AllZeroError, CapExceededError, TraceFormatError, ZeroMeanError
from .model import (
    Belief,
    PhotonCountModel,
    TraceRecord,
    check_belief,
    log_likelihoods,
    normalize,
)

RATE_NAMES = ("r21", "r10", "r_repump")

DEFAULT_RATE_MIN = 2.0
DEFAULT_RATE_MAX = 150.0
DEFAULT_RATE_POINTS = 25


@dataclass(frozen=True)
class GridAxis:
    """Linearly spaced rate values in 1/s. A single-point axis (min == max)
    gives the degenerate grid that reduces to the plain filter."""

    min: float
    max: float
    n_points: int

    def __post_init__(self):
        if self.min < 0.0 or not math.isfinite(self.min):
            raise ValueError("axis min must be finite and >= 0")
        if not math.isfinite(self.max):
            raise ValueError("axis max must be finite")
        if self.n_points < 1:
            raise ValueError("axis needs at least one point")
        if self.n_points == 1:
            if self.max != self.min:
                raise ValueError("a single-point axis requires min == max")
        elif not self.max > self.min:
            raise ValueError("axis max must exceed min")

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.n_points)


def default_axis() -> GridAxis:
    return GridAxis(DEFAULT_RATE_MIN, DEFAULT_RATE_MAX, DEFAULT_RATE_POINTS)


@dataclass(frozen=True)
class GridSpec:
    r21: GridAxis = field(default_factory=default_axis)
    r10: GridAxis = field(default_factory=default_axis)
    r_repump: GridAxis = field(default_factory=default_axis)
    max_cells: int = 2_000_000

    def __post_init__(self):
        if self.n_cells > self.max_cells:
            raise CapExceededError(
                f"grid would hold {self.n_cells} cells, cap is {self.max_cells}"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.r21.n_points, self.r10.n_points, self.r_repump.n_points)

    @property
    def n_cells(self) -> int:
        n21, n10, nr = (
            self.r21.n_points,
            self.r10.n_points,
            self.r_repump.n_points,
        )
        return 3 * n21 * n10 * nr

    def axis(self, name: str) -> GridAxis:
        if name not in RATE_NAMES:
            raise ValueError(f"unknown rate axis {name!r}")
        return getattr(self, name)


@dataclass
class RateGrid:
    """Joint probability over (alpha, r21, r10, r_repump); sums to one."""

    spec: GridSpec
    joint: np.ndarray


class RatePosterior(NamedTuple):
    """Marginal summary for one rate: expectation and rms spread (1/s)."""

    mean: float
    rms: float


class RateMarginals(NamedTuple):
    """Posterior of every rate, in RATE_NAMES order."""

    r21: RatePosterior
    r10: RatePosterior
    r_repump: RatePosterior

    def as_dict(self) -> dict[str, RatePosterior]:
        return self._asdict()


def init_flat(spec: GridSpec, initial_states: Belief) -> RateGrid:
    """Flat (no knowledge) prior over the rate cells, with the given state
    probabilities, checked, on every cell."""
    n_rate_cells = spec.shape[0] * spec.shape[1] * spec.shape[2]
    joint = np.empty((3,) + spec.shape)
    for alpha, p in enumerate(check_belief(initial_states)):
        joint[alpha] = p / n_rate_cells
    return RateGrid(spec, joint)


class _Propagator:
    """Every cell's exact one-bin step exp(dt*G), stored flat,
    p[i, j, cell], with cells in the grid's C order."""

    def __init__(self, spec: GridSpec, dt: float):
        rates = np.meshgrid(*(spec.axis(n).values() for n in RATE_NAMES), indexing="ij")
        # through the module, so a counter patched onto filtering.expm sees it
        m = filtering.expm(*rates, dt).reshape(-1, 3, 3)
        self.p = np.ascontiguousarray(m.transpose(1, 2, 0))

    def apply(self, joint: np.ndarray, out: np.ndarray) -> None:
        # p >= 0 (sums of non-negative terms) and joint >= 0, so out >= 0
        np.einsum("ijn,jn->in", self.p, joint.reshape(3, -1), out=out.reshape(3, -1))


@functools.lru_cache(maxsize=16)
def _propagator(spec: GridSpec, dt: float) -> _Propagator:
    return _Propagator(spec, dt)


@functools.lru_cache(maxsize=1024)
def _bayes_weights(model: PhotonCountModel, n: int) -> np.ndarray:
    """p(n | alpha) / max_alpha p(n | alpha), read-only and memoized: a run
    sees few distinct counts."""
    logl = np.array(log_likelihoods(model, n))
    m = logl.max()
    if m == -math.inf:
        raise AllZeroError("the count has zero likelihood in every state")
    w = np.exp(logl - m)
    w.flags.writeable = False
    return w


_TINY = np.finfo(float).tiny


@functools.lru_cache(maxsize=16)
def _ones(n: int) -> np.ndarray:
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _row_sums(joint: np.ndarray) -> np.ndarray:
    """(alpha, r21) row sums of the grid, shape (3, n21), from one gemv over
    its (alpha * r21, r10 * r_repump) view."""
    rows = joint.reshape(3 * joint.shape[1], -1)
    return (rows @ _ones(rows.shape[1])).reshape(3, -1)


def _other_marginals(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized 1-D marginals of r10 and r_repump from one gemv over the
    (alpha * r21, r10 * r_repump) view of the grid; no intermediate has more
    than n10 * nr entries."""
    _, n21, n10, nr = joint.shape
    rest = (_ones(3 * n21) @ joint.reshape(3 * n21, n10 * nr)).reshape(n10, nr)
    return rest @ _ones(nr), _ones(n10) @ rest


def _step(
    prop, joint: np.ndarray, out: np.ndarray, model: PhotonCountModel, n: int
) -> np.ndarray:
    """One generalized Bayes step into ``out``: per-cell prior propagation,
    reweighting by p(n | alpha), renormalization of the whole grid. Returns
    the new grid's unnormalized r21 marginal: the weighted (alpha, r21) row
    sums of the propagated grid, whose sum is the renormalization total."""
    prop.apply(joint, out)
    w = _bayes_weights(model, n)
    m21 = w @ _row_sums(out)
    total = m21 @ _ones(m21.shape[0])
    slabs = out.reshape(3, -1)
    if total >= _TINY:
        slabs *= (w / total)[:, None]
        return m21
    # a subnormal total would overflow w / total: weight first, then divide
    slabs *= w[:, None]
    total = slabs.sum()
    if total <= 0.0:
        raise AllZeroError("grid mass underflowed to zero")
    slabs /= total
    return _ones(3) @ _row_sums(out)


def update(grid: RateGrid, n: int, model: PhotonCountModel, dt: float) -> RateGrid:
    """One generalized Bayes step: per-cell exact prior propagation over
    dt, then reweighting by p(n | alpha), then renormalization of the whole
    grid."""
    out = np.empty(grid.joint.shape)  # C order: _step works on flat views
    _step(_propagator(grid.spec, dt), grid.joint, out, model, n)
    return RateGrid(grid.spec, out)


def marginal_states(grid: RateGrid) -> Belief:
    """State probabilities, summed over all rate cells."""
    return normalize(grid.joint.sum(axis=(1, 2, 3)))


@functools.lru_cache(maxsize=16)
def _moment_rows(axis: GridAxis) -> np.ndarray:
    """Rows (v, v*v) of the axis values: ``rows @ p`` gives a normalized
    marginal's mean and second moment."""
    v = axis.values()
    rows = np.array([v, v * v])
    rows.flags.writeable = False
    return rows


def _normalized(marg: np.ndarray) -> np.ndarray:
    total = marg.sum()
    if total <= 0.0:
        raise AllZeroError("grid mass is zero")
    return marg / total


def _posterior(axis: GridAxis, marg: np.ndarray) -> RatePosterior:
    """Expectation and rms of one rate's unnormalized 1-D marginal. It is
    normalized first, so a single-point axis reads back its rate and rms 0
    exactly, whatever its total mass."""
    mean, second = (_moment_rows(axis) @ _normalized(marg)).tolist()
    return RatePosterior(mean, math.sqrt(max(second - mean * mean, 0.0)))


def marginal_rates(grid: RateGrid) -> RateMarginals:
    """Expectation and rms of each rate's 1-D marginal."""
    m21 = _ones(3) @ _row_sums(grid.joint)
    return RateMarginals._make(_BinMarginals(grid.spec, grid.joint, m21))


class _BinMarginals:
    """The rate posteriors of the bin just stepped, iterated in RATE_NAMES
    order. r21's marginal comes from the step itself; r10's and r_repump's
    take one more pass over the grid, made when first read and kept."""

    __slots__ = ("spec", "joint", "m21", "rest")

    def __init__(self, spec: GridSpec, joint: np.ndarray, m21: np.ndarray):
        self.spec, self.joint, self.m21, self.rest = spec, joint, m21, None

    def arrays(self) -> tuple[np.ndarray, ...]:
        if self.rest is None:
            self.rest = _other_marginals(self.joint)
        return (self.m21, *self.rest)

    def __iter__(self):
        yield _posterior(self.spec.r21, self.m21)
        _, m10, mr = self.arrays()
        yield _posterior(self.spec.r10, m10)
        yield _posterior(self.spec.r_repump, mr)

    def axis_marginals(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Axis values and normalized 1-D marginal of every rate."""
        return {
            name: (self.spec.axis(name).values(), _normalized(m))
            for name, m in zip(RATE_NAMES, self.arrays())
        }


def _check_threshold(threshold: float) -> None:
    """The stop rule's threshold must be a finite number >= 0: NaN or
    infinity would fire at once, and a negative threshold never."""
    if not 0.0 <= threshold < math.inf:  # NaN too
        raise ValueError(
            f"stop_threshold must be a finite number >= 0, got {threshold!r}"
        )


def stopping_check(marginals: Iterable[RatePosterior], threshold: float = 0.10) -> bool:
    """True when every rate posterior has rms/mean at or below threshold.
    ``marginals`` are the posteriors in RATE_NAMES order (a RateMarginals,
    or an iterable that computes each as it is read); the check ends at
    the first that fails. A threshold that is not finite and >= 0 raises
    ValueError."""
    _check_threshold(threshold)
    for name, post in zip(RATE_NAMES, marginals):
        if post.mean == 0.0:
            if post.rms > 0.0:
                raise ZeroMeanError(f"{name} marginal has zero mean but rms > 0")
            continue  # a point mass at zero rate is perfectly known
        if post.rms / post.mean > threshold:
            return False
    return True


@dataclass
class EstimationResult:
    """Outcome of streaming a trace through the grid estimator."""

    n_bins: int
    stop_bin: Optional[int]  # first bin index where the stopping rule fired
    marginals_at_stop: Optional[RateMarginals]
    final_marginals: RateMarginals
    rms_history: list[tuple[int, float, float, float]]
    snapshots: list[tuple[int, dict[str, tuple[np.ndarray, np.ndarray]]]]
    final_grid: RateGrid

    @property
    def converged(self) -> bool:
        return self.stop_bin is not None

    def reported_marginals(self) -> RateMarginals:
        """Marginals at the stopping point when it fired, else at the end of
        the data (acquisition would have continued)."""
        return self.marginals_at_stop if self.converged else self.final_marginals


def run_estimation(
    records: Sequence[TraceRecord],
    spec: GridSpec,
    model: PhotonCountModel,
    dt: float,
    initial_states: Belief = Belief(0.0, 0.0, 1.0),
    stop_threshold: float = 0.10,
    stop_at_trigger: bool = False,
    history_every: int = 100,
    snapshot_every: Optional[int] = None,
    method: str = "exact",
) -> EstimationResult:
    """Stream a recorded trace through the exact grid update.

    The stopping rule is evaluated after every bin. With stop_at_trigger the
    acquisition truncates there (the experimental protocol); otherwise the
    full trace is consumed and the trigger bin is only recorded, which keeps
    the final posterior comparable across seeds. stop_threshold must be a
    finite number >= 0, checked before the first bin.

    The grid always propagates exactly; ``method`` stays for callers that
    name it, and any value but "exact" raises ValueError. An AllZeroError
    names the bin it arose in. A trace that carries a pulse raises
    TraceFormatError, a ValueError.
    """
    if method != "exact":
        raise ValueError(f"the rate grid propagates exactly only, got method {method!r}")
    _check_threshold(stop_threshold)
    if any(rec.pulse for rec in records):
        raise TraceFormatError(
            "rate estimation expects open-loop traces without pulses"
        )
    prop = _propagator(spec, dt)
    joint = init_flat(spec, initial_states).joint
    buf = np.empty_like(joint)
    stop_bin = None
    marginals_at_stop = None
    rms_history = []
    snapshots = []
    n_seen = 0
    try:
        for rec in records:
            m21 = _step(prop, joint, buf, model, rec.photon_count)
            joint, buf = buf, joint
            n_seen += 1
            marg = _BinMarginals(spec, joint, m21)
            if stop_bin is None and stopping_check(marg, stop_threshold):
                stop_bin = rec.bin_index
                marginals_at_stop = RateMarginals._make(marg)
                if stop_at_trigger:
                    break
            if history_every and n_seen % history_every == 0:
                r21, r10, rr = marg
                rms_history.append((rec.bin_index, r21.rms, r10.rms, rr.rms))
            if snapshot_every and n_seen % snapshot_every == 0:
                snapshots.append((rec.bin_index, marg.axis_marginals()))
    except AllZeroError as exc:
        raise AllZeroError(f"bin {rec.bin_index}: {exc}") from None
    grid = RateGrid(spec, joint)
    return EstimationResult(
        n_bins=n_seen,
        stop_bin=stop_bin,
        marginals_at_stop=marginals_at_stop,
        final_marginals=marginal_rates(grid),
        rms_history=rms_history,
        snapshots=snapshots,
        final_grid=grid,
    )
