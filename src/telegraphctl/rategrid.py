"""Joint Bayesian inference of the hidden state and the transition rates on
a discrete grid.

The generalized distribution p(alpha, r21, r10, r_repump) lives on a dense
array of shape (3, n21, n10, nr). Each bin update propagates every rate
cell's state slice with that cell's one-bin step (linearized, or the exact
matrix exponential), multiplies by the count likelihood (which depends on
alpha only; rate information enters purely through the propagation
coupling), and renormalizes the whole grid. Likelihoods are computed in the
log domain and the grid is renormalized every bin, so thousands of
multiplicative updates cannot underflow.

Both methods share one propagator: every cell's matrix from
filtering.step_matrices, stored flat as (3, 3, cells). Per bin that makes a
few passes over the grid: one einsum over the propagator, one per-state
sum, one scale of each state slab by w_alpha / total. The stopping rule's
marginals cost two gemvs over the grid; the moments come from cached
per-axis rows (v, v*v).

Rates are estimated in the open-loop weak-repumping regime (no continuous
depumping), so the grid spans (r21, r10, r_repump) only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import AllZeroError, CapExceededError, ZeroMeanError
from .filtering import GUARD_LIMIT, guard_load, step_matrices
from .model import (
    Belief,
    PhotonCountModel,
    TraceRecord,
    TransitionRates,
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

    def copy(self) -> "RateGrid":
        return RateGrid(self.spec, self.joint.copy())

    def total(self) -> float:
        return float(self.joint.sum())


@dataclass(frozen=True)
class RatePosterior:
    """Marginal summary for one rate: expectation and rms spread (1/s)."""

    mean: float
    rms: float


@dataclass(frozen=True)
class RateMarginals:
    r21: RatePosterior
    r10: RatePosterior
    r_repump: RatePosterior

    def as_dict(self) -> dict[str, RatePosterior]:
        return {"r21": self.r21, "r10": self.r10, "r_repump": self.r_repump}


def init_flat(spec: GridSpec, initial_states: Belief) -> RateGrid:
    """Flat (no knowledge) prior over the rate cells, with the given state
    probabilities on every cell."""
    n_rate_cells = spec.shape[0] * spec.shape[1] * spec.shape[2]
    joint = np.empty((3,) + spec.shape)
    for alpha, p in enumerate(initial_states.as_tuple()):
        joint[alpha] = p / n_rate_cells
    return RateGrid(spec, joint)


class _Propagator:
    """Every cell's one-bin step (linearized or exact), stored flat,
    p[i, j, cell], with cells in the grid's C order."""

    def __init__(self, spec: GridSpec, dt: float, method: str):
        rates = np.meshgrid(*(spec.axis(n).values() for n in RATE_NAMES), indexing="ij")
        m = step_matrices(*rates, dt, method).reshape(-1, 3, 3)
        self.p = np.ascontiguousarray(m.transpose(1, 2, 0))

    def apply(self, joint: np.ndarray, out: np.ndarray) -> None:
        # p >= 0 (guarded linear entries; exact ones sum non-negative terms)
        # and joint >= 0, so out >= 0
        np.einsum("ijn,jn->in", self.p, joint.reshape(3, -1), out=out.reshape(3, -1))


@functools.lru_cache(maxsize=16)
def _propagator(spec: GridSpec, dt: float, method: str) -> _Propagator:
    return _Propagator(spec, dt, method)


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


def _step(
    prop, joint: np.ndarray, out: np.ndarray, model: PhotonCountModel, n: int
) -> None:
    """One generalized Bayes step into ``out``: per-cell prior propagation,
    reweighting by p(n | alpha), renormalization of the whole grid."""
    prop.apply(joint, out)
    w = _bayes_weights(model, n)
    slabs = out.reshape(3, -1)
    total = w @ slabs.sum(axis=1)
    if total >= _TINY:
        slabs *= (w / total)[:, None]
        return
    # a subnormal total would overflow w / total: weight first, then divide
    slabs *= w[:, None]
    total = slabs.sum()
    if total <= 0.0:
        raise AllZeroError("grid mass underflowed to zero")
    slabs /= total


def update(
    grid: RateGrid,
    n: int,
    model: PhotonCountModel,
    dt: float,
    method: str = "linear",
) -> RateGrid:
    """One generalized Bayes step: per-cell prior propagation over dt, then
    reweighting by p(n | alpha), then renormalization of the whole grid."""
    out = np.empty(grid.joint.shape)  # C order: _step works on flat views
    _step(_propagator(grid.spec, dt, method), grid.joint, out, model, n)
    return RateGrid(grid.spec, out)


def marginal_states(grid: RateGrid) -> Belief:
    """State probabilities, summed over all rate cells."""
    return normalize(grid.joint.sum(axis=(1, 2, 3)))


@functools.lru_cache(maxsize=16)
def _ones(n: int) -> np.ndarray:
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


@functools.lru_cache(maxsize=16)
def _moment_rows(axis: GridAxis) -> np.ndarray:
    """Rows (v, v*v) of the axis values: ``rows @ p`` gives a normalized
    marginal's mean and second moment."""
    v = axis.values()
    rows = np.array([v, v * v])
    rows.flags.writeable = False
    return rows


def _rate_marginals(joint: np.ndarray) -> tuple[np.ndarray, ...]:
    """Unnormalized 1-D marginals of r21, r10 and r_repump from two gemvs
    over the (alpha * r21, r10 * r_repump) view of the grid; every
    intermediate has at most n10 * nr entries, so no grid-sized temporary
    is allocated per call."""
    _, n21, n10, nr = joint.shape
    rows = joint.reshape(3 * n21, n10 * nr)
    by_r21 = (rows @ _ones(n10 * nr)).reshape(3, n21)
    rest = (_ones(3 * n21) @ rows).reshape(n10, nr)
    return _ones(3) @ by_r21, rest @ _ones(nr), _ones(n10) @ rest


def _normalized(marg: np.ndarray) -> np.ndarray:
    total = marg.sum()
    if total <= 0.0:
        raise AllZeroError("grid mass is zero")
    return marg / total


def _axis_marginals(grid: RateGrid) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Axis values and normalized 1-D marginal of every rate."""
    return {
        name: (grid.spec.axis(name).values(), _normalized(marg))
        for name, marg in zip(RATE_NAMES, _rate_marginals(grid.joint))
    }


def marginal_rates(grid: RateGrid) -> RateMarginals:
    """Expectation and rms of each rate's 1-D marginal."""
    out = {}
    for name, marg in zip(RATE_NAMES, _rate_marginals(grid.joint)):
        mean, second = (_moment_rows(grid.spec.axis(name)) @ _normalized(marg)).tolist()
        out[name] = RatePosterior(mean, math.sqrt(max(second - mean * mean, 0.0)))
    return RateMarginals(**out)


def stopping_check(
    grid: RateGrid, threshold: float = 0.10, marginals: Optional[RateMarginals] = None
) -> bool:
    """True when every rate marginal has rms/mean at or below threshold.
    ``marginals``, when given, must be marginal_rates(grid); a caller that
    needs them anyway passes them so they are computed once."""
    if marginals is None:
        marginals = marginal_rates(grid)
    for name, post in marginals.as_dict().items():
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
    states_at_stop: Optional[Belief]
    final_marginals: RateMarginals
    final_states: Belief
    rms_history: list[tuple[int, float, float, float]]
    snapshots: list[tuple[int, dict[str, tuple[np.ndarray, np.ndarray]]]]
    final_grid: Optional[RateGrid] = None

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
    method: Optional[str] = None,
    keep_grid: bool = False,
) -> EstimationResult:
    """Stream a recorded trace through the grid update.

    The stopping rule is evaluated after every bin. With stop_at_trigger the
    acquisition truncates there (the experimental protocol); otherwise the
    full trace is consumed and the trigger bin is only recorded, which keeps
    the final posterior comparable across seeds.

    method defaults to the linearized step whenever every grid cell
    satisfies the validity guard for dt, and to the exact matrix-exponential
    step otherwise. An AllZeroError names the bin it arose in.
    """
    if any(rec.pulse for rec in records):
        raise ValueError("rate estimation expects open-loop traces without pulses")
    if method is None:
        top = TransitionRates(spec.r21.max, spec.r10.max, spec.r_repump.max)
        method = "linear" if guard_load(top, dt) < GUARD_LIMIT else "exact"
    prop = _propagator(spec, dt, method)
    joint = init_flat(spec, initial_states).joint
    buf = np.empty_like(joint)
    grid = RateGrid(spec, joint)
    stop_bin = None
    marginals_at_stop = None
    states_at_stop = None
    rms_history = []
    snapshots = []
    n_seen = 0
    m = None  # marginal_rates of the current bin, computed at most once
    try:
        for rec in records:
            _step(prop, joint, buf, model, rec.photon_count)
            joint, buf = buf, joint
            grid.joint = joint
            n_seen += 1
            m = None
            if stop_bin is None:
                m = marginal_rates(grid)
                if stopping_check(grid, stop_threshold, m):
                    stop_bin = rec.bin_index
                    marginals_at_stop = m
                    states_at_stop = marginal_states(grid)
                    if stop_at_trigger:
                        break
            if history_every and n_seen % history_every == 0:
                if m is None:
                    m = marginal_rates(grid)
                rms_history.append(
                    (rec.bin_index, m.r21.rms, m.r10.rms, m.r_repump.rms)
                )
            if snapshot_every and n_seen % snapshot_every == 0:
                snapshots.append((rec.bin_index, _axis_marginals(grid)))
    except AllZeroError as exc:
        raise AllZeroError(f"bin {rec.bin_index}: {exc}") from None
    final_marginals = marginal_rates(grid) if m is None else m
    final_states = marginal_states(grid)
    return EstimationResult(
        n_bins=n_seen,
        stop_bin=stop_bin,
        marginals_at_stop=marginals_at_stop,
        states_at_stop=states_at_stop,
        final_marginals=final_marginals,
        final_states=final_states,
        rms_history=rms_history,
        snapshots=snapshots,
        final_grid=grid.copy() if keep_grid else None,
    )
