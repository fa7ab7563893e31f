"""Ground-truth trajectory and photon-count generation.

The hidden two-atom state evolves as an exact continuous-time Markov chain
sampled event by event (Gillespie), so multiple jumps within one bin are
possible; tests use this to quantify the error of the linearized filter
propagation rather than inherit it. Pump pulses are treated as
instantaneous events at bin boundaries (the physical pulse is ~1.5 us,
three orders of magnitude shorter than a bin).

The channel rates out of each state are model.exit_rates, continuous
depumping included. The rates are fixed for a run, so the Gillespie step
reads a per-run channel table (the direct method): per state, the exit
total and the cumulative rates of its channels with a positive rate, the
up channel first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .model import (
    PhotonCountModel,
    Pulse,
    TraceRecord,
    TransitionRates,
    check_above,
    check_state,
    exit_rates,
)
from .rng import PortableRandom

# Controller hook: (bin_index, photon_count) -> pulse to fire at this bin's
# end, or None.
Controller = Callable[[int, int], Optional["PulseSpec"]]

# Read on every bin: a module name is cheaper to look up than an enum member.
_NONE, _REPUMP, _DEPUMP = Pulse.NONE, Pulse.REPUMP, Pulse.DEPUMP


class _PulseSpecFields(NamedTuple):
    direction: Pulse
    transition_probability: float


class PulseSpec(_PulseSpecFields):
    """One pump pulse: direction and per-atom transition probability."""

    __slots__ = ()

    def __new__(cls, direction: Pulse, transition_probability: float):
        if direction not in (_REPUMP, _DEPUMP):
            raise ValueError("pulse direction must be REPUMP or DEPUMP")
        if not 0.0 <= transition_probability <= 1.0:
            raise ValueError("transition_probability must be in [0, 1]")
        return super().__new__(cls, direction, transition_probability)


@dataclass(frozen=True)
class SimConfig:
    rates: TransitionRates
    photon_model: PhotonCountModel
    bin_time: float
    n_bins: int
    initial_state: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        check_above("bin_time", self.bin_time)
        if self.n_bins <= 0:
            raise ValueError("n_bins must be > 0")
        check_state(self.initial_state)


def step_continuous_events(
    state: int, rates: TransitionRates, dt: float, rng: PortableRandom
) -> tuple[int, list[tuple[float, int]]]:
    """Hidden state after evolving ``dt`` seconds (exact Gillespie sampling)
    and the (time, new_state) jump list, with times relative to the start
    of the interval; dt must be finite and > 0."""
    check_above("dt", dt)
    check_state(state)
    totals, channels = _channel_table(
        rates.r21, rates.r10, rates.r_repump, rates.r_depump
    )
    t = 0.0
    events: list[tuple[float, int]] = []
    total = totals[state]
    while total != 0.0:
        t += rng.exponential(total)
        if t >= dt:
            break
        u = rng.uniform() * total
        for acc, dest in channels[state]:
            if u < acc:
                break
        state = dest  # the last channel's on the fp edge u == total
        events.append((t, state))
        total = totals[state]
    return state, events


@functools.lru_cache(maxsize=32)
def _channel_table(
    r21: float, r10: float, r_repump: float, r_depump: float
) -> tuple[tuple[float, ...], tuple[tuple[tuple[float, int], ...], ...]]:
    """The direct method's table (Gillespie, J. Phys. Chem. 81, 2340
    (1977)), built once per set of rates: per state, the exit total and the
    (cumulative rate, destination) pairs of the channels with a positive
    rate, the up channel first; the last cumulative rate is the total."""
    up0, up1, down1, down2 = exit_rates(r21, r10, r_repump, r_depump)
    totals, channels = [], []
    for exits in (((up0, 1),), ((up1, 2), (down1, 0)), ((down2, 1),)):
        acc, cumulative = 0.0, []
        for r, dest in exits:
            if r > 0.0:
                acc += r
                cumulative.append((acc, dest))
        totals.append(acc)
        channels.append(tuple(cumulative))
    return tuple(totals), tuple(channels)


def emit_photons(state: int, model: PhotonCountModel, rng: PortableRandom) -> int:
    """One count drawn from p(n | state)."""
    check_state(state)
    mean = model.mean_counts[state]
    if model.family == "poisson":
        return rng.poisson(mean)
    return rng.neg_binomial(mean, model.fano)


def apply_pulse(state: int, pulse: PulseSpec, rng: PortableRandom) -> int:
    """Instantaneous pulse: every addressable atom flips independently with
    the pulse's transition probability. Repumping never decreases the state,
    depumping never increases it."""
    check_state(state)
    t = pulse.transition_probability
    if pulse.direction == _REPUMP:
        for _ in range(2 - state):
            if rng.bernoulli(t):
                state += 1
        return state
    for _ in range(state):
        if rng.bernoulli(t):
            state -= 1
    return state


@dataclass
class TraceEvents:
    """Exact hidden-state history of one simulated trace: (absolute time,
    new_state) for every change, including pulse-induced flips at bin
    boundaries. Used by dwell-time oracles."""

    initial_state: int
    duration: float
    changes: list[tuple[float, int]] = field(default_factory=list)


def run_chain(
    rates: TransitionRates, duration: float, initial_state: int, seed: int
) -> TraceEvents:
    """Hidden-state history alone (no photon emission), for harnesses that
    re-observe one chain realization at several bin lengths."""
    rng = PortableRandom(seed)
    check_state(initial_state)
    events = TraceEvents(initial_state, duration)
    _, jumps = step_continuous_events(initial_state, rates, duration, rng)
    events.changes.extend(jumps)
    return events


def states_at_bin_ends(events: TraceEvents, bin_time: float) -> list[int]:
    """Hidden state at the end of each bin of the given length, which must
    be finite and > 0."""
    n_bins = int(round(events.duration / check_above("bin_time", bin_time)))
    states = []
    state = events.initial_state
    pos = 0
    changes = events.changes
    for i in range(1, n_bins + 1):
        t_end = i * bin_time
        while pos < len(changes) and changes[pos][0] <= t_end:
            state = changes[pos][1]
            pos += 1
        states.append(state)
    return states


def run_trace(
    config: SimConfig, controller: Optional[Controller] = None
) -> list[TraceRecord]:
    """Simulate ``n_bins`` bins; deterministic given config.rng_seed.

    Per bin: evolve the hidden state over bin_time, draw the count from the
    end-of-bin state, then (closed loop) hand the count to the controller and
    apply any returned pulse at the bin boundary. The record's true_state is
    the state the count was drawn from, i.e. before the pulse.
    """
    records, _ = run_trace_events(config, controller)
    return records


def run_trace_events(
    config: SimConfig, controller: Optional[Controller] = None
) -> tuple[list[TraceRecord], TraceEvents]:
    """run_trace plus the exact jump/pulse event history."""
    if config.photon_model.bin_time != config.bin_time:
        raise ValueError("photon model bin_time does not match SimConfig.bin_time")
    rng = PortableRandom(config.rng_seed)
    rates, bin_time, model = config.rates, config.bin_time, config.photon_model
    state = config.initial_state
    events = TraceEvents(state, config.n_bins * bin_time)
    changes = events.changes
    records = []
    for i in range(config.n_bins):
        t0 = i * bin_time
        state, jumps = step_continuous_events(state, rates, bin_time, rng)
        for dt, s in jumps:
            changes.append((t0 + dt, s))
        count = emit_photons(state, model, rng)
        pulse = _NONE
        emitted_state = state
        if controller is not None:
            spec = controller(i, count)
            if spec is not None:
                pulse = spec.direction
                state = apply_pulse(state, spec, rng)
                if state != emitted_state:
                    changes.append(((i + 1) * bin_time, state))
        # every value is valid by construction, so the record skips its checks
        records.append(TraceRecord._make((i, count, pulse, emitted_state)))
    return records, events
