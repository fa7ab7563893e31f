"""Ground-truth trajectory and photon-count generation.

The hidden two-atom state evolves as an exact continuous-time Markov chain
sampled event by event (Gillespie), so multiple jumps within one bin are
possible; tests use this to quantify the error of the linearized filter
propagation rather than inherit it. Pump pulses are treated as
instantaneous events at bin boundaries (the physical pulse is ~1.5 us,
three orders of magnitude shorter than a bin).

Channel rates out of each state: repumping addresses atoms in the lower
level (0->1 at 2*r_repump, 1->2 at r_repump), probe decay and depumping
address atoms in the upper level (2->1 at r21 + 2*r_depump, 1->0 at
r10 + r_depump). The rates are fixed for a run, so the Gillespie step
reads a per-run channel table (the direct method): per state, the exit
total and the cumulative channel rates, summed from exit_channels in its
order, so the draws and their bits do not depend on the table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .model import (
    STATES,
    PhotonCountModel,
    Pulse,
    TraceRecord,
    TransitionRates,
    check_state,
)
from .rng import PortableRandom

# Controller hook: (bin_index, photon_count) -> pulse to fire at this bin's
# end, or None.
Controller = Callable[[int, int], Optional["PulseSpec"]]


class _PulseSpecFields(NamedTuple):
    direction: Pulse
    transition_probability: float


class PulseSpec(_PulseSpecFields):
    """One pump pulse: direction and per-atom transition probability."""

    __slots__ = ()

    def __new__(cls, direction: Pulse, transition_probability: float):
        if direction not in (Pulse.REPUMP, Pulse.DEPUMP):
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
        if not 0.0 < self.bin_time < math.inf:
            raise ValueError(f"bin_time must be finite and > 0, got {self.bin_time!r}")
        if self.n_bins <= 0:
            raise ValueError("n_bins must be > 0")
        check_state(self.initial_state)


def exit_channels(state: int, rates: TransitionRates) -> list[tuple[float, int]]:
    """(rate, destination) pairs with rate > 0 leaving ``state``."""
    check_state(state)
    channels = []
    if state == 0:
        up = 2.0 * rates.r_repump
        if up > 0.0:
            channels.append((up, 1))
    elif state == 1:
        up = rates.r_repump
        down = rates.r10 + rates.r_depump
        if up > 0.0:
            channels.append((up, 2))
        if down > 0.0:
            channels.append((down, 0))
    else:
        down = rates.r21 + 2.0 * rates.r_depump
        if down > 0.0:
            channels.append((down, 1))
    return channels


def step_continuous(
    state: int, rates: TransitionRates, dt: float, rng: PortableRandom
) -> int:
    """Hidden state after evolving ``dt`` seconds (exact Gillespie sampling)."""
    state, _ = step_continuous_events(state, rates, dt, rng)
    return state


def step_continuous_events(
    state: int, rates: TransitionRates, dt: float, rng: PortableRandom
) -> tuple[int, list[tuple[float, int]]]:
    """Like step_continuous but also returns the (time, new_state) jump list,
    with times relative to the start of the interval; dt must be finite."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
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
    (1977)), built once per set of rates: per state, the exit total as sum()
    adds the rates of exit_channels, and their (cumulative rate,
    destination) pairs in exit_channels' order."""
    rates = TransitionRates(r21, r10, r_repump, r_depump)
    totals, channels = [], []
    for state in STATES:
        exits = exit_channels(state, rates)
        totals.append(sum(r for r, _ in exits))
        acc, cumulative = 0.0, []
        for r, dest in exits:
            acc += r
            cumulative.append((acc, dest))
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
    if pulse.direction == Pulse.REPUMP:
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
    """Hidden state at the end of each bin of the given length."""
    n_bins = int(round(events.duration / bin_time))
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
        pulse = Pulse.NONE
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
