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
r10 + r_depump).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .model import PhotonCountModel, Pulse, TraceRecord, TransitionRates, check_state
from .rng import PortableRandom

# Controller hook: (bin_index, photon_count) -> pulse to fire at this bin's
# end, or None.
Controller = Callable[[int, int], Optional["PulseSpec"]]


@dataclass(frozen=True)
class PulseSpec:
    """One pump pulse: direction and per-atom transition probability."""

    direction: Pulse
    transition_probability: float

    def __post_init__(self):
        if self.direction not in (Pulse.REPUMP, Pulse.DEPUMP):
            raise ValueError("pulse direction must be REPUMP or DEPUMP")
        if not 0.0 <= self.transition_probability <= 1.0:
            raise ValueError("transition_probability must be in [0, 1]")


@dataclass(frozen=True)
class SimConfig:
    rates: TransitionRates
    photon_model: PhotonCountModel
    bin_time: float
    n_bins: int
    initial_state: int = 2
    rng_seed: int = 0

    def __post_init__(self):
        if not self.bin_time > 0.0:
            raise ValueError("bin_time must be > 0")
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
    with times relative to the start of the interval."""
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    t = 0.0
    events: list[tuple[float, int]] = []
    while True:
        channels = exit_channels(state, rates)
        total = sum(r for r, _ in channels)
        if total == 0.0:
            break
        t += rng.exponential(total)
        if t >= dt:
            break
        u = rng.uniform() * total
        acc = 0.0
        for r, dest in channels:
            acc += r
            if u < acc:
                state = dest
                break
        else:  # guard against fp edge u == total
            state = channels[-1][1]
        events.append((t, state))
    return state, events


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
        addressable = 2 - state
        flips = sum(rng.bernoulli(t) for _ in range(addressable))
        return state + flips
    addressable = state
    flips = sum(rng.bernoulli(t) for _ in range(addressable))
    return state - flips


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
    state = config.initial_state
    events = TraceEvents(state, config.n_bins * config.bin_time)
    records = []
    for i in range(config.n_bins):
        t0 = i * config.bin_time
        state, jumps = step_continuous_events(state, config.rates, config.bin_time, rng)
        events.changes.extend((t0 + dt, s) for dt, s in jumps)
        count = emit_photons(state, config.photon_model, rng)
        pulse = Pulse.NONE
        emitted_state = state
        if controller is not None:
            spec = controller(i, count)
            if spec is not None:
                pulse = spec.direction
                state = apply_pulse(state, spec, rng)
                if state != emitted_state:
                    events.changes.append(((i + 1) * config.bin_time, state))
        records.append(TraceRecord(i, count, pulse, true_state=emitted_state))
    return records, events
