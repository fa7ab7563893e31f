"""The three benchmark workloads, built only from telegraphctl's public API.

Inputs come from a fixed pool: pool entry ``j`` is the trace seeded with
``derive_seed(POOL_SEED, j)``, and ``reference.json`` holds what the
unoptimised program produced for every entry (trace text digest, occupancy,
final rate marginals and truth-coverage flags). The run's ``--seed`` picks
the order in which the pool is visited, so every operation a run times can
be checked against the recorded reference.

An operation is one trace. Operations are grouped into ensembles of
``ensemble`` traces; each ensemble gets the analytics summary its CLI
command computes, and the first ensemble's mean posterior p1 is the
workload's ``target_occupancy``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from collections import Counter

import numpy as np

from telegraphctl import filtering, rategrid, simulate
from telegraphctl.analytics import dwell_time, mean_occupancy, time_to_target
from telegraphctl.config import ExperimentConfig, feedback_defaults
from telegraphctl.errors import TelegraphError
from telegraphctl.experiments import FeedbackController
from telegraphctl.model import PhotonCountModel, Pulse, TraceRecord, TransitionRates
from telegraphctl.rng import derive_seed
from telegraphctl.traceio import format_trace, parse_trace

POOL_SEED = 20260809
MARGINAL_RTOL = 1e-6  # reordered float sums move the marginals far less
_now = time.perf_counter


class MeasurementError(Exception):
    """The program no longer exposes what the benchmark times."""


class LatencyHistogram:
    """Decision latencies in storage of fixed size, so that a run's memory
    does not grow with the number of decisions that fit in it. Buckets are
    log-spaced, 1000 a decade from 10 ns to 100 s (0.23% wide); 1 ms is a
    bucket edge. An operation's samples wait in ``pending`` until
    ``flush``."""

    LOW_EXP, HIGH_EXP, PER_DECADE = -8, 2, 1000

    def __init__(self):
        n = (self.HIGH_EXP - self.LOW_EXP) * self.PER_DECADE
        self.edges = 10.0 ** (self.LOW_EXP + np.arange(n + 1) / self.PER_DECADE)
        self.counts = np.zeros(n, dtype=np.int64)
        self.pending: list[float] = []

    def _bucket(self, seconds):
        x = np.log10(np.maximum(seconds, self.edges[0]))
        i = np.floor((x - self.LOW_EXP) * self.PER_DECADE).astype(np.int64)
        return np.clip(i, 0, len(self.counts) - 1)

    def flush(self) -> None:
        if self.pending:
            idx = self._bucket(np.asarray(self.pending))
            self.counts += np.bincount(idx, minlength=len(self.counts))
            self.pending.clear()

    def clear(self) -> None:
        self.counts[:] = 0
        self.pending.clear()

    def copy(self) -> "LatencyHistogram":
        self.flush()
        other = LatencyHistogram()
        other.counts[:] = self.counts
        return other

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def percentile(self, q: float) -> float:
        """Seconds at percentile ``q``: ``np.percentile``'s rank, placed
        linearly within its bucket."""
        rank = q / 100.0 * (self.n - 1)
        below = np.cumsum(self.counts)
        i = int(np.searchsorted(below, rank, side="right"))
        start = below[i] - self.counts[i]
        frac = min((rank - start + 0.5) / self.counts[i], 1.0)
        return float(self.edges[i] + frac * (self.edges[i + 1] - self.edges[i]))

    def frac_at_least(self, seconds: float) -> float:
        """Share of samples in buckets from the one that ``seconds`` starts."""
        i = int(np.searchsorted(self.edges, seconds * (1 - 1e-12)))
        return float(self.counts[i:].sum()) / self.n


@dataclasses.dataclass
class Outcome:
    """One operation: bins processed, seconds spent in program calls, the
    record compared against the reference, invariant violations found, and
    the posteriors kept for the ensemble summary."""

    bins: int
    seconds: float
    record: dict
    problems: list[str]
    posteriors: list
    pulses: Counter


class OpenLoopEstimate:
    """Simulate a 5100-bin open-loop trace at the paper's rates, round-trip
    it through the trace format, filter it offline and infer the rates on
    the default 25^3 grid with exact propagation."""

    name = "openloop-estimate"
    pool_size = 24
    ensemble = 4
    closed_loop = False

    def __init__(self):
        self.cfg = ExperimentConfig()
        self.filter = self.cfg.filter_config()
        self.model = self.cfg.filter_photon_model()
        self.truth = self.cfg.rates
        self.decisions = LatencyHistogram()
        self._stamps: list[float] = []

    def first_call(self) -> None:
        """First estimation in a process builds the exact propagator."""
        self._estimate([TraceRecord(0, 28)])

    def _estimate(self, records):
        return rategrid.run_estimation(
            records,
            self.cfg.grid,
            self.model,
            self.cfg.bin_time,
            initial_states=self.cfg.initial_belief,
            history_every=100,
            method="exact",
        )

    @contextlib.contextmanager
    def hooks(self):
        # The estimator's per-bin decision is its stop/continue rule, which
        # run_estimation evaluates after every bin; the interval between
        # consecutive stopping_check returns is one whole bin step.
        original = rategrid.stopping_check
        stamps = self._stamps

        def stamped(*args, **kwargs):
            result = original(*args, **kwargs)
            stamps.append(_now())
            return result

        rategrid.stopping_check = stamped
        try:
            yield
        finally:
            rategrid.stopping_check = original

    def op(self, j: int, tr) -> Outcome:
        self._stamps.clear()
        t0 = _now()
        with tr.span("simulate.run_trace_events"):
            records, _ = simulate.run_trace_events(
                self.cfg.sim_config(derive_seed(POOL_SEED, j)), None
            )
        with tr.span("traceio.format_trace"):
            text = format_trace(records)
        with tr.span("traceio.parse_trace"):
            parsed = parse_trace(text)
        with tr.span("filtering.run_filter"):
            posteriors = filtering.run_filter(parsed, self.filter)
        with tr.span("rategrid.run_estimation"):
            est = self._estimate(parsed)
        seconds = _now() - t0
        # run_estimation checks the stop rule after every bin up to and
        # including the one where it fires; intervals spanning several bins
        # would misread as slower decisions.
        stamps = self._stamps
        checked = est.n_bins if est.stop_bin is None else est.stop_bin - parsed[0].bin_index + 1
        if len(stamps) != checked:
            raise MeasurementError(
                f"telegraphctl.rategrid.stopping_check was called {len(stamps)} times "
                f"for {checked} bins; its returns no longer time one bin step each"
            )
        self.decisions.pending.extend(b - a for a, b in zip(stamps, stamps[1:]))
        self.decisions.flush()

        problems = []
        if parsed != records:
            problems.append("parse_trace(format_trace(x)) != x")
        if len(posteriors) != len(records) or est.n_bins != len(records):
            problems.append("filter or estimator skipped bins")
        marg = est.final_marginals.as_dict()
        record = {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "p1": _mean_p1(posteriors),
            "marginals": [[marg[n].mean, marg[n].rms] for n in rategrid.RATE_NAMES],
            "coverage": [
                abs(getattr(self.truth, n) - marg[n].mean) <= 2.0 * marg[n].rms
                for n in rategrid.RATE_NAMES
            ],
        }
        return Outcome(len(records), seconds, record, problems, posteriors, Counter())

    def compare(self, record: dict, ref: dict) -> list[str]:
        problems = []
        if record["sha256"] != ref["sha256"]:
            problems.append("trace text differs from reference")
        if _p1_differs(record, ref):
            problems.append("offline posteriors differ from reference")
        for (m, r), (m_ref, r_ref) in zip(record["marginals"], ref["marginals"]):
            if abs(m - m_ref) > MARGINAL_RTOL * abs(m_ref) or abs(r - r_ref) > MARGINAL_RTOL * abs(r_ref):
                problems.append("final rate marginals differ from reference")
                break
        if record["coverage"] != ref["coverage"]:
            problems.append("truth-coverage flags differ from reference")
        return problems

    def summarize(self, outcomes: list[Outcome]) -> dict:
        """The `analyze` command's summary over the ensemble."""
        posteriors = [o.posteriors for o in outcomes]
        summary = {"mean_p": mean_occupancy(posteriors).mean_p.as_tuple()}
        try:
            summary["dwell_tau_s"] = dwell_time(posteriors, self.cfg.bin_time).tau
            summary["time_to_target_s"] = time_to_target(posteriors, self.cfg.bin_time)
        except TelegraphError:
            pass
        return summary


class Feedback:
    """300-bin closed-loop traces at the feedback rates with the default
    photon model; the benchmark times each controller step through a
    wrapper around a public FeedbackController passed as the simulator's
    control hook."""

    pool_size = 512
    ensemble = 64
    closed_loop = True

    def __init__(self, mode: str):
        self.cfg = dataclasses.replace(feedback_defaults(), policy_mode=mode)
        self.filter = self.cfg.filter_config()
        self.policy = self.cfg.control_policy()
        self.decisions = LatencyHistogram()

    def first_call(self) -> None:
        sim = dataclasses.replace(self.cfg.sim_config(POOL_SEED), n_bins=1)
        simulate.run_trace_events(sim, FeedbackController(self.filter, self.policy))

    @contextlib.contextmanager
    def hooks(self):
        yield

    def op(self, j: int, tr) -> Outcome:
        controller = FeedbackController(self.filter, self.policy)
        step = tr.wrap("experiments.FeedbackController", controller)
        latencies = self.decisions.pending

        def timed_step(bin_index, count):
            t0 = _now()
            spec = step(bin_index, count)
            latencies.append(_now() - t0)
            return spec

        t0 = _now()
        with tr.span("simulate.run_trace_events"):
            records, _ = simulate.run_trace_events(
                self.cfg.sim_config(derive_seed(POOL_SEED, j)), timed_step
            )
        with tr.span("traceio.format_trace"):
            text = format_trace(records)
        with tr.span("traceio.parse_trace"):
            parsed = parse_trace(text)
        seconds = _now() - t0
        self.decisions.flush()

        problems = []
        if parsed != records:
            problems.append("parse_trace(format_trace(x)) != x")
        if any(
            d.action != Pulse.NONE and not d.distance_after <= d.distance_before
            for d in controller.decisions
        ):
            problems.append("a fired pulse increased the distance to the target")
        record = {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "p1": _mean_p1(controller.posteriors),
        }
        pulses = Counter(rec.pulse.name for rec in records if rec.pulse)
        return Outcome(len(records), seconds, record, problems, controller.posteriors, pulses)

    def compare(self, record: dict, ref: dict) -> list[str]:
        if not self.byte_identical:
            return []
        problems = []
        if record["sha256"] != ref["sha256"]:
            problems.append("trace text differs from reference")
        if _p1_differs(record, ref):
            problems.append("online posteriors differ from reference")
        return problems

    def summarize(self, outcomes: list[Outcome]) -> dict:
        """The `feedback` command's summary over the ensemble."""
        posteriors = [o.posteriors for o in outcomes]
        return {
            "mean_p": mean_occupancy(posteriors).mean_p.as_tuple(),
            "dwell_tau_s": dwell_time(posteriors, self.cfg.bin_time).tau,
            "time_to_target_s": time_to_target(posteriors, self.cfg.bin_time),
            "pulses": dict(sum((o.pulses for o in outcomes), Counter())),
        }


class FeedbackSimple(Feedback):
    name = "feedback-simple"
    byte_identical = True

    def __init__(self):
        super().__init__("simple")


class FeedbackOptimal(Feedback):
    # An exact minimiser may move T* in its last digits and with it the odd
    # pulse outcome, so traces are compared by occupancy, not by bytes.
    name = "feedback-optimal"
    pool_size = 96
    ensemble = 32
    byte_identical = False

    def __init__(self):
        super().__init__("optimal")


WORKLOADS = {w.name: w for w in (OpenLoopEstimate, FeedbackSimple, FeedbackOptimal)}


def _mean_p1(posteriors) -> float:
    return sum(b.p1 for b in posteriors) / len(posteriors)


def _p1_differs(record: dict, ref: dict) -> bool:
    return abs(record["p1"] - ref["p1"]) > MARGINAL_RTOL * abs(ref["p1"])


def golden_trace_text() -> str:
    """The seed-42, 50-bin open-loop trace the test suite pins."""
    cfg = simulate.SimConfig(
        TransitionRates(35.0, 50.0, 59.0),
        PhotonCountModel((40.0, 28.0, 16.0)),
        1e-3,
        50,
        2,
        42,
    )
    return format_trace(simulate.run_trace(cfg))
