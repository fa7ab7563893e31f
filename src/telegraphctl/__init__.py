"""Simulation, Bayesian state/rate estimation and closed-loop feedback
control of a hidden three-level telegraph process observed through noisy
per-bin photon counts."""

__version__ = "0.1.0"

from .analytics import (
    DwellStats,
    OccupancySummary,
    dwell_time,
    integrate_rate_equations,
    mean_occupancy,
    optimal_repump_rate,
    stationary_belief,
    sweep_repump_rate,
    time_to_target,
)
from .control import (
    ControlDecision,
    ControlPolicy,
    decide_action,
    kolmogorov_distance,
    optimal_pulse_probability,
)
from .errors import (
    AllZeroError,
    CapExceededError,
    ConfigError,
    EmptyEnsembleError,
    GuardViolatedError,
    NeverReachedError,
    NoEpisodesError,
    NotConvergedWarning,
    TelegraphError,
    TraceFormatError,
    ZeroMeanError,
)
from .filtering import (
    FilterConfig,
    posterior_update,
    propagate_prior,
    run_filter,
    step_matrix,
    trace_log_likelihood,
)
from .model import (
    Belief,
    PhotonCountModel,
    Pulse,
    TraceRecord,
    TransitionRates,
    normalize,
)
from .rategrid import (
    GridAxis,
    GridSpec,
    RateGrid,
    RateMarginals,
    RatePosterior,
    init_flat,
    marginal_rates,
    marginal_states,
    run_estimation,
    stopping_check,
    update,
)
from .rng import PortableRandom, derive_seed
from .simulate import (
    PulseSpec,
    SimConfig,
    apply_pulse,
    emit_photons,
    run_trace,
    run_trace_events,
)

# The names imported above, and no submodule.
__all__ = [
    "DwellStats", "OccupancySummary", "dwell_time", "integrate_rate_equations",
    "mean_occupancy", "optimal_repump_rate", "stationary_belief",
    "sweep_repump_rate", "time_to_target",
    "ControlDecision", "ControlPolicy", "decide_action", "kolmogorov_distance",
    "optimal_pulse_probability",
    "AllZeroError", "CapExceededError", "ConfigError", "EmptyEnsembleError",
    "GuardViolatedError", "NeverReachedError", "NoEpisodesError",
    "NotConvergedWarning", "TelegraphError", "TraceFormatError", "ZeroMeanError",
    "FilterConfig", "posterior_update", "propagate_prior", "run_filter",
    "step_matrix", "trace_log_likelihood",
    "Belief", "PhotonCountModel", "Pulse", "TraceRecord", "TransitionRates",
    "normalize",
    "GridAxis", "GridSpec", "RateGrid", "RateMarginals", "RatePosterior",
    "init_flat", "marginal_rates", "marginal_states", "run_estimation",
    "stopping_check", "update",
    "PortableRandom", "derive_seed",
    "PulseSpec", "SimConfig", "apply_pulse", "emit_photons", "run_trace",
    "run_trace_events",
]
