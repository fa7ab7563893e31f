"""Experiment configuration: flat ``key = value`` text with dotted sections.

The table ``_KEYS`` is the one list of keys: each row names a key, the
ExperimentConfig attribute it sets and the parser of its value, in
serialization order. parse_config and serialize_config both walk it, and
the CLI overrides are config lines fed to parse_config. All physical
quantities carry their unit in the key name (bin_time_ms, *_per_s).
Unknown keys and bad values are rejected with the offending line number,
so a typo cannot silently fall back to a default. parse/serialize
round-trip exactly: floats are written with repr().

The same photon model drives the simulator and the filter unless the
explicit mismatch override is set (robustness experiments only).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .control import DEFAULT_T_DEPUMP, DEFAULT_T_REPUMP, ControlPolicy
from .errors import AllZeroError, ConfigError
from .filtering import FilterConfig
from .model import Belief, PhotonCountModel, TransitionRates, normalize
from .rategrid import GridSpec
from .simulate import SimConfig

DEFAULT_MEAN_COUNTS = (40.0, 28.0, 16.0)
DEFAULT_RATES_OPEN_LOOP = TransitionRates(35.0, 50.0, 59.0, 0.0)
DEFAULT_RATES_FEEDBACK = TransitionRates(35.0, 50.0, 0.0, 0.0)
DEFAULT_SEED = 20260809


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = DEFAULT_SEED
    n_traces: int = 1
    bin_time_ms: float = 1.0
    n_bins: int = 5100
    initial_state: int = 2
    rates: TransitionRates = DEFAULT_RATES_OPEN_LOOP
    mean_counts: tuple[float, float, float] = DEFAULT_MEAN_COUNTS
    family: str = "poisson"
    fano: Optional[float] = None
    initial_belief: Belief = Belief(0.0, 0.0, 1.0)
    propagation: str = "linear"
    allow_model_mismatch: bool = False
    filter_mean_counts: Optional[tuple[float, float, float]] = None
    grid: GridSpec = field(default_factory=GridSpec)
    policy_mode: str = "simple"
    t_repump: float = DEFAULT_T_REPUMP
    t_depump: float = DEFAULT_T_DEPUMP
    target: Belief = Belief(0.0, 1.0, 0.0)

    @property
    def bin_time(self) -> float:
        return self.bin_time_ms * 1e-3

    def photon_model(self) -> PhotonCountModel:
        return PhotonCountModel(
            self.mean_counts, family=self.family, fano=self.fano, bin_time=self.bin_time
        )

    def filter_photon_model(self) -> PhotonCountModel:
        if self.filter_mean_counts is None:
            return self.photon_model()
        return PhotonCountModel(
            self.filter_mean_counts,
            family=self.family,
            fano=self.fano,
            bin_time=self.bin_time,
        )

    def sim_config(self, seed: Optional[int] = None) -> SimConfig:
        return SimConfig(
            rates=self.rates,
            photon_model=self.photon_model(),
            bin_time=self.bin_time,
            n_bins=self.n_bins,
            initial_state=self.initial_state,
            rng_seed=self.seed if seed is None else seed,
        )

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            photon_model=self.filter_photon_model(),
            rates=self.rates,
            bin_time=self.bin_time,
            initial_belief=self.initial_belief,
            propagation=self.propagation,
            repump_t=self.t_repump,
            depump_t=self.t_depump,
        )

    def control_policy(self) -> ControlPolicy:
        return ControlPolicy(
            mode=self.policy_mode,
            fixed_t_repump=self.t_repump,
            fixed_t_depump=self.t_depump,
            target=self.target,
        )


def feedback_defaults() -> ExperimentConfig:
    """Closed-loop defaults: pulses replace the continuous pumps."""
    return ExperimentConfig(
        rates=DEFAULT_RATES_FEEDBACK, n_bins=300, n_traces=100
    )


def _join(values) -> str:
    return ",".join(repr(x) for x in values)


def _number(cast):
    """Parser of one ``cast`` (int or float) value."""

    def parse(text: str, key: str):
        try:
            return cast(text)
        except ValueError:
            raise ValueError(
                f"cannot parse {key} value {text!r} as {cast.__name__}"
            ) from None

    return parse


_int, _float = _number(int), _number(float)


def _bin_time_ms(text: str, key: str) -> float:
    value = _float(text, key)
    if not 0.0 < value < math.inf:  # also false for NaN
        raise ValueError(f"{key} must be finite and > 0, got {value!r}")
    return value


def _text(text: str, key: str) -> str:
    return text


def _triple(text: str, key: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"{key} needs three comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{key} has a non-numeric component") from None


def _belief(text: str, key: str) -> Belief:
    weights = _triple(text, key)
    try:
        return normalize(weights)
    except (ValueError, AllZeroError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _bool(text: str, key: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"{key} must be true or false, got {text!r}")


# How each value parser's result is written back: numbers and text with
# str (repr for floats, so they round-trip exactly), triples and beliefs
# (which index like triples) as comma-joined reprs, a set flag as "true".
_FORMAT = {
    _int: str,
    _float: repr,
    _bin_time_ms: repr,
    _text: str,
    _triple: _join,
    _belief: _join,
    _bool: lambda flag: "true",
}

# The config language: key -> (ExperimentConfig attribute path, value
# parser), in serialization order.
_KEYS = {
    "run.seed": ("seed", _int),
    "run.n_traces": ("n_traces", _int),
    "sim.bin_time_ms": ("bin_time_ms", _bin_time_ms),
    "sim.n_bins": ("n_bins", _int),
    "sim.initial_state": ("initial_state", _int),
    "rates.r21_per_s": ("rates.r21", _float),
    "rates.r10_per_s": ("rates.r10", _float),
    "rates.repump_per_s": ("rates.r_repump", _float),
    "rates.depump_per_s": ("rates.r_depump", _float),
    "photon.mean_counts_per_bin": ("mean_counts", _triple),
    "photon.family": ("family", _text),
    "photon.fano": ("fano", _float),
    "filter.initial_belief": ("initial_belief", _belief),
    "filter.propagation": ("propagation", _text),
    "filter.allow_model_mismatch": ("allow_model_mismatch", _bool),
    "filter.mean_counts_per_bin": ("filter_mean_counts", _triple),
    "grid.r21.min_per_s": ("grid.r21.min", _float),
    "grid.r21.max_per_s": ("grid.r21.max", _float),
    "grid.r21.points": ("grid.r21.n_points", _int),
    "grid.r10.min_per_s": ("grid.r10.min", _float),
    "grid.r10.max_per_s": ("grid.r10.max", _float),
    "grid.r10.points": ("grid.r10.n_points", _int),
    "grid.repump.min_per_s": ("grid.r_repump.min", _float),
    "grid.repump.max_per_s": ("grid.r_repump.max", _float),
    "grid.repump.points": ("grid.r_repump.n_points", _int),
    "grid.max_cells": ("grid.max_cells", _int),
    "policy.mode": ("policy_mode", _text),
    "policy.t_repump": ("t_repump", _float),
    "policy.t_depump": ("t_depump", _float),
    "policy.target": ("target", _belief),
}


def parse_config(text: str, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Parse flat dotted-key config text on top of ``base`` (or defaults)."""
    cfg = base if base is not None else ExperimentConfig()
    changes: dict = {}  # nested by attribute path
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        path, parse = _KEYS[key]
        *parents, name = path.split(".")
        node = changes
        for parent in parents:
            node = node.setdefault(parent, {})
        try:
            node[name] = parse(value, key)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None

    try:
        cfg = _rebuild(cfg, changes)
        _validate(cfg)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _rebuild(obj, changes: dict):
    """``obj`` with the nested ``changes`` applied, rebuilding (and so
    re-validating) each changed dataclass once."""
    return replace(
        obj,
        **{
            name: _rebuild(getattr(obj, name), sub) if isinstance(sub, dict) else sub
            for name, sub in changes.items()
        },
    )


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.filter_mean_counts is not None and not cfg.allow_model_mismatch:
        raise ConfigError(
            "filter.mean_counts_per_bin requires filter.allow_model_mismatch = true"
        )
    if cfg.n_traces < 1:
        raise ConfigError("run.n_traces must be >= 1")
    # constructing the derived objects performs the remaining validation
    cfg.photon_model()
    cfg.filter_photon_model()
    cfg.sim_config()
    cfg.filter_config()
    cfg.control_policy()


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg. An optional value
    that is unset (None) or off (False) is left out."""
    lines = []
    for key, (path, parse) in _KEYS.items():
        value = functools.reduce(getattr, path.split("."), cfg)
        if value is not None and value is not False:
            lines.append(f"{key} = {_FORMAT[parse](value)}")
    return "\n".join(lines) + "\n"
