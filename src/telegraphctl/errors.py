"""Exception types shared across the package."""


class TelegraphError(Exception):
    """Base class for all package-specific errors."""


class AllZeroError(TelegraphError):
    """Every weight underflowed to zero; the caller must switch to a
    log-domain path or treat the update as numerically collapsed."""


class GuardViolatedError(TelegraphError):
    """The linearized propagation step is outside its validity region
    (rate * dt too large). Shrink dt or use the exact-exponential mode."""


class NotStochasticError(TelegraphError):
    """A matrix expected to be column-stochastic is not."""


class CapExceededError(TelegraphError):
    """Requested grid would exceed the configured memory cap."""


class ZeroMeanError(TelegraphError):
    """A rate marginal has zero mean but positive spread; the relative
    uncertainty is undefined."""


class NoEpisodesError(TelegraphError):
    """The target state was never dominant; no dwell episodes exist."""


class NeverReachedError(TelegraphError):
    """A trace never reached target dominance."""


class EmptyEnsembleError(TelegraphError):
    """An aggregation was asked for on an empty collection."""


class ConfigError(TelegraphError):
    """Invalid configuration file or option; message is line-precise
    where a file is involved."""


class TraceFormatError(TelegraphError, ValueError):
    """A trace file is malformed; the message names the offending line."""


class NotConvergedWarning(UserWarning):
    """Rate estimation exhausted the data before the stopping rule fired."""
