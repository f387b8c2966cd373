"""Exception types shared across the package, and the sweep-count check."""
import numbers


class ConfigurationError(ValueError):
    """Invalid configuration: unsupported node family/count, bad config keys."""


class SolverError(RuntimeError):
    """An implicit node solve failed to converge."""

    def __init__(self, message, node=None, residual=None):
        super().__init__(message)
        self.node = node
        self.residual = residual


class DivergenceError(RuntimeError):
    """An iteration blew past the divergence guard."""


class AnalysisError(RuntimeError):
    """A stability-analysis matrix could not be assembled (singular system)."""


def _check_sweeps(K):
    """A sweep count ``K`` that is not an integer >= 0 is a ConfigurationError."""
    if not (isinstance(K, numbers.Integral) and K >= 0):
        raise ConfigurationError(f"K must be an integer >= 0, got {K!r}")
