"""Exception hierarchy shared across the package, and the input-error rule.

Every value check, of a config, a profile row, a flag or the data a
fit or the level model is given, raises ValueError; input_error reports
it against its source.  FitConvergenceError is the one algorithm failure.
"""

from contextlib import contextmanager


class GyroSimError(Exception):
    """Base class for all domain errors raised by nvgyro."""


class ConfigError(GyroSimError):
    """Invalid configuration file or configuration values."""


@contextmanager
def input_error(source: str):
    """Report a ValueError of the body as ConfigError(source + its message)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{source}{exc}") from None


class FitConvergenceError(GyroSimError):
    """Nonlinear least squares failed to converge."""
