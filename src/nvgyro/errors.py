"""Exception hierarchy shared across the package, and the input-error rule."""

from contextlib import contextmanager


class GyroSimError(Exception):
    """Base class for all domain errors raised by nvgyro."""


class SingularSplittingError(GyroSimError, ValueError):
    """Raised when D**2 - (gamma_e*B)**2 is too close to zero.

    Signals the ground-state level-anticrossing regime where the
    second-order hyperfine correction diverges.  A ValueError, so that
    input_error reports it against the input that set the field.
    """


class ConfigError(GyroSimError):
    """Invalid configuration file or configuration values."""


@contextmanager
def input_error(source: str):
    """Report a ValueError of the body as ConfigError(source + its message)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{source}{exc}") from None


class InsufficientSpanError(GyroSimError):
    """Fringe data too short, too sparse, or degenerate to fit."""


class FitConvergenceError(GyroSimError):
    """Nonlinear least squares failed to converge."""


class NonUniformGridError(GyroSimError):
    """Operation requires uniformly spaced samples."""
