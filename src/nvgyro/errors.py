"""The one domain error, ConfigError, and the input-error rule.

Every value check, of a config, a profile row, a flag or the data a
fit or the level model is given, raises ValueError; input_error reports
it against its source as ConfigError.
"""

from contextlib import contextmanager


class ConfigError(Exception):
    """Invalid input: a config, profile, flag or the data a run derives from them."""


@contextmanager
def input_error(source: str):
    """Report a ValueError of the body as ConfigError(source + its message)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{source}{exc}") from None
