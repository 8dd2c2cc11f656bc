"""Exception hierarchy shared across the simulator, attacks, and CLI, and
the field checks the config dataclasses raise them from."""

import math
import numbers


class GradlinkError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(GradlinkError):
    """A caller violated an operation's precondition (bad shapes, bad arguments)."""


class NumericalError(GradlinkError):
    """An iterative numerical routine failed to converge."""


class InputError(GradlinkError):
    """An external input file is missing, empty, or malformed."""


class ConfigError(GradlinkError):
    """An experiment configuration is inconsistent or contains unknown keys."""


class DivergedError(GradlinkError):
    """Training produced a non-finite loss."""


def is_integer(value) -> bool:
    """True for an integer that is not a bool (JSON true is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def require_integers(obj, minimums) -> None:
    """Raise ConfigError unless each named field of `obj` is an integer (not
    a bool) at or above its minimum."""
    for name, minimum in minimums.items():
        value = getattr(obj, name)
        if not is_integer(value) or value < minimum:
            raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_finite(obj, names) -> None:
    """Raise ConfigError unless each named field of `obj` is a finite real
    number (not a bool)."""
    for name in names:
        value = getattr(obj, name)
        if not is_finite_number(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
