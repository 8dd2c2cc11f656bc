"""Exception hierarchy shared across the simulator, attacks, and CLI, the
field checks the config dataclasses raise them from, and `read_input`, the
one place the package reads a file: every config, grid config, corpus,
trace, sidecar and assignment file goes through it, so a missing or
malformed input of any kind is an InputError."""

import json
import math
import numbers
from pathlib import Path


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


def read_input(path, kind: str, parse):
    """`parse(fh)` of the file at `path`, open for binary reading, a `kind`
    file: InputError "missing" if there is no such file, "malformed" for any
    error of the parse. Each parser decodes UTF-8 itself, so a file that is
    not UTF-8 is malformed (UnicodeDecodeError is a ValueError), and JSON
    nested too deep for `json.loads` (RecursionError) is malformed too."""
    p = Path(path)
    if not p.is_file():
        raise InputError(f"missing {kind} file: {p}")
    try:
        with open(p, "rb") as fh:
            return parse(fh)
    except (InputError, UsageError, KeyError, ValueError, TypeError, RecursionError) as exc:
        raise InputError(f"malformed {kind} file {p}: {exc}") from exc


def json_document(fh):
    """The UTF-8 JSON document that is the whole of the binary file `fh`."""
    return json.loads(fh.read().decode("utf-8"))
