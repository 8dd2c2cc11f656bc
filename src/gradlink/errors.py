"""Exception hierarchy shared across the simulator, attacks, and CLI, the
checks of JSON documents and of config fields that raise them, and
`read_input`, the one place the package reads a file: every config, grid
config, corpus, trace, sidecar and assignment file goes through it, so a
missing or malformed input of any kind is an InputError."""

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
    """A JSON document is not the object its format describes: a config or a
    grid config, or a run file, whose error `read_input` turns into an
    InputError naming the file."""


class DivergedError(GradlinkError):
    """Training produced a non-finite loss."""


def is_integer(value) -> bool:
    """True for an integer that is not a bool (JSON true is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a real number that is not a bool and that a float holds
    finitely: JSON gives an int of any length, and one beyond the float
    range is not finite. A numpy float of any width is checked as is."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def known_keys(doc, keys, what: str = "the document", required=None) -> dict:
    """`doc`, or ConfigError unless it is a JSON object whose keys are all in
    `keys` and include all of `required` (by default, all of `keys`). The
    message names `what` and the unknown or missing keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} is not a JSON object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {sorted(unknown)}")
    missing = [key for key in (keys if required is None else required) if key not in doc]
    if missing:
        raise ConfigError(f"missing keys in {what}: {missing}")
    return doc


def field(doc: dict, key: str, expected: str, ok):
    """`doc[key]`, or ConfigError saying it must be `expected` if not `ok`."""
    value = doc[key]
    if not ok(value):
        raise ConfigError(f"{key} must be {expected}, got {value!r:.80}")
    return value


def integer(minimum: int, maximum=float("inf")):
    """The rule of a field that is an integer (not a bool) in [`minimum`, `maximum`]."""
    bound = f">= {minimum}" if maximum == float("inf") else f"in [{minimum}, {maximum}]"
    return f"an integer {bound}", lambda v: is_integer(v) and minimum <= v <= maximum


def finite(bound: str, ok):
    """The rule of a field that is a finite real number (not a bool) for
    which `ok` holds, as `bound` says in words."""
    return f"a finite number {bound}", lambda v: is_finite_number(v) and ok(v)


def check_fields(obj, rules: dict) -> None:
    """ConfigError unless every field of the dataclass `obj` obeys its rule in
    `rules`, an (expected, ok) pair for `field`: the first field that does
    not, in field order, is named."""
    for key in vars(obj):
        field(vars(obj), key, *rules[key])


def read_input(path, kind: str, parse):
    """`parse(fh)` of the file at `path`, open for binary reading, a `kind`
    file: InputError "missing" if there is no such file, "malformed" for any
    error of the parse, a failed document check (ConfigError) included. Each
    parser decodes UTF-8 itself, so a file that is not UTF-8 is malformed
    (UnicodeDecodeError is a ValueError), and JSON nested too deep for
    `json.loads` (RecursionError) is malformed too."""
    p = Path(path)
    if not p.is_file():
        raise InputError(f"missing {kind} file: {p}")
    try:
        with open(p, "rb") as fh:
            return parse(fh)
    except (ConfigError, InputError, UsageError, KeyError, ValueError, TypeError,
            RecursionError) as exc:
        raise InputError(f"malformed {kind} file {p}: {exc}") from exc


def json_document(fh):
    """The UTF-8 JSON document that is the whole of the binary file `fh`."""
    return json.loads(fh.read().decode("utf-8"))
