"""Exception hierarchy shared across the simulator, attacks, and CLI."""


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
