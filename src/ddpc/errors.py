"""Exception types shared across the package."""

__all__ = [
    "DdpcError",
    "DimensionMismatch",
    "DepthExceedsLength",
    "RankDeficient",
    "Diverged",
    "MissingBaseline",
    "ConfigError",
    "MalformedData",
]


class DdpcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DdpcError, ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DepthExceedsLength(DdpcError, ValueError):
    """A Hankel depth larger than the signal length was requested."""


class RankDeficient(DdpcError, ValueError):
    """Data lacks the excitation needed for the requested fit.

    Typically caused by an input signal that is not persistently exciting
    of sufficient order: its Hankel matrix over the combined horizon lacks
    full row rank.
    """


class Diverged(DdpcError, RuntimeError):
    """A simulated trajectory left the numerically sane region."""


class MissingBaseline(DdpcError, ValueError):
    """Cost normalization was requested against a controller with no runs."""


class ConfigError(DdpcError, ValueError):
    """An experiment configuration file is malformed or incomplete."""


class MalformedData(DdpcError, ValueError):
    """A data file holds a row that does not parse or a non-finite sample."""
