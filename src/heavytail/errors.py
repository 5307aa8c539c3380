"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical-instability problems exit 3, anything else is an ordinary
failure. Parameter/domain/input/capacity errors subclass ValueError so
generic callers can catch them the usual way.
"""


class HeavytailError(Exception):
    """Base class for package errors."""


class ParameterError(HeavytailError, ValueError):
    """A distribution or statistic parameter is outside its valid range."""


class DomainError(HeavytailError, ValueError):
    """An evaluation point lies outside the supported domain."""


class InputError(HeavytailError, ValueError):
    """A data sequence or argument combination is malformed."""


class CapacityError(HeavytailError, ValueError):
    """A request exceeds a documented size guard (exact tables, exact-arithmetic oracles)."""


class InstabilityError(HeavytailError, ArithmeticError):
    """A computation is numerically meaningless (e.g. near-zero resampling mean)."""


class ConfigError(HeavytailError):
    """An experiment configuration file or CLI flag set is invalid."""


class PlotDataError(ConfigError):
    """A CSV handed to the plotter cannot be parsed; message carries path and line."""
