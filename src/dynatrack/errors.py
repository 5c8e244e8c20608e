"""Exception hierarchy shared across the package."""


class DynatrackError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(DynatrackError):
    """A config value, file, or model parameter is invalid."""


class ContractViolationError(DynatrackError):
    """A caller broke an operation precondition (shapes, frame order)."""


class NumericalError(DynatrackError):
    """A filter state or step failed beyond recovery (a non-finite predicted
    state, an innovation variance that is not finite and positive)."""


class InsufficientDataError(DynatrackError):
    """Not enough samples buffered to estimate motion dynamics."""


class ParseError(DynatrackError):
    """A data file line could not be parsed; message carries line/column."""


class InputError(DynatrackError):
    """An input the operation cannot use (e.g. no ground truth to occlude by)."""


class UndefinedMetricError(DynatrackError):
    """A metric has no defined value for the given input (e.g. empty ground truth)."""
