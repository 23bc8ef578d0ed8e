"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, numerical failures exit 3.
"""


class SplineIdsError(Exception):
    """Base class for every error raised by this package."""


class EmptySampleError(SplineIdsError):
    """A quantile was requested from an empty sample."""


class DegenerateKnotsError(SplineIdsError):
    """Quantile knots coincide (e.g. near-constant sample)."""


class OutOfDomainError(SplineIdsError):
    """Evaluation point lies outside the function's domain."""


class InsufficientDataError(SplineIdsError):
    """Too few data points, or training labels of one class, for the requested fit."""


class InvalidAbscissaeError(SplineIdsError):
    """Interpolation abscissae are not strictly increasing."""


class BadIndexError(SplineIdsError):
    """Basis-function index out of range for the given order."""


class EmptyDataError(SplineIdsError):
    """An operation received no data rows."""


class ShapeError(SplineIdsError):
    """Dimension mismatch between arrays that must align."""


class ConfigError(SplineIdsError):
    """Invalid configuration value; the message names the field."""


class ParseError(SplineIdsError):
    """Malformed input file; the message carries the line number."""


class SplitError(SplineIdsError):
    """A train/test split would leave one side empty."""


class ModelLoadError(SplineIdsError):
    """Model file is corrupt, truncated, or of an unsupported version."""


class NumericalError(SplineIdsError):
    """A numerical routine failed (non-finite values, singular systems)."""
