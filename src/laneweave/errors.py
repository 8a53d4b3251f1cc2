"""Exception types shared across the package."""


class LaneweaveError(Exception):
    """Base class for all package errors.

    Errors pickle with their message and attributes, so that one raised
    in a worker process reaches the caller unchanged.
    """

    def __reduce__(self):
        # not type(self)(*self.args): a subclass's __init__ may take
        # other arguments than the message it stores in args
        return _rebuild_error, (type(self), self.args, self.__dict__)


def _rebuild_error(cls, args, attributes):
    error = cls.__new__(cls, *args)
    error.__dict__.update(attributes)
    return error


class ArgumentUsageError(LaneweaveError, ValueError):
    """A run argument or setting is outside the range the library accepts."""


class InvalidSampleError(LaneweaveError):
    """A drive-log sample has unusable lane-marking distances."""

    def __init__(self, dist_left, dist_right, message=None):
        self.dist_left = dist_left
        self.dist_right = dist_right
        super().__init__(
            message
            or f"invalid marking distances: left={dist_left!r} right={dist_right!r}"
        )


class EmptySeriesError(LaneweaveError):
    """Too few usable samples to build a series."""


class SchemaError(LaneweaveError):
    """An input file does not match the expected schema."""

    def __init__(self, message, *, column=None, row=None):
        self.column = column
        self.row = row
        super().__init__(message)


class CalibrationError(LaneweaveError):
    """Calibration cannot proceed on the given data."""


class ModelFormatError(LaneweaveError):
    """A model file is unreadable, unsupported, or violates an invariant."""


class MetricError(LaneweaveError):
    """A snippet is too short for metric computation."""


class EvaluationError(LaneweaveError):
    """An evaluation run cannot produce a report."""


class SyntheticSpecError(LaneweaveError):
    """A synthetic model description is inconsistent."""
