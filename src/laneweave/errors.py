"""Exception types shared across the package, one per exit code of the
command line (see cli.EXIT_CODES)."""


class LaneweaveError(Exception):
    """Base class for all package errors."""


class ArgumentUsageError(LaneweaveError, ValueError):
    """A run argument, setting or library input is outside the range the
    library accepts, or an output path cannot be written."""


class SchemaError(LaneweaveError):
    """An input file (tour, config or model) is unreadable or off-format."""

    def __init__(self, message, *, column=None, row=None):
        self.column = column
        self.row = row
        super().__init__(message)


class InsufficientDataError(LaneweaveError):
    """The data are too few for the step: too few valid samples in a tour,
    no segments or transitions to calibrate from, or no snippets to evaluate."""
