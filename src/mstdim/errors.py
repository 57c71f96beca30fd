"""Exception hierarchy shared by the whole toolkit.

Every error carries the process exit code the CLI maps it to:
2 input error, 3 check failed, 4 estimation failed, 5 resource limit.
"""


class ToolkitError(Exception):
    exit_code = 1


class InputError(ToolkitError):
    """Invalid parameters, malformed files, dimension mismatches."""

    exit_code = 2


class CheckFailedError(ToolkitError):
    """A verification suite found a violated property."""

    exit_code = 3


class EstimationError(ToolkitError):
    """Dimension estimation could not produce a value.

    Carries the fit diagnostics gathered before the failure in ``details``.
    """

    exit_code = 4

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class InsufficientScalesError(EstimationError):
    """Fewer than the required number of usable scales survived windowing."""


class ResourceError(ToolkitError):
    """The point budget (DEFAULT_POINT_BUDGET) would be exceeded."""

    exit_code = 5
