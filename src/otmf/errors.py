"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""


class OtmfError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(OtmfError):
    """Invalid or inconsistent configuration values. Exit code 2."""


class ShapeMismatchError(OtmfError):
    """Structural mismatch between arrays, parameter layouts or model specs. Exit code 3."""


class DataError(OtmfError):
    """Missing, empty, or malformed data. Exit code 3."""


class NumericalError(OtmfError):
    """Non-finite values or solver breakdown. Exit code 4.

    model, when set, indexes the failing model among models computed
    together as one stack.
    """

    def __init__(self, message: str, model: int | None = None):
        super().__init__(message)
        self.model = model
