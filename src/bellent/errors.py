"""Exception types shared across the package.

The CLI maps these onto its exit codes (parameter 2, missing data 3, domain 4).
"""


class BellentError(Exception):
    """Base class for package errors."""


class ParameterError(BellentError):
    """An argument is outside its admissible range or has the wrong shape."""


class DomainError(BellentError):
    """The input is structurally valid but outside the operation's domain."""


class NotAnXStateError(DomainError):
    """Density matrix has support outside the diagonal and anti-diagonal."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(
            f"off-X entry at {index} has magnitude {abs(value):.3e} (limit 1e-9)")


class MissingDataError(BellentError):
    """A required input file or data directory is absent."""


class ParseError(BellentError):
    """A data file is malformed; `args[0]` is the message, `line` the offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        text = super().__str__()
        return text if self.line is None else f"line {self.line}: {text}"


class FitError(BellentError):
    """Least-squares or parameter estimation could not be performed."""
