"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: UsageError -> 1, ParseError -> 2,
ContractViolation -> 3. Anything else is a bug. Every warning the library
issues is a HierkitWarning, which the CLI prints as a ``warning:`` line.
"""


class HierkitError(Exception):
    """Base class for all toolkit errors."""


class UsageError(HierkitError):
    """The command cannot run as given: a bad flag or flag combination, or
    an output path that cannot be written."""


class ParseError(HierkitError):
    """Malformed input file content."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ContractViolation(HierkitError):
    """An operation was invoked outside its documented preconditions."""


class StructureError(ContractViolation):
    """The class hierarchy is structurally unusable (cycle, no root)."""


class HierkitWarning(RuntimeWarning):
    """Degenerate but valid input, or a solver that stopped unconverged:
    the result is still returned."""
