"""Exception classes shared by all dofcount modules, one per CLI exit code.

* ``ValidationError`` -- the caller handed us bad input (malformed spec,
  unknown variable, deck file that does not parse, ...).  The CLI maps
  these to exit code 2.
* ``InvariantError`` -- an internal consistency condition failed (empty
  subdeck on a live state, non-finite probability matrix, ...).  The CLI
  maps these to exit code 3.

``cli.UsageError`` (a bad command line, exit code 1) is the third.  The
message says which check failed; ``SchemaViolationError`` is the one
``ValidationError`` that also names the deck-file field at fault.
"""


class DofcountError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DofcountError):
    """Input failed validation."""


class InvariantError(DofcountError):
    """An internal invariant was violated."""


class SchemaViolationError(ValidationError):
    """Deck file JSON does not match the expected schema; ``field`` names where."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
