"""Exception classes shared by all dofcount modules, one per CLI exit code.

* ``ValidationError`` -- the caller handed us bad input (malformed spec,
  unknown variable, deck file that does not parse, ...).  The CLI maps
  these to exit code 2.
* ``InvariantError`` -- an internal consistency condition failed (a draw
  past the subdeck total, non-finite probability matrix, ...).  The CLI
  maps these to exit code 3.

``cli.UsageError`` (a bad command line, exit code 1) is the third.  The
message says which check failed; a deck-file fault's message starts with
the field at fault, as in ``cards[0].count: must be an integer >= 1``.
"""


class DofcountError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DofcountError):
    """Input failed validation."""


class InvariantError(DofcountError):
    """An internal invariant was violated."""
