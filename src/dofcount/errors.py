"""Exception hierarchy shared by all dofcount modules.

Two families matter for callers:

* ``ValidationError`` -- the caller handed us bad input (malformed spec,
  unknown variable, deck file that does not parse, ...).  The CLI maps
  these to exit code 2.
* ``InvariantError`` -- an internal consistency condition failed (empty
  subdeck on a live state, non-finite probability matrix, ...).  The CLI
  maps these to exit code 3.
"""


class DofcountError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DofcountError):
    """Input failed validation."""


class InvariantError(DofcountError):
    """An internal invariant was violated."""


# --- spec / deck construction ------------------------------------------------

class DuplicateNameError(ValidationError):
    """Repeated variable name, or repeated value name within one variable."""


class BadArityError(ValidationError):
    """A variable's value list has the wrong length."""


class EmptySpecError(ValidationError):
    """No variables, or fewer than two values per variable."""


class UnknownVariableError(ValidationError):
    """Variable name not present in the system spec."""


class UnknownValueError(ValidationError):
    """Value name not legal for the given variable."""


class IncompleteAssignmentError(ValidationError):
    """A card assignment is missing a value for some variable."""


class EmptyDeckError(ValidationError):
    """Operation requires a deck with at least one card."""


class EmptySubdeckError(InvariantError):
    """A box state's subdeck is empty; the state violates its invariant."""


# --- sequence statistics ------------------------------------------------------

class SingleVariableError(ValidationError):
    """Witness search needs at least two variables; V=1 systems are classical."""


class SameVariableError(ValidationError):
    """Pair statistics require two distinct variables."""


# --- quantum reference ---------------------------------------------------------

class BadDimensionError(ValidationError):
    """Quantum dimension must be at least 2."""


class DimensionMismatchError(ValidationError):
    """State and measurement basis have different dimensions."""


class DegenerateDrawError(InvariantError):
    """Random basis generation kept producing degenerate draws."""


# --- rank computation ----------------------------------------------------------

class RaggedMatrixError(ValidationError):
    """Probability matrix rows have differing lengths."""


class NonFiniteError(InvariantError):
    """Probability matrix contains NaN or infinity."""


# --- deck files -----------------------------------------------------------------

class DeckFileError(ValidationError):
    """Problem reading a deck file."""


class MalformedJsonError(DeckFileError):
    """Deck file is not valid JSON."""


class SchemaViolationError(DeckFileError):
    """Deck file JSON does not match the expected schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
