"""Exception types shared across the package."""


class SpinorError(Exception):
    """Base class for all package errors."""


class SchemaError(SpinorError):
    """Malformed input data (fixture files, CLI arguments)."""


class PreconditionError(SpinorError):
    """An operation was called outside its stated preconditions."""


class InvariantError(SpinorError):
    """An internal cross-check failed: two computations that must agree
    did not.  This is a bug in the package, not in the input."""


class SpanError(InvariantError):
    """An element fell outside the span it was required to lie in, the
    ``witness``.  Every such span is an internal invariant (a module's
    action, maps and sections), so a run records it and the CLI exits 1."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
