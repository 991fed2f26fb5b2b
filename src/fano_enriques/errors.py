"""Exception hierarchy.

Everything raised on purpose derives from EngineError, so callers can
catch one type at the CLI boundary.  InternalConsistencyError is the
exception to the rule in spirit: it signals a bug in the engine itself
(two routes to the same quantity disagreed), not bad user input.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulusError(EngineError):
    """Modulus must be a positive integer."""


class NoInverseError(EngineError):
    """Element is not a unit modulo r."""


class NotTerminalError(EngineError):
    """Quotient singularity data does not reduce to type 1/r(1,a,r-a)."""


class InconsistentMarkingError(EngineError):
    """Torsion marking incompatible with the chosen torsion order."""


class IncompatibleSeriesError(EngineError):
    """Binary operation on series with mismatched torsion order or truncation."""


class NonInvertibleFactorError(EngineError):
    """Attempted to divide by a factor with zero t-degree."""


class UnnormalizedResidualError(EngineError):
    """Residual series does not start at 1 in the identity component."""


class InconsistentDataError(EngineError):
    """Numerical data admits no plausible variety (negative or fractional plurigenus)."""


class InternalConsistencyError(EngineError):
    """Two independent computations of the same quantity disagree; engine bug."""


class InferenceFailureError(EngineError):
    """Series deviation is not an integer; no graded-ring presentation exists."""


class OutOfRangeError(EngineError):
    """Parameter outside the finite range the theory bounds it to."""


class MalformedInputError(EngineError, ValueError):
    """Text or JSON that does not parse into the value it should hold."""


class CatalogError(EngineError):
    """Catalog file missing, malformed, or failing validation."""
