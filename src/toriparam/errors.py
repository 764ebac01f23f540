"""Exception hierarchy shared by all toriparam modules."""


class ToriparamError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(ToriparamError):
    pass


class DimensionMismatch(ToriparamError):
    pass


class NotFullDimensional(ToriparamError):
    pass


class NonIntegerInput(ToriparamError, ValueError):
    """A coordinate, offset, dimension or system coefficient of the wrong
    type (floats and bools included; coefficients may be "p/q" strings)."""


class UnsupportedDimension(ToriparamError):
    pass


class PointOutsidePolytope(ToriparamError):
    pass


class NotInSupport(ToriparamError):
    pass


class VariableCountMismatch(ToriparamError):
    pass


class LengthMismatch(ToriparamError):
    pass


class NotUnivariate(ToriparamError):
    pass


class ZeroPolynomial(ToriparamError):
    pass


class ParseError(ToriparamError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroScalar(ToriparamError):
    pass


class NonConstantScalar(ToriparamError):
    pass


class NotEquivalent(ToriparamError):
    pass


class NonConstantRatio(ToriparamError):
    pass


class NotARefinement(ToriparamError):
    pass


class NoPreimage(ToriparamError):
    pass


class NotMonomialSystem(ToriparamError):
    pass


class MultiParameterUnsupported(ToriparamError):
    pass


class IncompleteHints(ToriparamError):
    pass


class BudgetExceeded(ToriparamError):
    """A valid request needs more work than a fixed search cap allows."""


class InternalError(RuntimeError):
    """An invariant of the package's own algorithms failed: a bug, not bad
    input.  Deliberately not a ToriparamError, so that callers who catch
    input errors do not swallow it."""
