"""Exception types raised across the package."""


class Hh1LieError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(Hh1LieError):
    """Operands live in different ambient spaces or characteristics."""


class AssociativityViolation(Hh1LieError):
    def __init__(self, i, j, k):
        self.triple = (i, j, k)
        super().__init__(f"associativity fails on basis triple ({i}, {j}, {k})")


class UnitViolation(Hh1LieError):
    def __init__(self, i):
        self.index = i
        super().__init__(f"unit law fails on basis element {i}")


class IdempotentViolation(Hh1LieError):
    """The idempotents an algebra carries are not a complete orthogonal set splitting its basis."""


class CounitViolation(Hh1LieError):
    """The supplied counit is not an algebra map onto GF(p)."""


class RadicalUnavailable(Hh1LieError):
    """Neither a counit nor radical generators were supplied."""


class RadicalInvalid(Hh1LieError):
    """Supplied radical is not nilpotent or the quotient is not split semisimple."""


class NonSplitCenter(Hh1LieError):
    """The semisimple quotient of the center does not split over GF(p)."""


class InfiniteDimensionalQuotient(Hh1LieError):
    """Path saturation exceeded its bound; the quotient is not finite-dimensional."""


class WellDefinednessFailure(Hh1LieError):
    """A map extended from generator values fails the Leibniz rule."""


class RestrictednessViolation(Hh1LieError):
    """ad(x^[p]) differs from ad(x)^p for some basis element."""


class JsonFormatError(Hh1LieError):
    """A JSON document does not match the documented schema."""
