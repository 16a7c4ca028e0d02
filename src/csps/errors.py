"""Exception hierarchy for the csps package.

Every error raised by the library derives from :class:`CspsError`, so callers
can catch the whole family with one clause while tests pin the exact type.
"""


class CspsError(Exception):
    """Base class for all csps errors."""


# ---------------------------------------------------------------------------
# contrast algebra


class NotAContrast(CspsError):
    """Coefficients do not sum to zero."""


class AllZero(CspsError):
    """Every coefficient of the (would-be) contrast is zero."""


class TooShort(CspsError):
    """Fewer than two treatments."""


class DimensionMismatch(CspsError):
    """Operands do not share the same number of treatments or features."""


class DegenerateBifurcation(CspsError):
    """A bifurcation lost its positive or its negative group entirely."""


class InvalidBounds(CspsError):
    """A lower boundary exceeds the matching upper boundary."""


class OutOfRangeTreatment(CspsError):
    """A treatment label lies outside 1..T."""


# ---------------------------------------------------------------------------
# data ingestion


class ParseError(CspsError):
    """A file token could not be interpreted (non-numeric covariate, etc.)."""


class MissingValue(CspsError):
    """A covariate entry is blank or non-finite."""


class EmptyFile(CspsError):
    """The input file contains no usable rows."""


# ---------------------------------------------------------------------------
# estimation


class OneClassOnly(CspsError):
    """Binary fit requested but the labels contain a single class."""


class SeparationDetected(CspsError):
    """The logistic likelihood has no finite maximiser; retry with ridge > 0."""


class SingularHessian(CspsError):
    """Newton update failed and step-halving could not rescue it."""


class NotConverged(CspsError):
    """A Newton fit reached its iteration limit with the gradient above tolerance."""


class ZeroDenominator(CspsError):
    """No probability mass on the treatments the contrast actually uses."""


# ---------------------------------------------------------------------------
# balancing


class UndefinedScores(CspsError):
    """A balancing score is undefined on a unit that the target needs."""


class TooFewUnits(CspsError):
    """Not enough eligible units to build valid subclasses."""


class EmptyGroup(CspsError):
    """A required comparison group contains no units."""
