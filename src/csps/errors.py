"""Exception hierarchy for the csps package.

Every error raised by the library derives from :class:`CspsError`, so callers
can catch the whole family with one clause while tests pin the exact type.
Errors in what a caller supplied derive from :class:`InputError` as well.
"""


class CspsError(Exception):
    """Base class for all csps errors."""


class InputError(CspsError):
    """Base class for errors in a caller's files, contrasts or labels."""


class InvalidArgument(InputError, ValueError):
    """An argument of the wrong shape, type or range, such as labels that
    are not 0/1 or a negative ridge; also a ``ValueError``, which callers
    may catch as before."""


# ---------------------------------------------------------------------------
# contrast algebra


class NotAContrast(InputError):
    """Coefficients are not a sequence of finite numbers or do not sum to
    zero, or a contrast argument is not a :class:`~csps.contrasts.Contrast`
    at all."""


class AllZero(InputError):
    """Every coefficient of the (would-be) contrast is zero."""


class TooShort(InputError):
    """Fewer than two treatments."""


class DimensionMismatch(InputError):
    """Operands do not share the same number of treatments or features."""


class DegenerateBifurcation(CspsError):
    """A bifurcation lost its positive or its negative group entirely."""


class OutOfRangeTreatment(InputError):
    """A treatment label lies outside 1..T, is not a whole number, or is not
    the one label or the vector of labels that was asked for."""


# ---------------------------------------------------------------------------
# data ingestion


class ParseError(InputError):
    """A file token could not be interpreted (non-numeric covariate, etc.)."""


class MissingValue(InputError):
    """A covariate entry is blank or non-finite."""


class EmptyFile(InputError):
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


# ---------------------------------------------------------------------------
# balancing


class UndefinedScores(CspsError):
    """A balancing score is undefined on a unit that the target needs."""


class TooFewUnits(CspsError):
    """Not enough eligible units to build valid subclasses."""


class EmptyGroup(CspsError):
    """A required comparison group contains no units."""


# the command line's exit 2; any other CspsError is a failure to estimate or
# balance.  ValueError stays: open() refuses a path with a NUL byte as one
INPUT_ERRORS = (InputError, OSError, ValueError, MemoryError)
