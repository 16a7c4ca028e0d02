"""Contrast algebra for multi-treatment studies.

A contrast assigns one coefficient per treatment, with the coefficients
summing to zero.  Its sign pattern splits the treatments into a positive and
a negative group (a bifurcation), and :func:`assignment_indicators` reads
that pattern as each unit's group.  :func:`bifurcation_span_contains` states
the balance guarantee: balancing on a set of bifurcations balances every
bifurcation in the span of their parts.

Coefficients entered as integers, :class:`~fractions.Fraction` objects, or
strings such as ``"1/2"`` or ``"0.25"`` are stored as exact rationals and all
derived arithmetic stays exact.  Any float input switches the contrast to
double precision with a 1e-12 zero-sum tolerance.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from .data import _check_shape, _whole_labels
from .errors import (
    AllZero,
    DegenerateBifurcation,
    DimensionMismatch,
    EmptyFile,
    InvalidArgument,
    NotAContrast,
    OutOfRangeTreatment,
    ParseError,
    TooShort,
)

__all__ = [
    "Contrast",
    "Bifurcation",
    "sgn_bifurcate",
    "assignment_indicators",
    "bifurcation_span_contains",
    "parse_contrast",
    "read_contrast_file",
]

ZERO_SUM_TOL = 1e-12


# an ASCII p/q rational (q not 0) or decimal: what Fraction reads, less its
# digit separators and non-ASCII digits.  No two parts can match the same
# digits, so a long token is matched in linear time.
_NUMBER = re.compile(
    r"[-+]?(?:(?P<p>[0-9]+)/(?P<q>0*[1-9][0-9]*)"
    r"|(?:(?P<whole>[0-9]+)(?:\.(?P<part>[0-9]*))?|\.(?P<tail>[0-9]+))"
    r"(?:[eE](?P<exp>[-+]?[0-9]+))?)"
)
# Python's default limit on the digits of an int read from or written as
# text: a coefficient's numerator and denominator stay within it, so that
# every parsed contrast can be described
_MAX_DIGITS = 4300
# an exact coefficient's numerator's magnitude and its denominator stay below this
_DIGITS_BOUND = 10 ** _MAX_DIGITS


def _too_long(number: re.Match) -> bool:
    """Whether a token ``_NUMBER`` matched needs more than ``_MAX_DIGITS`` digits.

    It is decided on the text, before ``Fraction`` reads the digits or
    builds ``10**exponent``.  A ``p/q`` needs the digits of ``p`` and of
    ``q``.  A decimal is its digits times ``10**shift``: it needs its digits
    and its exponent as written, its significant digits plus a positive
    shift (its numerator), and one more than a negative shift's size (its
    denominator, at most).
    """
    if number["q"] is not None:
        return max(len(number["p"]), len(number["q"])) > _MAX_DIGITS
    places = number["part"] or number["tail"] or ""
    digits = (number["whole"] or "") + places
    exponent = number["exp"] or "0"
    if max(len(digits), len(exponent)) > _MAX_DIGITS:
        return True
    shift = int(exponent) - len(places)
    return len(digits.lstrip("0")) + shift > _MAX_DIGITS or -shift >= _MAX_DIGITS


def _coerce(value):
    """Normalise one coefficient: exact kinds to Fraction, floats stay float.

    A string that is not an ASCII decimal or ``p/q`` rational (``1_0`` and
    ``١`` are not), or one too long to read or describe exactly (more than
    4300 digits written, or in its numerator or denominator: ``1e4300``; see
    :func:`_too_long`), is a ParseError, and a bool or an object of any
    other kind a NotAContrast.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, str):
        number = _NUMBER.fullmatch(value.strip())
        if not number:
            raise ParseError(f"cannot parse coefficient {reprlib.repr(value)}")
        if _too_long(number):
            raise ParseError(
                f"coefficient {reprlib.repr(value)} needs more than {_MAX_DIGITS} digits"
            )
        return Fraction(value.strip())
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise NotAContrast(f"coefficients must be numbers, got {reprlib.repr(value)}")


def _coerce_all(values) -> tuple:
    """Every entry of ``values`` by :func:`_coerce`; ``values`` that cannot
    be iterated (a number, say) raise NotAContrast."""
    try:
        entries = iter(values)
    except TypeError:
        raise NotAContrast(
            f"coefficients must be a sequence of numbers, got {reprlib.repr(values)}"
        ) from None
    return tuple(_coerce(v) for v in entries)


def _sgn(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


@dataclass(frozen=True, slots=True, repr=False)
class Contrast:
    """A vector of per-treatment coefficients that sums to zero.

    Parameters
    ----------
    coefficients:
        One entry per treatment.  Ints, Fractions and strings are exact;
        floats put the contrast in double-precision mode.  Anything that is
        not a sequence of these (a bool, say) is a NotAContrast (a string
        that is not an ASCII decimal or ``p/q`` rational, a ParseError).
    label:
        Optional short name used in reports.

    The read-only ``_signs`` table holds 0 and then the sign of each
    coefficient, so that it maps a 1-based treatment label to the label's
    group indicator.
    """

    coefficients: tuple
    label: str | None = None
    _signs: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = _coerce_all(self.coefficients)
        if len(coeffs) < 2:
            raise TooShort(f"a contrast needs at least 2 treatments, got {len(coeffs)}")
        for i, v in enumerate(coeffs):
            # compared as ints: str() of so long an int raises a bare ValueError
            if isinstance(v, Fraction) and max(abs(v.numerator), v.denominator) >= _DIGITS_BOUND:
                raise NotAContrast(f"coefficient {i + 1} needs more than {_MAX_DIGITS} digits")
        if not all(isinstance(v, Fraction) for v in coeffs):
            try:
                coeffs = tuple(float(v) for v in coeffs)
                finite = all(np.isfinite(v) for v in coeffs)
            except OverflowError:  # an exact coefficient beyond the float range
                finite = False
            if not finite:
                raise NotAContrast("coefficients must be finite")
        if all(v == 0 for v in coeffs):
            raise AllZero("all coefficients are zero")
        total = sum(coeffs)
        if isinstance(total, Fraction):
            if total != 0:
                try:
                    text = str(total)
                except ValueError:  # past Python's limit on an int's digits
                    text = f"a number of more than {_MAX_DIGITS} digits"
                raise NotAContrast(f"coefficients sum to {text}, expected 0")
        elif abs(total) > ZERO_SUM_TOL:
            raise NotAContrast(f"coefficients sum to {total!r}, expected 0")
        object.__setattr__(self, "coefficients", coeffs)
        signs = np.array([0] + [_sgn(v) for v in coeffs], dtype=int)
        signs.setflags(write=False)
        object.__setattr__(self, "_signs", signs)

    @property
    def num_treatments(self) -> int:
        return len(self.coefficients)

    @property
    def is_exact(self) -> bool:
        """True when every coefficient is held as an exact rational."""
        return isinstance(self.coefficients[0], Fraction)

    def sign(self) -> tuple[int, ...]:
        """Componentwise sign vector in {-1, 0, +1}."""
        return tuple(self._signs[1:].tolist())

    def describe(self) -> str:
        """Label if present, else the coefficient tuple."""
        if self.label:
            return self.label
        return "(" + ", ".join(str(v) for v in self.coefficients) + ")"

    def __repr__(self):
        lab = f", label={self.label!r}" if self.label else ""
        return f"Contrast(({', '.join(str(v) for v in self.coefficients)}){lab})"


@dataclass(frozen=True, slots=True, repr=False)
class Bifurcation:
    """A split of treatments into a positive and a negative group.

    ``positive_part`` holds +1 for treatments in the positive group (0
    elsewhere); ``negative_part`` holds -1 for the negative group.  Each
    part is a vector read by the label rule of :class:`~csps.data.Dataset`,
    with entries in 0..1 and -1..0, else :class:`~csps.errors.InvalidArgument`,
    also a ``ValueError``, as is a treatment in both.  Both groups must be
    nonempty, because the score conditions on units assigned to one of the
    two groups.
    """

    positive_part: tuple[int, ...]
    negative_part: tuple[int, ...]

    def __post_init__(self):
        pos = _part(self.positive_part, 0, 1, "positive")
        neg = _part(self.negative_part, -1, 0, "negative")
        if len(pos) != len(neg):
            raise DimensionMismatch(
                f"part lengths differ: {len(pos)} vs {len(neg)}"
            )
        if any(p != 0 and n != 0 for p, n in zip(pos, neg)):
            raise InvalidArgument("a treatment cannot sit in both groups")
        if 1 not in pos or -1 not in neg:
            raise DegenerateBifurcation(
                "bifurcation must keep at least one positive and one negative treatment"
            )
        object.__setattr__(self, "positive_part", pos)
        object.__setattr__(self, "negative_part", neg)

    @property
    def num_treatments(self) -> int:
        return len(self.positive_part)

    def sign(self) -> tuple[int, ...]:
        """Componentwise sum of the two parts: the combined sign vector."""
        return tuple(p + n for p, n in zip(self.positive_part, self.negative_part))

    @property
    def positive_treatments(self) -> tuple[int, ...]:
        """1-based labels of the positive group."""
        return tuple(t + 1 for t, v in enumerate(self.positive_part) if v == 1)

    @property
    def negative_treatments(self) -> tuple[int, ...]:
        return tuple(t + 1 for t, v in enumerate(self.negative_part) if v == -1)

    def __repr__(self):
        return f"Bifurcation({self.positive_part}, {self.negative_part})"


def _part(values, least: int, most: int, side: str) -> tuple[int, ...]:
    """One part of a :class:`Bifurcation` as a tuple of ints in ``least..most``."""
    part = _whole_labels(values, least, most, InvalidArgument, f"{side} part value")
    _check_shape(part, (None,), InvalidArgument, f"the {side} part must be a vector")
    return tuple(part.tolist())


def sgn_bifurcate(contrast: Contrast) -> Bifurcation:
    """Split treatments by coefficient sign.

    Positive coefficients map to the positive group, negative ones to the
    negative group, zeros to neither.
    """
    signs = contrast.sign()
    pos = tuple(1 if s > 0 else 0 for s in signs)
    neg = tuple(-1 if s < 0 else 0 for s in signs)
    return Bifurcation(pos, neg)


def assignment_indicators(contrast: Contrast, treatments) -> np.ndarray:
    """Group indicator of each unit: the sign of its treatment's coefficient.

    Labels in 1..T follow the label rule of :class:`~csps.data.Dataset`
    and form a vector, else OutOfRangeTreatment."""
    T = contrast.num_treatments
    w = _whole_labels(treatments, 1, T, OutOfRangeTreatment, "treatment label")
    _check_shape(w, (None,), OutOfRangeTreatment, "treatment labels must be a vector")
    # label t reads entry t, so no shifted copy of the labels is made
    return contrast._signs[w]


# ---------------------------------------------------------------------------
# span membership


def matrix_rank(rows) -> int:
    """Rank of a stack of row vectors, by Gaussian elimination over exact rationals."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def bifurcation_span_contains(basis: Iterable[Bifurcation], target: Bifurcation) -> bool:
    """True when both parts of ``target`` lie in the row span of ``basis``.

    The span is taken over all positive and negative part vectors of the
    basis bifurcations; membership is a rank comparison (exact, since part
    vectors are integers).
    """
    basis = list(basis)
    T = target.num_treatments
    for b in basis:
        if b.num_treatments != T:
            raise DimensionMismatch("all bifurcations must share the same length")
    base_rows = []
    for b in basis:
        base_rows.append(b.positive_part)
        base_rows.append(b.negative_part)
    extended = base_rows + [target.positive_part, target.negative_part]
    return matrix_rank(extended) == matrix_rank(base_rows)


# ---------------------------------------------------------------------------
# contrast files

# One contrast per line: whitespace-separated coefficients, each a decimal or
# a p/q rational, optionally followed by "# label".  Full-line comments start
# with "#".


def parse_contrast(text: str, label: str | None = None) -> Contrast:
    """Parse one whitespace-separated coefficient line."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty contrast expression")
    return Contrast(tokens, label)


def read_contrast_file(path) -> list[Contrast]:
    """Read a contrast file; returns the contrasts in file order.

    A contrast is named by :meth:`Contrast.describe`, and output columns
    are keyed by that name, so two contrasts of one name are a ParseError.
    """
    contrasts = []
    lines = {}  # the line of each name
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            expr, _, comment = line.partition("#")
            label = comment.strip() or None
            try:
                contrast = parse_contrast(expr, label)
            except (ParseError, NotAContrast, AllZero, TooShort) as exc:
                raise type(exc)(f"{path}, line {lineno}: {exc}") from exc
            name = contrast.describe()
            if name in lines:
                raise ParseError(
                    f"{path}, lines {lines[name]} and {lineno}: both contrasts are named {name!r}"
                )
            lines[name] = lineno
            contrasts.append(contrast)
    if not contrasts:
        raise EmptyFile(f"{path}: no contrasts found")
    return contrasts
