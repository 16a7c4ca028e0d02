"""Contrast algebra for multi-treatment studies.

A contrast assigns one coefficient per treatment, with the coefficients
summing to zero.  Its sign pattern splits the treatments into a positive and
a negative group (a bifurcation); a bounded variant keeps a component only
when it falls strictly outside per-component boundaries.

Coefficients entered as integers, :class:`~fractions.Fraction` objects, or
strings such as ``"1/2"`` or ``"0.25"`` are stored as exact rationals and all
derived arithmetic stays exact.  Any float input switches the contrast to
double precision with a 1e-12 zero-sum tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AllZero,
    DegenerateBifurcation,
    DimensionMismatch,
    EmptyFile,
    InvalidBounds,
    NotAContrast,
    OutOfRangeTreatment,
    ParseError,
    TooShort,
)

__all__ = [
    "Contrast",
    "Bifurcation",
    "sgn_bifurcate",
    "bounded_bifurcate",
    "is_orthogonal",
    "linear_combination",
    "assignment_indicator",
    "assignment_indicators",
    "bifurcation_span_contains",
    "parse_contrast",
    "read_contrast_file",
]

ZERO_SUM_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-12


def _coerce(value):
    """Normalise one numeric entry: exact kinds to Fraction, floats stay float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, np.bool_)):
        return Fraction(int(value))
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse coefficient {value!r}") from exc
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


def _sgn(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


class Contrast:
    """A vector of per-treatment coefficients that sums to zero.

    Parameters
    ----------
    coefficients:
        One entry per treatment.  Ints, Fractions and strings are exact;
        floats put the contrast in double-precision mode.
    label:
        Optional short name used in reports.
    """

    __slots__ = ("coefficients", "label")

    def __init__(self, coefficients: Iterable, label: str | None = None):
        coeffs = tuple(_coerce(v) for v in coefficients)
        if len(coeffs) < 2:
            raise TooShort(f"a contrast needs at least 2 treatments, got {len(coeffs)}")
        if not all(isinstance(v, Fraction) for v in coeffs):
            coeffs = tuple(float(v) for v in coeffs)
            if not all(np.isfinite(v) for v in coeffs):
                raise NotAContrast("coefficients must be finite")
        if all(v == 0 for v in coeffs):
            raise AllZero("all coefficients are zero")
        total = sum(coeffs)
        if isinstance(total, Fraction):
            if total != 0:
                raise NotAContrast(f"coefficients sum to {total}, expected 0")
        elif abs(total) > ZERO_SUM_TOL:
            raise NotAContrast(f"coefficients sum to {total!r}, expected 0")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("Contrast is immutable")

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor
        return Contrast, (self.coefficients, self.label)

    @property
    def num_treatments(self) -> int:
        return len(self.coefficients)

    @property
    def is_exact(self) -> bool:
        """True when every coefficient is held as an exact rational."""
        return isinstance(self.coefficients[0], Fraction)

    def sign(self) -> tuple[int, ...]:
        """Componentwise sign vector in {-1, 0, +1}."""
        return tuple(_sgn(v) for v in self.coefficients)

    def describe(self) -> str:
        """Label if present, else the coefficient tuple."""
        if self.label:
            return self.label
        return "(" + ", ".join(str(v) for v in self.coefficients) + ")"

    def __eq__(self, other):
        if not isinstance(other, Contrast):
            return NotImplemented
        return self.coefficients == other.coefficients and self.label == other.label

    def __hash__(self):
        return hash((self.coefficients, self.label))

    def __repr__(self):
        lab = f", label={self.label!r}" if self.label else ""
        return f"Contrast(({', '.join(str(v) for v in self.coefficients)}){lab})"


class Bifurcation:
    """A split of treatments into a positive and a negative group.

    ``positive_part`` holds +1 for treatments in the positive group (0
    elsewhere); ``negative_part`` holds -1 for the negative group.  Both
    groups must be nonempty, because the score conditions on units assigned
    to one of the two groups.
    """

    __slots__ = ("positive_part", "negative_part")

    def __init__(self, positive_part: Sequence[int], negative_part: Sequence[int]):
        pos = tuple(int(v) for v in positive_part)
        neg = tuple(int(v) for v in negative_part)
        if len(pos) != len(neg):
            raise DimensionMismatch(
                f"part lengths differ: {len(pos)} vs {len(neg)}"
            )
        if any(v not in (0, 1) for v in pos):
            raise ValueError("positive part entries must be 0 or +1")
        if any(v not in (0, -1) for v in neg):
            raise ValueError("negative part entries must be 0 or -1")
        if any(p != 0 and n != 0 for p, n in zip(pos, neg)):
            raise ValueError("a treatment cannot sit in both groups")
        if 1 not in pos or -1 not in neg:
            raise DegenerateBifurcation(
                "bifurcation must keep at least one positive and one negative treatment"
            )
        object.__setattr__(self, "positive_part", pos)
        object.__setattr__(self, "negative_part", neg)

    def __setattr__(self, name, value):
        raise AttributeError("Bifurcation is immutable")

    def __reduce__(self):
        return Bifurcation, (self.positive_part, self.negative_part)

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

    def __eq__(self, other):
        if not isinstance(other, Bifurcation):
            return NotImplemented
        return (
            self.positive_part == other.positive_part
            and self.negative_part == other.negative_part
        )

    def __hash__(self):
        return hash((self.positive_part, self.negative_part))

    def __repr__(self):
        return f"Bifurcation({self.positive_part}, {self.negative_part})"


def sgn_bifurcate(contrast: Contrast) -> Bifurcation:
    """Split treatments by coefficient sign.

    Positive coefficients map to the positive group, negative ones to the
    negative group, zeros to neither.
    """
    signs = contrast.sign()
    pos = tuple(1 if s > 0 else 0 for s in signs)
    neg = tuple(-1 if s < 0 else 0 for s in signs)
    return Bifurcation(pos, neg)


def bounded_bifurcate(contrast: Contrast, lower: Sequence, upper: Sequence) -> Bifurcation:
    """Split treatments whose coefficients fall strictly outside the bounds.

    Component ``t`` keeps its sign only when ``coeff < lower[t]`` or
    ``coeff > upper[t]``; coefficients on or between the boundaries map to
    zero.  Raises :class:`DegenerateBifurcation` when the boundaries swallow
    one whole side, and :class:`InvalidBounds` when ``lower[t] > upper[t]``.
    """
    lo = tuple(_coerce(v) for v in lower)
    hi = tuple(_coerce(v) for v in upper)
    T = contrast.num_treatments
    if len(lo) != T or len(hi) != T:
        raise DimensionMismatch(
            f"bounds length must equal {T}, got {len(lo)} and {len(hi)}"
        )
    for t, (a, b) in enumerate(zip(lo, hi), start=1):
        if a > b:
            raise InvalidBounds(f"lower[{t}] = {a} exceeds upper[{t}] = {b}")
    kept = [
        _sgn(c) if (c < a or c > b) else 0
        for c, a, b in zip(contrast.coefficients, lo, hi)
    ]
    pos = tuple(1 if s > 0 else 0 for s in kept)
    neg = tuple(-1 if s < 0 else 0 for s in kept)
    return Bifurcation(pos, neg)


def is_orthogonal(a: Contrast, b: Contrast) -> bool:
    """True when the coefficient vectors have zero dot product."""
    if a.num_treatments != b.num_treatments:
        raise DimensionMismatch(
            f"contrasts have {a.num_treatments} and {b.num_treatments} treatments"
        )
    dot = sum(x * y for x, y in zip(a.coefficients, b.coefficients))
    if isinstance(dot, Fraction):
        return dot == 0
    return abs(dot) <= ORTHOGONALITY_TOL


def linear_combination(terms: Iterable[tuple]) -> Contrast:
    """Weighted sum of contrasts; the zero-sum property is preserved.

    ``terms`` is a sequence of ``(weight, contrast)`` pairs.  Raises
    :class:`AllZero` when everything cancels.
    """
    terms = [( _coerce(w), c) for w, c in terms]
    if not terms:
        raise ValueError("linear_combination needs at least one term")
    T = terms[0][1].num_treatments
    for _, c in terms:
        if c.num_treatments != T:
            raise DimensionMismatch("all contrasts must share the same length")
    coeffs = [sum(w * c.coefficients[t] for w, c in terms) for t in range(T)]
    return Contrast(coeffs)


def assignment_indicator(contrast: Contrast, treatment: int) -> int:
    """Group indicator for one unit: sign of the coefficient of its treatment."""
    if not 1 <= treatment <= contrast.num_treatments:
        raise OutOfRangeTreatment(
            f"treatment {treatment} outside 1..{contrast.num_treatments}"
        )
    return _sgn(contrast.coefficients[treatment - 1])


def assignment_indicators(contrast: Contrast, treatments) -> np.ndarray:
    """Vectorised :func:`assignment_indicator` over an array of labels."""
    w = np.asarray(treatments, dtype=int)
    if w.size and (w.min() < 1 or w.max() > contrast.num_treatments):
        raise OutOfRangeTreatment(
            f"treatment labels outside 1..{contrast.num_treatments}"
        )
    signs = np.array(contrast.sign(), dtype=int)
    return signs[w - 1] if w.size else np.zeros(0, dtype=int)


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
    """Read a contrast file; returns the contrasts in file order."""
    contrasts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            expr, _, comment = line.partition("#")
            label = comment.strip() or None
            try:
                contrasts.append(parse_contrast(expr, label))
            except (ParseError, NotAContrast, AllZero, TooShort) as exc:
                raise type(exc)(f"{path}, line {lineno}: {exc}") from exc
    if not contrasts:
        raise EmptyFile(f"{path}: no contrasts found")
    return contrasts
