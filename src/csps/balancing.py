"""Chained balancing: scores as covariates, subclassification, diagnostics.

The core routine estimates one score per balancing contrast, once per
dataset, treats those J scores as covariates in an ordinary propensity
analysis for each target bifurcation, subclassifies on the chained score,
and reports covariate mean differences between the target's two groups
before and after subclassing.

Group means are exact rationals (float64 covariates are dyadic rationals),
so reported differences are invariant to the unit order and identities
between them hold exactly, not merely to rounding.  The sums behind them are
integer array reductions over many columns at once
(:func:`_stacked_group_sums`), per unit or, on exact cells, per (cell,
group) pair weighted by its units, and scores stay in the
array form of :class:`~csps.estimation.ScoreVector`; no per-unit Python
object is made on the way.  Each difference is kept as one integer
numerator over one integer denominator times a power of two; its float comes
straight from those integers by Python's correctly rounded ``int / int``,
and its ``Fraction`` is built from them only when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .contrasts import Contrast, assignment_indicators
from .data import CellIndex, Dataset, _tie_free_order
from .errors import (
    CspsError,
    EmptyGroup,
    OneClassOnly,
    TooFewUnits,
    UndefinedScores,
)
from .estimation import (
    ScoreVector,
    _check_ridge,
    _cell_scores,
    _check_width,
    _dense_ids,
    _logistic_scores,
    empirical_csps,
    model_csps,
)

__all__ = [
    "AlgorithmConfig",
    "SubclassAssignment",
    "SubclassBalanceRow",
    "ContrastBalance",
    "BalanceReport",
    "chained_propensity",
    "subclassify",
    "covariate_mean_difference",
    "run_algorithm",
]


_MANTISSA_BITS = 53  # float64 significand, hidden bit included
_LIMB_BITS = 26
# A high limb is below 2**27 in magnitude and a low limb below 2**26, so one
# float64 bincount over at most this many units adds integers below 2**53,
# which it does exactly.
_UNITS_PER_SUM = 2 ** 26


# A stacked sum takes at most this many values (a longer column goes alone):
# stacking saves numpy's per-call cost on short columns, and past this length
# it only adds temporaries.
_VALUES_PER_CALL = 2 ** 16


def _exact_group_sums(
    values: np.ndarray, groups: np.ndarray, num_groups: int
) -> tuple[list[int], int]:
    """Exact sums of float64 ``values`` per group label in ``0..num_groups-1``.

    Returns ``(totals, exponent)``: the sum over group ``g`` is exactly
    ``totals[g] * 2**exponent``, and ``exponent`` is 53 below the least
    ``np.frexp`` exponent of the values (0 with no values).  This is
    :func:`_stacked_group_sums` of one column.
    """
    return _stacked_group_sums([(values, groups, num_groups)])[0]


class _Column(NamedTuple):
    """One column of :func:`_stacked_group_sums`.

    Its values are ``values[units]`` (all of ``values`` when ``units`` is
    None), and ``groups[i]`` is the group of value i.  Value i counts
    ``multiplicity[i]`` times (once when it is None): a column of cell rows
    weighted by the units each stands for sums as the per-unit column.
    """

    values: np.ndarray
    groups: np.ndarray
    num_groups: int
    units: np.ndarray | None = None
    multiplicity: np.ndarray | None = None


def _stacked_group_sums(columns) -> list[tuple[list[int], int]]:
    """:func:`_exact_group_sums` of every :class:`_Column` (or tuple of its fields).

    Each column gets exactly the ``(totals, exponent)`` that a call on it
    alone returns, and a column with multiplicities exactly those of its
    values each repeated that many times.  Columns are summed together,
    ``max(1, cap // length)`` of them per call for columns of one length,
    the cap being ``_VALUES_PER_CALL`` values.  Each float is
    ``m * 2**(e - 53)`` with an integer ``m`` below ``2**53`` in magnitude
    (``np.frexp``).  ``m`` is split into a high limb (below ``2**27`` in
    magnitude) and a low 26-bit limb, and each limb, times the value's
    multiplicity, is summed with one ``np.bincount`` keyed by (column, group,
    ``e``); a column's keys start after the previous column's and run from
    its own least ``e``, so its integers do not depend on the other columns.
    Only the nonzero buckets are then combined, as Python ints.

    Every partial sum stays an integer below ``2**53``, so float64 adds it
    exactly: a call adds at most ``_UNITS_PER_SUM`` values per bincount, and
    a column's multiplicities must add up to at most ``_UNITS_PER_SUM``.
    """
    results, batch, size = [], [], 0
    for column in columns:
        length = len(column[1])  # the groups: one per value
        if batch and size + length > _VALUES_PER_CALL:
            results += _sum_stack(batch)
            batch, size = [], 0
        batch.append(column)
        size += length
    return results + _sum_stack(batch)


def _sum_stack(columns) -> list[tuple[list[int], int]]:
    """The sums of :func:`_stacked_group_sums` for columns summed in one call.

    The values are gathered straight into one buffer, which ``np.frexp``
    turns into the mantissas and then the low limbs, and the keys are built
    in place on the exponents, so three 8-byte arrays per value are held at
    once: the low limbs, the high limbs and the keys.
    """
    columns = [_Column(*column) for column in columns]
    first = list(accumulate([0] + [column.num_groups for column in columns]))
    totals = [0] * first[-1]
    exponents = [0] * len(columns)
    live = [c for c, column in enumerate(columns) if len(column.groups)]
    if live:
        sizes = [len(columns[c].groups) for c in live]
        starts = list(accumulate([0] + sizes[:-1]))
        parts = [slice(start, start + size) for start, size in zip(starts, sizes)]
        mantissa = np.empty(starts[-1] + sizes[-1])
        for c, part in zip(live, parts):
            values, units = columns[c].values, columns[c].units
            mantissa[part] = values if units is None else values[units]
        key = np.empty(mantissa.size, dtype=np.intp)
        np.frexp(mantissa, out=(mantissa, key))
        # the limbs stay float64: scaling by powers of two, floor and the
        # subtraction are exact, and no int64 copy of the mantissas is made
        mantissa *= float(1 << (_MANTISSA_BITS - _LIMB_BITS))
        high = np.floor(mantissa)
        low = mantissa
        low -= high
        low *= float(1 << _LIMB_BITS)
        if any(columns[c].multiplicity is not None for c in live):
            # a limb times a multiplicity stays below 2**53, so exact
            multiplicity = np.ones(key.size)
            for c, part in zip(live, parts):
                if columns[c].multiplicity is not None:
                    multiplicity[part] = columns[c].multiplicity
            high *= multiplicity
            low *= multiplicity
            del multiplicity
        e_min = np.minimum.reduceat(key, starts)
        width = int((np.maximum.reduceat(key, starts) - e_min).max()) + 1
        # key = (the column's first group + group) * width + e - the column's least e
        for c, part, e in zip(live, parts, e_min.tolist()):
            key[part] += columns[c].groups * width
            key[part] += first[c] * width - e
        buckets = None
        nbins = first[-1] * width
        if nbins > 2 * key.size + 256:
            # few (column, group, exponent) triples occur: number only those
            buckets, key = np.unique(key, return_inverse=True)
            nbins = len(buckets)
        high_sum = np.zeros(nbins, dtype=np.int64)
        low_sum = np.zeros(nbins, dtype=np.int64)
        for start in range(0, key.size, _UNITS_PER_SUM):
            part = slice(start, start + _UNITS_PER_SUM)
            for limb, limb_sum in ((high, high_sum), (low, low_sum)):
                sums = np.bincount(key[part], weights=limb[part], minlength=nbins)
                limb_sum += sums.astype(np.int64)
        del mantissa, high, low, key  # freed before the Python ints are made
        used = (high_sum | low_sum).nonzero()[0]
        code = used if buckets is None else buckets[used]
        group, shift = np.divmod(code, width)
        for g, shift, h, lo in zip(
            group.tolist(), shift.tolist(), high_sum[used].tolist(), low_sum[used].tolist()
        ):
            totals[g] += ((h << _LIMB_BITS) + lo) << shift
        for c, e in zip(live, e_min.tolist()):
            exponents[c] = e - _MANTISSA_BITS
    return [(totals[first[c]:first[c + 1]], exponents[c]) for c in range(len(columns))]


def _scaled_fraction(numerator: int, denominator: int, exponent: int) -> Fraction:
    """``numerator * 2**exponent / denominator`` as an exact Fraction."""
    if exponent >= 0:
        return Fraction(numerator << exponent, denominator)
    return Fraction(numerator, denominator << -exponent)


def _scaled_float(numerator: int, denominator: int, exponent: int) -> float:
    """``numerator * 2**exponent / denominator``, correctly rounded.

    Python's ``int / int`` rounds the exact quotient once, as
    ``float(Fraction)`` does, so the two give the same float.  A quotient
    beyond the float64 range is infinite, with its sign.
    """
    try:
        if exponent >= 0:
            return (numerator << exponent) / denominator
        return numerator / (denominator << -exponent)
    except OverflowError:
        return math.inf if (numerator > 0) == (denominator > 0) else -math.inf


def _fractions(ratios) -> tuple[Fraction, ...] | None:
    return None if ratios is None else tuple(_scaled_fraction(*r) for r in ratios)


def _difference(P: int, n_pos: int, N: int, n_neg: int, exponent: int):
    """``P/n_pos - N/n_neg`` (totals scaled by ``2**exponent``) as one ratio."""
    return P * n_neg - N * n_pos, n_pos * n_neg, exponent


class _GroupTotals:
    """The exact integers behind one entry's covariate mean differences.

    Group 2s holds subclass s's positive units and 2s + 1 its negative ones;
    s = 0 collects the eligible units outside every subclass, so the groups
    of one sign add up to the pooled group.  ``counts[g]`` is group g's size
    and ``sums[k]`` covariate k's ``(totals, exponent)``: group g's total is
    ``totals[g] * 2**exponent``.  ``before`` holds one ``(numerator,
    denominator, exponent)`` ratio per covariate, and so does ``after`` when
    the units were subclassified (else None).  Subclass s weighs its units
    in the target's groups, ``counts[2s] + counts[2s + 1]``.
    """

    __slots__ = ("counts", "sums", "num_subclasses", "before", "after")

    def __init__(self, counts: list[int], sums: list, subclassified: bool):
        self.counts = counts
        self.sums = sums
        self.num_subclasses = len(counts) // 2 - 1 if subclassified else 0
        n_pos, n_neg = sum(counts[0::2]), sum(counts[1::2])
        self.before = tuple(
            _difference(sum(totals[0::2]), n_pos, sum(totals[1::2]), n_neg, exponent)
            for totals, exponent in sums
        )
        self.after = None
        if not subclassified:
            return
        # the subclass differences P_s/n+_s - N_s/n-_s weighted by
        # (n+_s + n-_s) / n_assigned, over one common denominator n_assigned * L,
        # L the lcm of the n+_s * n-_s: the numerator is the sum over s of
        # P_s * a_s - N_s * b_s
        n_pos_s, n_neg_s = counts[2::2], counts[3::2]
        products = list(map(mul, n_pos_s, n_neg_s))
        common = math.lcm(*products)
        scale = [
            (p + n) * (common // product)
            for p, n, product in zip(n_pos_s, n_neg_s, products)
        ]
        a, b = list(map(mul, scale, n_neg_s)), list(map(mul, scale, n_pos_s))
        # with no subclass the numerator is 0 and any denominator will do
        denominator = max(sum(counts[2:]), 1) * common
        self.after = tuple(
            (
                sum(map(mul, a, totals[2::2])) - sum(map(mul, b, totals[3::2])),
                denominator,
                exponent,
            )
            for totals, exponent in sums
        )


class _Unset:
    def __repr__(self):
        return "<built on access>"

    def __reduce__(self):
        # a copy or an unpickled report refers to this module's one sentinel
        return "_UNSET"


_UNSET = _Unset()


class _OnAccess:
    """A dataclass field that, when no value is passed, is built on first read.

    The value comes from the instance's ``_build_<name>()`` and is kept.  A
    value passed to the constructor (or to ``dataclasses.replace``) is kept
    as given.  It backs ``ContrastBalance.before_exact`` and ``after_exact``.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return _UNSET  # the field's default
        value = obj.__dict__[self.name]
        if value is _UNSET:
            value = obj.__dict__[self.name] = getattr(obj, "_build_" + self.name)()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def _floats(obj, name: str, ratios) -> np.ndarray | None:
    """Field ``name`` of ``obj`` as floats.

    Fractions that were passed or already built are converted through their
    exact integer ratios; otherwise the floats come straight from the integer
    ``ratios``, without a Fraction.  Either way a value beyond the float64
    range is an infinity of its sign.
    """
    value = obj.__dict__[name]
    if value is None:
        return None
    if value is not _UNSET:
        return np.array([_scaled_float(*v.as_integer_ratio(), 0) for v in value])
    if ratios is None:
        return None
    return np.array([_scaled_float(*r) for r in ratios])


def _subclass_count(num_subclasses, least: int = 1) -> int:
    """``num_subclasses`` as an int; ValueError unless a whole number in [least, 2**63)."""
    try:
        S = int(num_subclasses)
        whole = S == num_subclasses
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not (whole and least <= S < 2 ** 63):
        raise ValueError(
            f"num_subclasses must be below 2**63, at least {least} and a whole number, "
            f"not {num_subclasses!r}"
        )
    return S


@dataclass(frozen=True)
class AlgorithmConfig:
    """Settings for the chained balancing routine.

    ``estimator`` picks how the J balancing scores and the chained score are
    estimated: ``"empirical"`` uses exact cells (discrete covariates),
    ``"logistic"`` fits binary logistic models, with an optional ``ridge``
    penalty; their iteration limit and gradient tolerance are the fixed
    constants :data:`~csps.estimation.MAX_ITER` and
    :data:`~csps.estimation.TOL`.  The ridge must be finite and nonnegative
    whichever estimator is picked.  Subclassification defaults to quintiles;
    ``"exact"`` makes one subclass per distinct score value.
    """

    estimator: str = "logistic"
    subclass_method: str = "quantile"
    num_subclasses: int = 5
    ridge: float = 0.0

    def __post_init__(self):
        if self.estimator not in ("empirical", "logistic"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.subclass_method not in ("exact", "quantile"):
            raise ValueError(f"unknown subclass method {self.subclass_method!r}")
        _subclass_count(self.num_subclasses)
        _check_ridge(self.ridge)


class SubclassAssignment:
    """Subclass labels for the units of one bifurcation.

    ``labels[i]`` is a 1-based subclass id for units assigned to either
    group and 0 for everyone else.  After construction every subclass
    contains at least one unit from each group.  Labels must be whole
    numbers; they are held in the narrowest unsigned integer type that fits
    them (usually one byte), since reports keep them.  ``num_subclasses``
    must be a whole number in [0, 2**63).  ``scores`` is the
    score an assignment made by :func:`subclassify` was made on, else None.
    """

    __slots__ = ("labels", "num_subclasses", "scores")

    def __init__(self, labels, num_subclasses: int, *, scores=None):
        num_subclasses = _subclass_count(num_subclasses, least=0)
        lab = np.asarray(labels)
        if lab.dtype.kind == "f" and not (np.isfinite(lab) & (lab == np.floor(lab))).all():
            raise ValueError("subclass labels must be whole numbers")
        if lab.size and int(lab.min()) < 0:
            raise ValueError("subclass labels must be nonnegative")
        if int(lab.max(initial=0)) > num_subclasses:
            raise ValueError("subclass labels must not exceed num_subclasses")
        self._set(lab.astype(np.min_scalar_type(num_subclasses)), num_subclasses, scores)

    @classmethod
    def _built(cls, labels: np.ndarray, num_subclasses: int, scores) -> "SubclassAssignment":
        """An assignment over valid labels already in their narrowest type, kept without a copy."""
        self = cls.__new__(cls)
        self._set(labels, num_subclasses, scores)
        return self

    def _set(self, labels: np.ndarray, num_subclasses: int, scores) -> None:
        labels.setflags(write=False)
        self.labels = labels
        self.num_subclasses = int(num_subclasses)
        self.scores = scores

    def members(self, subclass_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == subclass_id)


def _merge_one_class_groups(positive, negative) -> tuple[np.ndarray, int]:
    """Merge groups lacking a +1 or a -1 unit into a neighbour toward the median.

    ``positive[g]`` and ``negative[g]`` count the units of either sign in
    group g, groups in score order.  Empty groups are dropped.  Returns the
    0-based merged subclass of every group and the number of subclasses.

    The first group lacking a sign merges into the next group when it lies
    below the middle of the groups left, else into the previous one, until
    no group lacks a sign.  Groups before the first such group keep both
    signs, and a merge only adds units, so one left-to-right pass that
    resumes at the merge point makes the same merges as rescanning.
    """
    groups = [g for g in range(len(positive)) if positive[g] or negative[g]]
    subclass = np.zeros(len(positive), dtype=np.intp)
    left = len(groups)  # groups (merged or not) still apart
    done = 0  # subclasses closed, each with both signs
    members = []  # groups merged into the current one
    pos = neg = 0
    for g in groups:
        members.append(g)
        pos += positive[g]
        neg += negative[g]
        if pos and neg:
            subclass[members] = done
            done += 1
            members, pos, neg = [], 0, 0
        elif left == 1:
            raise TooFewUnits(
                "subclasses cannot all contain both groups, even after merging"
            )
        elif done >= (left - 1) / 2:
            # into the previous subclass, which keeps both signs
            subclass[members] = done - 1
            members, pos, neg = [], 0, 0
            left -= 1
        else:
            # into the next group: carry on accumulating
            left -= 1
    return subclass, done


def _cut_steps(n: int, num_subclasses: int) -> np.ndarray:
    """The s in 1..S-1 whose s/S quantile cuts group n values as all S - 1 do.

    Every s while S - 1 <= 2n, which is at most 2n steps.  Beyond that, 1,
    S - 1 and the first and last s of each run of s sharing the floor of
    the virtual index ``(n - 1) * (s / S)``, found by halving the gaps of a
    grid of at most 2n + 2 evenly spaced s where that floor rises (it never falls
    as s grows).  A run's cuts lie between the same two sorted values and
    rise with s, so its end cuts split the values as all its cuts do.
    """
    S = num_subclasses
    if S - 1 <= 2 * n:
        return np.arange(1, S)

    def floor_index(s):
        return np.floor((n - 1) * (s / S))

    grid = np.append(np.arange(1, S - 1, (S - 2) // (2 * n + 1) + 1), S - 1)
    lo, hi = grid[:-1], grid[1:]
    steps = [grid[:1], grid[-1:]]
    while lo.size:
        rising = floor_index(lo) < floor_index(hi)
        lo, hi = lo[rising], hi[rising]
        adjacent = hi - lo == 1
        steps += [lo[adjacent], hi[adjacent]]
        lo, hi = lo[~adjacent], hi[~adjacent]
        mid = lo + (hi - lo) // 2
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return np.unique(np.concatenate(steps))


def _quantile_cuts(values: np.ndarray, num_subclasses: int) -> np.ndarray:
    """``np.quantile(values, s / S)`` for S subclasses at the s of :func:`_cut_steps`.

    Bit for bit, from one ``np.sort`` of ``values`` (no NaN) by numpy's own
    linear-method formulas: virtual index ``(n - 1) * (s / S)``, its floor and
    the next index (both -1 at or past the last), and the two-sided lerp.
    """
    ordered = np.sort(values)
    n = len(ordered)
    virtual = (n - 1) * (_cut_steps(n, num_subclasses) / num_subclasses)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = -1
    above[last] = -1
    gamma = virtual - below
    a, b = ordered[below.astype(np.intp)], ordered[above.astype(np.intp)]
    step = b - a
    return np.where(gamma >= 0.5, b - step * (1 - gamma), a + step * gamma)


def subclassify(
    scores: ScoreVector,
    d_indicator,
    method: str = "quantile",
    num_subclasses: int = 5,
) -> SubclassAssignment:
    """Partition the bifurcation's units into subclasses of similar score.

    ``method="exact"`` gives one subclass per distinct score value among the
    eligible units (those with a nonzero indicator); ``method="quantile"``
    cuts at the s/S empirical quantiles (numpy's default linear method,
    computed from one sort of the scores, in memory that grows with the
    eligible units, not with S), with boundary ties going to the lower
    subclass.  Subclasses missing one of the two groups are merged
    with the neighbouring subclass toward the median until every subclass
    contains both, which collapses degenerate splits instead of failing.
    Subclass ids are 1-based in ascending score order.  ``num_subclasses``
    must be a whole number in [1, 2**63), whichever the method.

    Both signs' counts per group come from one ``np.bincount``, the check
    for undefined scores reads only the score's ``undefined_units``, and
    the labels are built in the narrowest unsigned type that holds them.
    """
    S = _subclass_count(num_subclasses)
    d = np.asarray(d_indicator)
    if len(d) != len(scores):
        raise ValueError("indicator length must match scores")
    eligible = np.flatnonzero(d != 0)
    if eligible.size == 0:
        raise TooFewUnits("no units are assigned to either group")
    sign = d[eligible]
    negative = sign == -1
    n_neg = int(np.count_nonzero(negative))
    n_pos = int(np.count_nonzero(sign == 1))
    if n_pos + n_neg != len(eligible):
        raise ValueError("group indicators must be 1, -1 or 0")
    if not (n_pos and n_neg):
        raise TooFewUnits("all eligible units fall in a single group")
    undefined = int(np.count_nonzero(d[scores.undefined_units]))
    if undefined:
        raise UndefinedScores(f"{undefined} eligible units have undefined scores")

    # group[i]: the score-ordered group of eligible unit i before merging
    if method == "exact":
        group = scores.dense_ranks(eligible)
    elif method == "quantile":
        vals = scores.as_floats()[eligible]
        # group = number of cuts strictly below the value, so ties fall into
        # the lower subclass
        group = np.searchsorted(_quantile_cuts(vals, S), vals, side="left")
    else:
        raise ValueError(f"unknown subclass method {method!r}")

    # 2 * group + 1 for the negative units, 2 * group for the positive ones
    key = group * np.intp(2)
    key += negative
    counts = np.bincount(key, minlength=2 * (int(group.max()) + 1))
    subclass, num_merged = _merge_one_class_groups(counts[0::2].tolist(), counts[1::2].tolist())
    label_of_group = (subclass + 1).astype(np.min_scalar_type(num_merged))
    labels = np.zeros(len(scores), dtype=label_of_group.dtype)
    labels[eligible] = label_of_group[group]
    return SubclassAssignment._built(labels, num_merged, scores)


@dataclass(frozen=True, eq=False)
class SubclassBalanceRow:
    """Group sizes, group means, and mean difference within one subclass.

    ``weight`` is the subclass's share of the target's subclassified units.
    The means and the difference are exact Fractions, and ``difference``
    holds the difference's floats, each the correctly rounded quotient of
    the same integers.
    """

    subclass_id: int
    n_positive: int
    n_negative: int
    weight: Fraction
    mean_positive_exact: tuple[Fraction, ...]
    mean_negative_exact: tuple[Fraction, ...]
    difference_exact: tuple[Fraction, ...]
    difference: np.ndarray


@dataclass(frozen=True, eq=False)
class ContrastBalance:
    """Balance diagnostics for one target contrast.

    ``before`` and ``after`` are the floats of the mean differences, each
    computed from one integer numerator over one integer denominator, so no
    Fraction is made for them.  ``before_exact`` and ``after_exact`` are
    built from the same integers on first access and then kept; a value
    passed to the constructor or to ``dataclasses.replace`` is kept instead,
    and the floats then come from it.  ``subclass_rows`` is built whole from
    the integers on its first read and then kept.  ``assignment`` is the
    subclass assignment the diagnostics were computed from, and ``scores``
    the score it was made on, when a pass built them.
    """

    contrast: Contrast
    n_positive: int = 0
    n_negative: int = 0
    before_exact: tuple[Fraction, ...] | None = _OnAccess()
    after_exact: tuple[Fraction, ...] | None = _OnAccess()
    error: str | None = None
    assignment: SubclassAssignment | None = None
    _totals: _GroupTotals | None = field(default=None, repr=False)

    def _build_before_exact(self):
        return _fractions(self._totals and self._totals.before)

    def _build_after_exact(self):
        return _fractions(self._totals and self._totals.after)

    @cached_property
    def subclass_rows(self) -> tuple[SubclassBalanceRow, ...] | None:
        """One row per subclass in id order; None when not subclassified."""
        totals = self._totals
        if totals is None or totals.after is None:
            return None
        counts, sums = totals.counts, totals.sums
        assigned = sum(counts[2:])

        def means(group):
            return tuple(_scaled_fraction(t[group], counts[group], e) for t, e in sums)

        rows = []
        for sid in range(1, totals.num_subclasses + 1):
            pos, neg = 2 * sid, 2 * sid + 1
            ratios = [
                _difference(t[pos], counts[pos], t[neg], counts[neg], e) for t, e in sums
            ]
            difference = np.array([_scaled_float(*r) for r in ratios])
            difference.setflags(write=False)
            rows.append(SubclassBalanceRow(
                sid, counts[pos], counts[neg], Fraction(counts[pos] + counts[neg], assigned),
                means(pos), means(neg), _fractions(ratios), difference,
            ))
        return tuple(rows)

    @property
    def before(self) -> np.ndarray | None:
        return _floats(self, "before_exact", self._totals and self._totals.before)

    @property
    def after(self) -> np.ndarray | None:
        return _floats(self, "after_exact", self._totals and self._totals.after)

    @property
    def scores(self) -> ScoreVector | None:
        return None if self.assignment is None else self.assignment.scores

    @property
    def num_subclasses(self) -> int:
        return 0 if self._totals is None else self._totals.num_subclasses


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """Per-target balance diagnostics over a shared covariate set."""

    covariate_names: tuple[str, ...]
    entries: tuple[ContrastBalance, ...] = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def covariate_mean_difference(
    dataset: Dataset,
    target: Contrast,
    subclasses: SubclassAssignment | None = None,
) -> ContrastBalance:
    """Covariate mean differences between the target's two groups.

    Pooled (positive-group mean minus negative-group mean) always; when a
    subclass assignment is supplied, also the within-subclass differences and
    their average weighted by each subclass's share of the target's units.
    The groups always come from the target and the treatments, so subclasses
    made for one contrast can check the balance of another; a subclass
    lacking one of the target's groups raises :class:`~csps.errors.EmptyGroup`,
    as do more subclasses than either group has units.  One exact group sum
    per covariate serves the pooled pair and every subclass pair.  A target
    whose width is not the dataset's number of treatments raises
    :class:`~csps.errors.DimensionMismatch`.
    """
    return _mean_differences(dataset, [_compared_groups(dataset, target, subclasses)])[0]


class _Indicator(NamedTuple):
    """A target's indicator ``d`` over the units, its eligible units (``d != 0``)
    and, for each eligible unit, whether it is in the negative group."""

    d: np.ndarray
    eligible: np.ndarray
    negative: np.ndarray


def _indicator(dataset: Dataset, target: Contrast) -> _Indicator:
    d = assignment_indicators(target, dataset.treatments)
    # through a bool mask: np.flatnonzero of the int64 indicator itself is
    # about five times slower
    eligible = np.flatnonzero(d != 0)
    return _Indicator(d, eligible, d[eligible] == -1)


class _Comparison(NamedTuple):
    """A target's groups as :func:`covariate_mean_difference` checked them.

    The values of covariate k are ``rows[units, k]``, ``groups[i]`` is the
    group of value i (2s for subclass s's positive units and 2s + 1 for its
    negative ones), and value i stands for ``multiplicity[i]`` units (one
    when None); ``counts[g]`` is the size of group g.
    """

    target: Contrast
    subclasses: SubclassAssignment | None
    rows: np.ndarray
    units: np.ndarray
    groups: np.ndarray
    multiplicity: np.ndarray | None
    counts: list[int]


def _compared_groups(
    dataset: Dataset,
    target: Contrast,
    subclasses: SubclassAssignment | None,
    indicator: _Indicator | None = None,
    cells: CellIndex | None = None,
) -> _Comparison:
    """The checks of :func:`covariate_mean_difference`, and the groups it sums.

    ``indicator`` is the target's :func:`_indicator`, found here when None.
    Given the dataset's ``cells``, a comparison with no more (cell, group)
    pairs than eligible units, and at most ``_UNITS_PER_SUM`` of those, sums
    each pair's cell row once, weighted by its units; otherwise every
    eligible unit's row is summed.  Both give the same integers.
    """
    _check_width(dataset, target)
    if subclasses is not None and len(subclasses.labels) != dataset.n_units:
        raise ValueError("subclass labels must cover every unit of the dataset")
    if indicator is None:
        indicator = _indicator(dataset, target)
    eligible, negative = indicator.eligible, indicator.negative
    n_neg = int(np.count_nonzero(negative))
    S = 0 if subclasses is None else subclasses.num_subclasses
    # every subclass needs a unit of each group, which also bounds the
    # group counts below by the units, whatever S is
    if min(len(eligible) - n_neg, n_neg) < max(S, 1):
        raise EmptyGroup("a comparison group is empty")
    num_groups = 2 * (S + 1)
    groups = negative.astype(np.intp)
    if subclasses is not None:
        groups += 2 * subclasses.labels[eligible].astype(np.intp)
    rows, units, multiplicity = dataset.covariates, eligible, None
    if cells is not None and cells.num_cells * num_groups <= len(eligible) <= _UNITS_PER_SUM:
        pair = cells.cell_of_unit[eligible] * np.intp(num_groups)
        pair += groups
        multiplicity = np.bincount(pair, minlength=cells.num_cells * num_groups)
        counts = multiplicity.reshape(-1, num_groups).sum(axis=0).tolist()
        present = np.flatnonzero(multiplicity)
        rows, multiplicity = cells.rows, multiplicity[present]
        units, groups = np.divmod(present, num_groups)
    else:
        counts = np.bincount(groups, minlength=num_groups).tolist()
    if 0 in counts[2:]:
        raise EmptyGroup("a comparison group is empty")
    return _Comparison(target, subclasses, rows, units, groups, multiplicity, counts)


def _mean_differences(dataset: Dataset, comparisons) -> list[ContrastBalance]:
    """One entry per :class:`_Comparison`, from one :func:`_stacked_group_sums`
    over all of their (target, covariate) columns."""
    K = dataset.num_covariates
    sums = _stacked_group_sums([
        _Column(c.rows[:, k], c.groups, len(c.counts), c.units, c.multiplicity)
        for c in comparisons
        for k in range(K)
    ])
    return [
        ContrastBalance(
            contrast=c.target,
            n_positive=sum(c.counts[0::2]),
            n_negative=sum(c.counts[1::2]),
            assignment=c.subclasses,
            _totals=_GroupTotals(c.counts, sums[i * K:(i + 1) * K], c.subclasses is not None),
        )
        for i, c in enumerate(comparisons)
    ]


@dataclass(frozen=True, eq=False)
class _BalancingDesign:
    """The J balancing scores of one dataset, in the form the chained fit reads.

    The scores depend on the dataset and the balancing set only, so one
    design serves every target.  ``undefined[j]`` is score j's
    ``undefined_units``: none for a model score, and for exact cells only
    the units of cells without a unit of that contrast's groups.  The
    logistic design is the N x J float matrix of scores and its ``order``
    (``_tie_free_order`` of the first score, so None on a tie), which every
    chained fit takes its units from; the empirical one is the read-only
    cell of every unit's score tuple, which every target's chained scores
    share as their index.
    """

    contrasts: tuple[Contrast, ...]
    undefined: tuple[np.ndarray, ...]
    features: np.ndarray | None = None
    order: np.ndarray | None = None
    cells: np.ndarray | None = None
    num_cells: int = 0


def _balancing_design(
    dataset: Dataset, balancing: Sequence[Contrast], estimator: str, ridge: float
) -> _BalancingDesign:
    """Fit the J balancing scores once and build the chained design from them."""
    balancing = tuple(balancing)
    if not balancing:
        raise ValueError("at least one balancing contrast is required")
    if estimator not in ("empirical", "logistic"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if dataset.n_units == 0:
        raise TooFewUnits("the dataset has no units")

    if estimator == "empirical":
        base = [empirical_csps(dataset, c) for c in balancing]
    else:
        base = [model_csps(dataset, c, ridge=ridge) for c in balancing]
    undefined = tuple(sv.undefined_units for sv in base)
    if estimator == "logistic":
        features = np.column_stack([sv.as_floats() for sv in base])
        return _BalancingDesign(
            balancing, undefined, features=features, order=_tie_free_order(features[:, 0])
        )
    # cells of equal balancing-score tuples; a tuple with an undefined score
    # holds no eligible unit of any target that passes the checks, so its
    # cell stays undefined
    cells, num_cells = _dense_ids([sv.dense_ranks() for sv in base])
    cells.setflags(write=False)
    return _BalancingDesign(balancing, undefined, cells=cells, num_cells=num_cells)


def _chained_scores(design: _BalancingDesign, indicator: _Indicator, ridge: float) -> ScoreVector:
    """The target's chained score from a balancing design.

    ``indicator`` is the target's :func:`_indicator`.  A target fails when
    a unit of its groups is among a balancing score's undefined units, so
    the check reads only those units.  Exact chained scores count each
    cell's units of either sign with one bincount.
    """
    d, eligible, negative = indicator
    n_neg = int(np.count_nonzero(negative))
    if n_neg == 0 or n_neg == len(eligible):
        raise OneClassOnly("target bifurcation has an empty group")
    for contrast, units in zip(design.contrasts, design.undefined):
        if units.size and d[units].any():
            raise UndefinedScores(
                f"balancing score {contrast.describe()} "
                "is undefined on units of the target bifurcation"
            )
    if design.cells is not None:
        return _cell_scores(design.cells, design.num_cells, d)
    return _logistic_scores(design.features, d, ridge, design.order)


def chained_propensity(
    dataset: Dataset,
    balancing: Sequence[Contrast],
    target: Contrast,
    estimator: str = "logistic",
    ridge: float = 0.0,
) -> ScoreVector:
    """Propensity score for the target fitted on the J balancing scores.

    First estimates one score per balancing contrast, then estimates the
    probability of the target's positive group given those J scores, using
    exact cells of the score tuple (``estimator="empirical"``) or a binary
    logistic fit (``estimator="logistic"``).  Scores are predicted for every
    unit.  This is one target's share of :func:`run_algorithm`, which fits
    the balancing scores once for all of its targets.  A contrast whose width
    is not the dataset's number of treatments raises
    :class:`~csps.errors.DimensionMismatch` before any fit, and a dataset
    with no units :class:`~csps.errors.TooFewUnits`.
    """
    balancing = tuple(balancing)
    for contrast in (*balancing, target):
        _check_width(dataset, contrast)
    design = _balancing_design(dataset, balancing, estimator, ridge)
    return _chained_scores(design, _indicator(dataset, target), ridge)


def _error_text(exc: CspsError) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_algorithm(
    dataset: Dataset,
    balancing: Sequence[Contrast],
    targets: Sequence[Contrast],
    config: AlgorithmConfig = AlgorithmConfig(),
) -> BalanceReport:
    """Full chained-balancing pass over a list of target contrasts.

    The J balancing scores are fitted once per dataset, not per target; with
    no targets nothing is fitted.  Then for each target: chained propensity
    score, subclassification, and before/after covariate mean differences;
    each entry keeps the score and the subclasses it was computed from.  A
    failure for one target (including a Newton fit that did not converge) is
    recorded in its report entry without aborting the others; a failed
    balancing fit, or a dataset with no units, is recorded on every target.
    A balancing or target contrast whose width is not the dataset's number
    of treatments is an input error, not a per-target failure: it raises
    :class:`~csps.errors.DimensionMismatch` before any fit.  Each target's
    indicator and groups are found once; with the empirical estimator its
    covariate sums go per (cell, group) pair where that is less work than
    per unit (see :func:`_compared_groups`).
    """
    balancing, targets = tuple(balancing), tuple(targets)
    for contrast in (*balancing, *targets):
        _check_width(dataset, contrast)
    design = failure = cells = None
    if targets:
        try:
            design = _balancing_design(dataset, balancing, config.estimator, config.ridge)
        except CspsError as exc:
            failure = _error_text(exc)
        else:
            if config.estimator == "empirical":
                # built for the balancing scores: the sums go per (cell, group) pair
                cells = dataset.cell_index
    entries = []
    # targets whose sums wait to be stacked, and their places in entries; the
    # sums are taken once the waiting columns hold _VALUES_PER_CALL values
    waiting, places = [], []

    def take_sums():
        for place, entry in zip(places, _mean_differences(dataset, waiting)):
            entries[place] = entry
        waiting.clear()
        places.clear()

    for target in targets:
        if failure is not None:
            entries.append(ContrastBalance(contrast=target, error=failure))
            continue
        try:
            indicator = _indicator(dataset, target)
            scores = _chained_scores(design, indicator, config.ridge)
            assignment = subclassify(
                scores, indicator.d, method=config.subclass_method,
                num_subclasses=config.num_subclasses,
            )
            waiting.append(_compared_groups(dataset, target, assignment, indicator, cells))
        except CspsError as exc:
            entries.append(ContrastBalance(contrast=target, error=_error_text(exc)))
            continue
        places.append(len(entries))
        entries.append(None)
        held = sum(len(c.groups) for c in waiting) * dataset.num_covariates
        if held >= _VALUES_PER_CALL:
            take_sums()
    take_sums()
    return BalanceReport(
        covariate_names=dataset.covariate_names, entries=tuple(entries)
    )
