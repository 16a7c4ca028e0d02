"""Chained balancing: scores as covariates, subclassification, diagnostics.

The core routine estimates one score per balancing contrast, once per
dataset, treats those J scores as covariates in an ordinary propensity
analysis for each target bifurcation, subclassifies on the chained score,
and reports covariate mean differences between the target's two groups
before and after subclassing.

:func:`run_algorithm` works out every target on the rows of one table, by
one path whichever the estimator.  With exact cells every number the
routine reports depends on the units only through their counts per
(covariate cell, treatment), so the table holds those counts, which the
dataset's cell index keeps, made once with it (:func:`_cell_table`), and
the scores, the subclasses and the group sums come from them.  A pass on
a built index reads no array per unit and makes none of its own.  A
target keeps one subclass label per entry
of its score, built by one path on either table, and both are read per
unit by the score's one gather from entries to units: on exact cells,
through the dataset's covariate cell of each unit and the chained cell of
each covariate cell, which every target shares, and for the labels only
when first read.  With logistic scores each row of the table is one unit (:func:`_unit_table`).

Group means are exact rationals (float64 covariates are dyadic rationals),
so reported differences are invariant to the unit order and identities
between them hold exactly, not merely to rounding.  The sums behind them are
integer array reductions over many columns at once
(:func:`_stacked_group_sums`), per unit or, on exact cells, per (cell,
treatment) pair weighted by its units, and scores stay in the
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
from .data import Dataset, _canonical_order, _check_shape, _dense_ids, _whole_count, _whole_labels
from .errors import (
    CspsError,
    EmptyGroup,
    InvalidArgument,
    OneClassOnly,
    TooFewUnits,
    UndefinedScores,
)
from .estimation import (
    ScoreVector,
    _check_ridge,
    _cell_scores,
    _check_width,
    _logistic_scores,
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
# Eight limb sums below this in magnitude, each shifted left by at most 7
# bits, add up in int64 exactly (see _windows).
_WINDOW_LIMB_SUM = 2 ** 55


# A stacked sum takes at most this many values (a longer column goes alone):
# stacking saves numpy's per-call cost on short columns, and past this length
# it only adds temporaries.
_VALUES_PER_CALL = 2 ** 16


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
    """Exact sums of every :class:`_Column` (or tuple of its fields) per group.

    A column's float64 values, with groups labelled ``0..num_groups-1``,
    give ``(totals, exponent)``: the sum over group ``g`` is exactly
    ``totals[g] * 2**exponent``, and ``exponent`` is 53 below the least
    ``np.frexp`` exponent of the values (0 with no values).  Each column
    gets exactly the ``(totals, exponent)`` that a call on it alone
    returns, and a column with multiplicities exactly those of its values
    each repeated that many times.  Columns are summed together,
    ``max(1, cap // length)`` of them per call for columns of one length,
    the cap being ``_VALUES_PER_CALL`` values.  Each float is
    ``m * 2**(e - 53)`` with an integer ``m`` below ``2**53`` in magnitude
    (``np.frexp``).  ``m`` is split into a high limb (below ``2**27`` in
    magnitude) and a low 26-bit limb, and each limb, times the value's
    multiplicity, is summed with one ``np.bincount`` keyed by (column, group,
    ``e``); a column's keys start after the previous column's and run from
    its own least ``e``, so its integers do not depend on the other columns.
    Only the nonzero buckets are then combined: first in int64, each group's
    buckets in windows of 8 consecutive exponents (:func:`_windows`), then
    the windows as Python ints.

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
    once: the low limbs, the high limbs and the keys.  Those are freed
    before the used buckets are merged by window and the Python ints are
    made, one ``totals[g] += ((high << 26) + low) << shift`` per window.
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
        group, shift, high_sum, low_sum = _windows(
            used if buckets is None else buckets[used], width,
            high_sum[used], low_sum[used], first[-1],
        )
        for g, shift, h, lo in zip(
            group.tolist(), shift.tolist(), high_sum.tolist(), low_sum.tolist()
        ):
            totals[g] += ((h << _LIMB_BITS) + lo) << shift
        for c, e in zip(live, e_min.tolist()):
            exponents[c] = e - _MANTISSA_BITS
    return [(totals[first[c]:first[c + 1]], exponents[c]) for c in range(len(columns))]


def _windows(code, width: int, high, low, num_groups: int):
    """The used buckets of :func:`_sum_stack`, merged by window of 8 exponents.

    Bucket i is (group, exponent offset s) ``divmod(code[i], width)``, with
    the int64 limb sums ``high[i]`` and ``low[i]``; the codes ascend.
    Returns the group, offset and limb sums of each window: the buckets of
    one group whose s share ``s >> 3`` make one window at offset
    ``8 * (s >> 3)``, whose limb sums are the buckets' own, each shifted
    left by ``s & 7``, added by ``np.add.reduceat`` over the sorted codes.
    Limb sums below 2**55 in magnitude keep that exact in int64, since
    ``2**55 * (2**8 - 1) < 2**63``, and a column of at most 2**28 values,
    or with multiplicities, has none larger (a high limb is below 2**27 in
    magnitude, a low one nonnegative and below 2**26).  The bound is
    checked all the same, and a limb sum that reaches it leaves every
    bucket its own window.  So do buckets that do not outnumber the
    groups, as on exact-cell count tables with one or two exponents per
    group, where merging cannot save what its numpy calls cost.
    """
    group, shift = np.divmod(code, width)
    if len(code) <= num_groups or not (
        -_WINDOW_LIMB_SUM < np.minimum.reduce(high)
        and max(np.maximum.reduce(high), np.maximum.reduce(low)) < _WINDOW_LIMB_SUM
    ):
        return group, shift, high, low
    offset = shift & 7
    window = code - offset  # group * width + 8 * (s >> 3)
    opens = np.empty(len(window), dtype=bool)  # whether bucket i opens a window
    opens[0] = True
    np.not_equal(window[1:], window[:-1], out=opens[1:])
    starts = np.flatnonzero(opens)
    shift -= offset
    return (
        group[starts],
        shift[starts],
        np.add.reduceat(high << offset, starts),
        np.add.reduceat(low << offset, starts),
    )


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

    def row_ratios(self, sid: int) -> list[tuple[int, int, int]]:
        """Subclass ``sid``'s difference per covariate, as integer ratios."""
        pos, neg, counts = 2 * sid, 2 * sid + 1, self.counts
        return [_difference(t[pos], counts[pos], t[neg], counts[neg], e) for t, e in self.sums]


class _ExactDifferences:
    """A ``ContrastBalance`` field of exact differences, whose default is None.

    A value passed to the constructor (or to ``dataclasses.replace``) is kept
    and returned.  Otherwise the Fractions of the entry's integer ratios
    (``_totals.before`` or ``_totals.after``, after the field's name) are
    built on first read and kept; an entry without them reads None.
    """

    def __set_name__(self, owner, name):
        self.name = name
        self.ratios = name.removesuffix("_exact")

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        value = obj.__dict__[self.name]
        if value is None and obj._totals is not None:
            value = obj.__dict__[self.name] = _fractions(getattr(obj._totals, self.ratios))
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def _floats(ratios) -> np.ndarray | None:
    """Integer ratios as floats, each correctly rounded, without a Fraction;
    a value beyond the float64 range is an infinity of its sign."""
    return None if ratios is None else np.array([_scaled_float(*r) for r in ratios])


# the names AlgorithmConfig takes, in the order the command line lists them
ESTIMATORS = ("empirical", "logistic")
SUBCLASS_METHODS = ("exact", "quantile")


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
    ``num_subclasses`` may be given as any whole number and is kept as an
    int.  It is the one definition of these settings: :data:`ESTIMATORS` and
    :data:`SUBCLASS_METHODS` name them, its fields are their defaults, and
    :func:`chained_propensity`, :func:`subclassify` and the command line
    read both and check through it.
    """

    estimator: str = "logistic"
    subclass_method: str = "quantile"
    num_subclasses: int = 5
    ridge: float = 0.0

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise InvalidArgument(f"unknown estimator {self.estimator!r}")
        if self.subclass_method not in SUBCLASS_METHODS:
            raise InvalidArgument(f"unknown subclass method {self.subclass_method!r}")
        # an int: a float count above 2**53 would never end _cut_steps' halving
        object.__setattr__(
            self, "num_subclasses", _whole_count(self.num_subclasses, "num_subclasses")
        )
        _check_ridge(self.ridge)


class SubclassAssignment:
    """Subclass labels for the units of one bifurcation.

    ``labels[i]`` is a 1-based subclass id for units assigned to either
    group and 0 for everyone else.  After construction every subclass
    contains at least one unit from each group.  Labels follow the label
    rule of :class:`Dataset`, held in the narrowest unsigned type that fits
    them (one byte, usually), as reports keep them; ``num_subclasses`` is
    a whole number in [0, 2**63).  ``scores`` is the score an
    assignment made by :func:`subclassify` or :func:`run_algorithm` was
    made on, else None.  An assignment that :func:`run_algorithm` made on
    exact cells keeps one label per entry of its score, a chained cell,
    whose eligible units share its score; its per-unit ``labels`` are
    gathered from those through the score's own maps on their first read,
    set to 0 for the units outside the target's groups, and then kept, so
    a pass whose labels are never read makes no array per unit or per
    covariate cell for them.  Any other assignment holds its labels per
    unit from the start.
    """

    __slots__ = ("_labels", "_by_cell", "num_subclasses", "scores")

    def __init__(self, labels, num_subclasses: int, *, scores=None):
        num_subclasses = _whole_count(num_subclasses, "num_subclasses", least=0)
        lab = _whole_labels(
            labels, 0, num_subclasses, InvalidArgument, "subclass label",
            "whole numbers from {least}, and must not exceed num_subclasses = {most}",
        )
        _check_shape(lab, (None,), InvalidArgument, "subclass labels must be a vector")
        self._set(lab.astype(np.min_scalar_type(num_subclasses)), num_subclasses, scores)

    @classmethod
    def _built(
        cls, labels: np.ndarray, num_subclasses: int, scores, signs=None, treatments=None
    ) -> "SubclassAssignment":
        """An assignment over valid labels already in their narrowest type,
        kept without a copy.  With ``treatments``, each unit's, ``labels``
        holds a label per entry of ``scores``, gathered per unit on the first
        read of :attr:`labels` and kept where the target's ``signs`` of the
        unit's treatment are nonzero."""
        self = cls.__new__(cls)
        self._set(labels, num_subclasses, scores, signs, treatments)
        return self

    def _set(self, labels, num_subclasses: int, scores, signs=None, treatments=None) -> None:
        labels.setflags(write=False)
        if treatments is None:
            self._labels, self._by_cell = labels, None
        else:
            self._labels, self._by_cell = None, (labels, signs, treatments)
        self.num_subclasses = int(num_subclasses)
        self.scores = scores

    @property
    def labels(self) -> np.ndarray:
        """The read-only subclass label of every unit."""
        labels = self._labels
        if labels is None:
            # ``_by_cell`` is never cleared, so two threads reading at once
            # each gather the same labels
            label_of_entry, signs, treatments = self._by_cell
            labels = self.scores._per_unit(label_of_entry)
            labels *= (signs != 0)[treatments]
            labels.setflags(write=False)
            self._labels = labels
        return labels

    def __reduce__(self):
        # a copy holds the labels per unit, not a label per chained cell
        return type(self)._built, (self.labels, self.num_subclasses, self.scores)


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
    subclass = [0] * len(positive)
    left = len(groups)  # groups (merged or not) still apart
    done = 0  # subclasses closed, each with both signs
    members = []  # groups merged into the current one
    pos = neg = 0
    for g in groups:
        members.append(g)
        pos += positive[g]
        neg += negative[g]
        if pos and neg:
            for m in members:
                subclass[m] = done
            done += 1
            members, pos, neg = [], 0, 0
        elif left == 1:
            raise TooFewUnits(
                "subclasses cannot all contain both groups, even after merging"
            )
        elif done >= (left - 1) / 2:
            # into the previous subclass, which keeps both signs
            for m in members:
                subclass[m] = done - 1
            members, pos, neg = [], 0, 0
            left -= 1
        else:
            # into the next group: carry on accumulating
            left -= 1
    return np.array(subclass, dtype=np.intp), done


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


def _quantile_cuts(values: np.ndarray, num_subclasses: int, counts=None) -> np.ndarray:
    """``np.quantile(values, s / S)`` for S subclasses at the s of :func:`_cut_steps`.

    Bit for bit, from one sort of ``values`` (no NaN) by numpy's own
    linear-method formulas: virtual index ``(n - 1) * (s / S)``, its floor and
    the next index (both -1 at or past the last), and the two-sided lerp.
    With ``counts``, value i stands for ``counts[i] > 0`` equal values, and
    the k-th of the n sorted values is read from the running counts.  Only
    exact scores come with counts; they hold no -0.0, so which of two equal
    values is read cannot change a cut.
    """
    if counts is None:
        ordered = np.sort(values)
        n = len(ordered)
    else:
        order = np.argsort(values)
        ordered, ends = values[order], np.cumsum(counts[order])
        n = int(ends[-1])
    virtual = (n - 1) * (_cut_steps(n, num_subclasses) / num_subclasses)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = -1
    above[last] = -1
    gamma = virtual - below
    below, above = below.astype(np.intp), above.astype(np.intp)
    if counts is not None:
        # the sorted value k (-1: the last) is the first whose running count passes k
        below, above = np.searchsorted(ends, np.stack((below, above)) % n, side="right")
    a, b = ordered[below], ordered[above]
    step = b - a
    return np.where(gamma >= 0.5, b - step * (1 - gamma), a + step * gamma)


def subclassify(
    scores: ScoreVector,
    d_indicator,
    method: str = AlgorithmConfig.subclass_method,
    num_subclasses: int = AlgorithmConfig.num_subclasses,
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
    Subclass ids are 1-based in ascending score order.  ``method`` and
    ``num_subclasses`` are checked by :class:`AlgorithmConfig`, first, and
    the indicators are -1, 0 or 1 under the label rule of :class:`Dataset`.

    Both signs' counts per group come from one ``np.bincount``, the check
    for undefined scores reads only the score's ``undefined_units``, and
    the labels are built in the narrowest unsigned type that holds them.
    """
    config = AlgorithmConfig(subclass_method=method, num_subclasses=num_subclasses)
    d = _whole_labels(d_indicator, -1, 1, InvalidArgument, "group indicator", "1, -1 or 0")
    _check_shape(
        d, (len(scores),), InvalidArgument,
        "group indicators must be a vector with one entry per score",
    )
    eligible = np.flatnonzero(d)
    if eligible.size == 0:
        raise TooFewUnits("no units are assigned to either group")
    negative = d[eligible] == -1
    n_neg = int(np.count_nonzero(negative))
    if not (n_neg and n_neg < len(eligible)):
        raise TooFewUnits("all eligible units fall in a single group")
    undefined = int(np.count_nonzero(d[scores.undefined_units]))
    if undefined:
        raise UndefinedScores(f"{undefined} eligible units have undefined scores")
    label, num_merged = _subclass_rows(scores, eligible, negative, config)
    labels = np.zeros(len(scores), dtype=label.dtype)
    labels[eligible] = label
    return SubclassAssignment._built(labels, num_merged, scores)


def _subclass_rows(
    scores: ScoreVector, rows, negative: np.ndarray, config: AlgorithmConfig, counts=None
) -> tuple[np.ndarray, int]:
    """The subclassing rules of :func:`subclassify`, on rows of units.

    Row i is score ``rows[i]`` of ``scores``, in the negative group where
    ``negative[i]``, and it stands for ``counts[i] > 0`` units with that
    score and sign (one when None).  Rows of units and rows of (cell, sign)
    counts get the same subclasses.  Returns each row's 1-based subclass
    label, in the narrowest unsigned type that holds every label, and the
    number of subclasses.  The quantile cuts read float scores in place,
    gathering only the rows' scores; exact scores are rounded per unit by
    :meth:`~csps.estimation.ScoreVector.as_floats` first.
    """
    # group[i]: the score-ordered group of row i before merging
    if config.subclass_method == "exact":
        group = scores.dense_ranks(rows)
    else:
        floats = scores.as_floats() if scores._floats is None else scores._floats
        vals, S = floats[rows], config.num_subclasses
        cuts = _quantile_cuts(vals, S) if counts is None else _quantile_cuts(vals, S, counts)
        # group = number of cuts strictly below the value, so ties fall into
        # the lower subclass
        group = np.searchsorted(cuts, vals, side="left")

    # 2 * group + 1 for the negative units, 2 * group for the positive ones
    key = group * np.intp(2)
    key += negative
    sizes = np.bincount(key, counts, minlength=2 * (int(group.max()) + 1))
    if counts is not None:
        sizes = sizes.astype(np.int64)  # sums of counts below 2**53: exact
    subclass, num_merged = _merge_one_class_groups(sizes[0::2].tolist(), sizes[1::2].tolist())
    label_of_group = (subclass + 1).astype(np.min_scalar_type(num_merged))
    return label_of_group[group], num_merged


@dataclass(frozen=True, eq=False)
class SubclassBalanceRow:
    """Group sizes, group means, and mean difference within one subclass.

    ``weight`` is the subclass's share of the target's subclassified units.
    The means and the difference are exact Fractions, and ``difference``
    holds the difference's floats, each the correctly rounded quotient of
    the same integers.  The sizes and ``difference`` are built with the
    row; the four Fractions are built from the entry's integers on first
    read and then kept.
    """

    subclass_id: int
    n_positive: int
    n_negative: int
    difference: np.ndarray
    _totals: _GroupTotals = field(repr=False)

    def _means(self, group: int) -> tuple[Fraction, ...]:
        count = self._totals.counts[group]
        return tuple(_scaled_fraction(t[group], count, e) for t, e in self._totals.sums)

    @cached_property
    def weight(self) -> Fraction:
        return Fraction(self.n_positive + self.n_negative, sum(self._totals.counts[2:]))

    @cached_property
    def mean_positive_exact(self) -> tuple[Fraction, ...]:
        return self._means(2 * self.subclass_id)

    @cached_property
    def mean_negative_exact(self) -> tuple[Fraction, ...]:
        return self._means(2 * self.subclass_id + 1)

    @cached_property
    def difference_exact(self) -> tuple[Fraction, ...]:
        return _fractions(self._totals.row_ratios(self.subclass_id))


@dataclass(frozen=True, eq=False)
class ContrastBalance:
    """Balance diagnostics for one target contrast.

    ``before`` and ``after`` are the floats of the mean differences, each
    computed from one integer numerator over one integer denominator, so no
    Fraction is made for them; they always come from these integers.
    ``before_exact`` and ``after_exact`` are built from the same integers on
    first access and then kept; a value passed to the constructor or to
    ``dataclasses.replace`` is kept and returned as given, and leaves the
    floats as they are.  ``subclass_rows`` is built from the integers on
    its first read and then kept, each row's Fractions on their own first
    read.  ``assignment`` is the
    subclass assignment the diagnostics were computed from, and ``scores``
    the score it was made on, when a pass built them.
    """

    contrast: Contrast
    n_positive: int = 0
    n_negative: int = 0
    before_exact: tuple[Fraction, ...] | None = _ExactDifferences()
    after_exact: tuple[Fraction, ...] | None = _ExactDifferences()
    error: str | None = None
    assignment: SubclassAssignment | None = None
    _totals: _GroupTotals | None = field(default=None, repr=False)

    @cached_property
    def subclass_rows(self) -> tuple[SubclassBalanceRow, ...] | None:
        """One row per subclass in id order; None when not subclassified."""
        totals = self._totals
        if totals is None or totals.after is None:
            return None
        rows = []
        for sid in range(1, totals.num_subclasses + 1):
            difference = _floats(totals.row_ratios(sid))
            difference.setflags(write=False)
            counts = totals.counts[2 * sid:2 * sid + 2]
            rows.append(SubclassBalanceRow(sid, *counts, difference, totals))
        return tuple(rows)

    @property
    def before(self) -> np.ndarray | None:
        return _floats(self._totals and self._totals.before)

    @property
    def after(self) -> np.ndarray | None:
        return _floats(self._totals and self._totals.after)

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
    :class:`~csps.errors.DimensionMismatch`.  The per-unit reference for the
    table sums of :func:`run_algorithm`, which does not call it.
    """
    _check_width(dataset, target)
    if subclasses is not None and len(subclasses.labels) != dataset.n_units:
        raise InvalidArgument("subclass labels must cover every unit of the dataset")
    d = assignment_indicators(target, dataset.treatments)
    eligible = np.flatnonzero(d != 0)
    negative = d[eligible] == -1
    n_neg = int(np.count_nonzero(negative))
    S = 0 if subclasses is None else subclasses.num_subclasses
    # every subclass needs a unit of each group, which also bounds the
    # group counts below by the units, whatever S is
    if min(len(eligible) - n_neg, n_neg) < max(S, 1):
        raise EmptyGroup("a comparison group is empty")
    groups = negative.astype(np.intp)
    if subclasses is not None:
        groups += 2 * subclasses.labels[eligible].astype(np.intp)
    counts = np.bincount(groups, minlength=2 * (S + 1)).tolist()
    if 0 in counts[2:]:
        raise EmptyGroup("a comparison group is empty")
    c = _Comparison(target, subclasses, dataset.covariates, eligible, groups, None, counts)
    return _mean_differences(dataset, [c])[0]


class _Comparison(NamedTuple):
    """A target's groups and the covariate rows they sum.

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


class _CellTable(NamedTuple):
    """A dataset's units counted by (covariate cell, treatment).

    Row r is a pair with units: covariate cell ``cell[r]``, whose covariate
    row is ``values[cell[r]]``, treatment label ``treatment[r]`` and
    ``count[r] > 0`` units, or one unit when ``count`` is None.  With
    ``cell`` None, row r is unit r, whose covariate row is ``values[r]``.
    A count table holds no array per unit.
    """

    cell: np.ndarray | None
    treatment: np.ndarray
    count: np.ndarray | None
    values: np.ndarray


def _cell_table(dataset: Dataset) -> _CellTable:
    """The units counted by (cell, treatment) that the dataset's cell index
    keeps (see :func:`~csps.data.build_cell_index`): read, not recounted, so
    a pass on a built index reads no array per unit."""
    cells = dataset.cell_index
    return _CellTable(*cells._pairs, cells.rows)


def _unit_table(dataset: Dataset) -> _CellTable:
    """The table whose row i is unit i, with no index of cells: a target's
    rows are its units."""
    return _CellTable(None, dataset.treatments, None, dataset.covariates)


@dataclass(frozen=True, eq=False)
class _BalancingDesign:
    """The J balancing scores of one dataset, in the form the chained fit reads.

    The scores depend on the dataset and the balancing set only, so one
    design serves every target, whose groups are found on the rows of
    ``table``.  The logistic design's table is :func:`_unit_table`; its
    ``features`` are the N x J float matrix of scores and its ``order``
    (``_canonical_order`` of the scores, built on first use) the order
    every chained fit takes its units in.  The empirical design's table is
    :func:`_cell_table`, the read-only counts that the dataset's cell index
    keeps and every design on that dataset shares; the chained cell (of
    equal balancing-score tuples) of each table row is ``chain``, on which
    each target's chained score and its labels per chained cell are built,
    and of each covariate cell ``chain_of_cell`` (read-only).  Both are
    carried to the units through
    ``cell_of_unit``, the dataset's own read-only index, so the design
    holds no array per unit; ``treatments`` are the dataset's, from which a
    target's labels find each unit's group when they are first read.  A
    target's score has ``num_entries`` entries: the chained cells, or the
    units on the unit table.
    ``undefined[j]`` holds the table rows in cells without a unit of
    balancing contrast j's groups, where score j is undefined (none for the
    logistic design, whose scores are defined on every unit).
    """

    contrasts: tuple[Contrast, ...]
    table: _CellTable
    features: np.ndarray | None = None
    undefined: tuple[np.ndarray, ...] = ()
    chain: np.ndarray | None = None
    chain_of_cell: np.ndarray | None = None
    cell_of_unit: np.ndarray | None = None
    num_entries: int = 0
    treatments: np.ndarray | None = None

    @cached_property
    def order(self) -> np.ndarray:
        return _canonical_order(self.features)


def _balancing_design(
    dataset: Dataset, balancing: tuple[Contrast, ...], config: AlgorithmConfig
) -> _BalancingDesign:
    """Fit the J balancing scores once and build the chained design from them.

    One score is fitted per bifurcation: a repeated, rescaled or negated
    contrast has the score s or 1 - s of an earlier one, so only the first
    contrast of each sign pattern, up to a sign flip, is kept, in its own
    orientation, and the design's texts name it.

    The empirical design reads the units' counts by (cell, treatment) that
    the dataset's cell index keeps, not the units.  The scores and their
    undefined rows come from the counts, on the table rows, and each
    covariate cell's chained cell from the scores.
    A chained cell needs equal scores only, not their order, so the cells
    are numbered by their reduced score ratios, unsorted.
    """
    if dataset.n_units == 0:
        raise TooFewUnits("the dataset has no units")
    kept = {}  # by sign pattern, one byte a treatment
    for contrast in balancing:
        signs = contrast._signs.astype(np.int8)
        if (-signs).tobytes() not in kept:
            kept.setdefault(signs.tobytes(), contrast)
    balancing = tuple(kept.values())

    if config.estimator == "logistic":
        features = np.column_stack(
            [model_csps(dataset, c, ridge=config.ridge)._floats for c in balancing]
        )
        return _BalancingDesign(
            balancing, _unit_table(dataset), features=features, num_entries=len(features)
        )
    table = _cell_table(dataset)
    cell_index = dataset.cell_index
    num_cells = cell_index.num_cells
    ratios, undefined = [], []
    for contrast in balancing:
        # score j of every table row, as empirical_csps gives it
        scores = _cell_scores(
            table.cell, num_cells, assignment_indicators(contrast, table.treatment),
            table.count,
        )
        ratios += [scores._numerators, scores._denominators]
        undefined.append(scores.undefined_units)
    # cells of equal balancing-score tuples, equal reduced ratios ((0, 0)
    # where undefined); a tuple with an undefined score holds no eligible
    # unit of any target that passes the checks, so its cell stays undefined
    chain_of_cell, num_chained = _dense_ids(ratios)
    chain_of_cell.setflags(write=False)
    return _BalancingDesign(
        balancing, table, undefined=tuple(undefined), chain=chain_of_cell[table.cell],
        chain_of_cell=chain_of_cell, cell_of_unit=cell_index.cell_of_unit,
        num_entries=num_chained, treatments=dataset.treatments,
    )


class _Target(NamedTuple):
    """A target's rows of its design's table, and its chained score.

    ``rows`` are the table rows in the target's groups, ``negative`` says
    which of them are in the negative group, and ``count`` gives their
    units (one each when None).  ``scores`` is the chained score of every
    unit and ``row_scores`` that of every table row.
    """

    scores: ScoreVector
    row_scores: ScoreVector
    rows: np.ndarray
    negative: np.ndarray
    count: np.ndarray | None


def _target(design: _BalancingDesign, target: Contrast, config: AlgorithmConfig) -> _Target:
    """The target's groups on the design's table, and its chained score.

    A target fails when one of its groups is empty, or when a unit of its
    groups lies in a cell where a balancing score is undefined, so the check
    reads only those cells' rows.  The logistic chained score is a fit on
    the target's units, and the empirical one counts each chained cell's
    units of either sign with one bincount over the target's rows, and is
    checked over the table rows, not the units.  Its per-unit score has the
    same entries, one per chained cell, read through the dataset's covariate
    cell of each unit and the design's chained cell of each covariate cell,
    which every target shares.
    """
    table = design.table
    sign = assignment_indicators(target, table.treatment)
    # through a bool mask: np.flatnonzero of the int64 indicator itself is
    # about five times slower
    rows = np.flatnonzero(sign != 0)
    negative = sign[rows] == -1
    count = None if table.count is None else table.count[rows]
    n_pos, n_neg = np.bincount(negative, count, minlength=2).tolist()
    if not (n_pos and n_neg):
        raise OneClassOnly("target bifurcation has an empty group")
    for contrast, undefined in zip(design.contrasts, design.undefined):
        if undefined.size and sign[undefined].any():
            raise UndefinedScores(
                f"balancing score {contrast.describe()} "
                "is undefined on units of the target bifurcation"
            )
    if config.estimator == "logistic":
        scores = row_scores = _logistic_scores(design.features, sign, config.ridge, design.order)
    else:
        row_scores = _cell_scores(
            design.chain[rows], design.num_entries, sign[rows], count, index=design.chain
        )
        scores = ScoreVector._frozen(
            numerators=row_scores._numerators, denominators=row_scores._denominators,
            index=design.cell_of_unit, entry_of_cell=design.chain_of_cell,
        )
    return _Target(scores, row_scores, rows, negative, count)


def _target_comparison(
    design: _BalancingDesign, target: Contrast, config: AlgorithmConfig
) -> _Comparison:
    """A target's chained score, subclasses and summed groups, from its design's table.

    What :func:`chained_propensity`, :func:`subclassify` and
    :func:`covariate_mean_difference` give, worked out on the target's table
    rows: the subclasses by :func:`_subclass_rows` with the rows' counts,
    and each subclass's groups summed per row, the row's covariate values
    weighted by its units.  Either table's labels are kept one per entry of
    the target's score: on the unit table the entries are the units, which
    the rows index directly, so the labels are per unit; on a count table
    they are the chained cells, whose eligible units share a score, so a
    subclass, and the assignment gathers them per unit through its score's
    maps when first read.  On a table with counts, a target of more than
    ``_UNITS_PER_SUM`` units, which the weighted sums cannot take, has each
    of its rows repeated once per unit and summed unweighted: the same
    (group, covariate row) values, so the same exact sums (the unit table's
    unweighted sums take any number of units).  The checks of those three
    functions that the chained checks leave unreachable are not repeated.
    """
    scores, row_scores, rows, negative, count = _target(design, target, config)
    label, num_subclasses = _subclass_rows(row_scores, rows, negative, config, count)
    table = design.table
    label_of_entry = np.zeros(design.num_entries, dtype=label.dtype)
    label_of_entry[rows if design.chain is None else design.chain[rows]] = label
    assignment = SubclassAssignment._built(
        label_of_entry, num_subclasses, scores, target._signs, design.treatments
    )
    groups = 2 * label.astype(np.intp)
    groups += negative
    num_groups = 2 * (num_subclasses + 1)
    # sums of counts below 2**53: exact
    counts = np.bincount(groups, count, minlength=num_groups).astype(np.int64).tolist()
    if count is not None and sum(counts) > _UNITS_PER_SUM:
        rows, groups, count = np.repeat(rows, count), np.repeat(groups, count), None
    units = rows if table.cell is None else table.cell[rows]
    return _Comparison(target, assignment, table.values, units, groups, count, counts)


def chained_propensity(
    dataset: Dataset,
    balancing: Sequence[Contrast],
    target: Contrast,
    estimator: str = AlgorithmConfig.estimator,
    ridge: float = AlgorithmConfig.ridge,
) -> ScoreVector:
    """Propensity score for the target fitted on the J balancing scores.

    First estimates one score per balancing contrast, then estimates the
    probability of the target's positive group given those J scores, using
    exact cells of the score tuple (``estimator="empirical"``) or a binary
    logistic fit (``estimator="logistic"``).  Scores are predicted for every
    unit.  It is :func:`run_algorithm`'s score stage for one target.  A
    contrast whose width is not the dataset's number of treatments raises
    :class:`~csps.errors.DimensionMismatch` before any fit, ``estimator``
    and ``ridge`` are then checked by :class:`AlgorithmConfig`, and a
    dataset with no units raises :class:`~csps.errors.TooFewUnits`.
    """
    balancing, (target,) = _checked_contrasts(dataset, balancing, [target])
    config = AlgorithmConfig(estimator=estimator, ridge=ridge)
    return _target(_balancing_design(dataset, balancing, config), target, config).scores


def _checked_contrasts(dataset: Dataset, balancing, targets) -> tuple[tuple, tuple]:
    """The contrasts as tuples, after the input checks a pass makes before any fit."""
    balancing, targets = tuple(balancing), tuple(targets)
    for contrast in (*balancing, *targets):
        _check_width(dataset, contrast)
    if targets and not balancing:
        raise InvalidArgument("at least one balancing contrast is required")
    return balancing, targets


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
    :class:`~csps.errors.DimensionMismatch` (or NotAContrast, for an entry
    that is not a :class:`Contrast`) before any fit, and targets with no
    balancing contrast an :class:`~csps.errors.InvalidArgument`, which is
    also a ``ValueError``.  Whichever the estimator, each target
    is worked out by one path, :func:`_target_comparison`, on the rows of
    its design's table (see the module docstring).
    """
    balancing, targets = _checked_contrasts(dataset, balancing, targets)
    design = failure = None
    if targets:
        try:
            design = _balancing_design(dataset, balancing, config)
        except CspsError as exc:
            failure = _error_text(exc)
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
            waiting.append(_target_comparison(design, target, config))
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
