"""Chained balancing: scores as covariates, subclassification, diagnostics.

The core routine estimates one score per balancing contrast, once per
dataset, treats those J scores as covariates in an ordinary propensity
analysis for each target bifurcation, subclassifies on the chained score,
and reports covariate mean differences between the target's two groups
before and after subclassing.

Group means are exact rationals (float64 covariates are dyadic rationals),
so reported differences are invariant to the unit order and identities
between them hold exactly, not merely to rounding.  The sums behind them are
integer array reductions (:func:`_exact_group_sums`), and scores stay in the
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
from operator import mul
from typing import Sequence

import numpy as np

from .contrasts import Contrast, assignment_indicators
from .data import Dataset
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


def _exact_group_sums(
    values: np.ndarray, groups: np.ndarray, num_groups: int
) -> tuple[list[int], int]:
    """Exact sums of float64 ``values`` per group label in ``0..num_groups-1``.

    Returns ``(totals, exponent)``: the sum over group ``g`` is exactly
    ``totals[g] * 2**exponent``.  Each float is ``m * 2**(e - 53)`` with an
    integer ``m`` below ``2**53`` in magnitude (``np.frexp``).  ``m`` is split
    into a high limb (below ``2**27`` in magnitude) and a low 26-bit limb,
    and each limb is summed with one ``np.bincount`` keyed by (group, ``e``).
    Only the nonzero buckets are then combined, as Python ints.
    """
    if values.size == 0:
        return [0] * num_groups, 0
    # the limbs stay float64: scaling by powers of two, floor and the
    # subtraction are exact, and no int64 copy of the mantissas is made
    mantissa, exponent = np.frexp(values)
    mantissa *= float(1 << (_MANTISSA_BITS - _LIMB_BITS))
    high = np.floor(mantissa)
    low = mantissa
    low -= high
    low *= float(1 << _LIMB_BITS)
    e_min = int(exponent.min())
    width = int(exponent.max()) - e_min + 1
    key = groups * width
    key += exponent
    key -= e_min
    buckets = None
    nbins = num_groups * width
    if nbins > 2 * values.size + 256:
        # few (group, exponent) pairs occur: number only those
        buckets, key = np.unique(key, return_inverse=True)
        nbins = len(buckets)
    high_sum = np.zeros(nbins, dtype=np.int64)
    low_sum = np.zeros(nbins, dtype=np.int64)
    for start in range(0, values.size, _UNITS_PER_SUM):
        part = slice(start, start + _UNITS_PER_SUM)
        for limb, limb_sum in ((high, high_sum), (low, low_sum)):
            sums = np.bincount(key[part], weights=limb[part], minlength=nbins)
            limb_sum += sums.astype(np.int64)
    used = (high_sum | low_sum).nonzero()[0]
    code = used if buckets is None else buckets[used]
    group, shift = np.divmod(code, width)
    totals = [0] * num_groups
    for g, shift, h, lo in zip(
        group.tolist(), shift.tolist(), high_sum[used].tolist(), low_sum[used].tolist()
    ):
        totals[g] += ((h << _LIMB_BITS) + lo) << shift
    return totals, e_min - _MANTISSA_BITS


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
    ``totals[g] * 2**exponent``.  ``before`` and ``after`` hold one
    ``(numerator, denominator, exponent)`` ratio per covariate.
    """

    __slots__ = ("counts", "sums", "sizes", "before", "after")

    def __init__(self, counts: list[int], sums: list, sizes: list[int] | None):
        self.counts = counts
        self.sums = sums
        self.sizes = sizes
        n_pos, n_neg = sum(counts[0::2]), sum(counts[1::2])
        self.before = tuple(
            _difference(sum(totals[0::2]), n_pos, sum(totals[1::2]), n_neg, exponent)
            for totals, exponent in sums
        )
        self.after = None
        if sizes is None:
            return
        # the subclass differences P_s/n+_s - N_s/n-_s weighted by
        # size_s / n_assigned, over one common denominator n_assigned * L,
        # L the lcm of the n+_s * n-_s: the numerator is the sum over s of
        # P_s * a_s - N_s * b_s
        n_pos_s, n_neg_s = counts[2::2], counts[3::2]
        products = list(map(mul, n_pos_s, n_neg_s))
        common = math.lcm(*products)
        scale = [size * (common // p) for size, p in zip(sizes[1:], products)]
        a, b = list(map(mul, scale, n_neg_s)), list(map(mul, scale, n_pos_s))
        # with no subclass the numerator is 0 and any denominator will do
        denominator = max(sum(sizes[1:]), 1) * common
        self.after = tuple(
            (
                sum(map(mul, a, totals[2::2])) - sum(map(mul, b, totals[3::2])),
                denominator,
                exponent,
            )
            for totals, exponent in sums
        )

    def means(self, group: int) -> tuple[Fraction, ...]:
        return tuple(
            _scaled_fraction(totals[group], self.counts[group], exponent)
            for totals, exponent in self.sums
        )

    def subclass_difference(self, sid: int) -> tuple:
        pos, neg = 2 * sid, 2 * sid + 1
        return tuple(
            _difference(totals[pos], self.counts[pos], totals[neg], self.counts[neg], exponent)
            for totals, exponent in self.sums
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
    as given.
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
        if self.num_subclasses < 1:
            raise ValueError("num_subclasses must be at least 1")
        _check_ridge(self.ridge)


class SubclassAssignment:
    """Subclass labels for the units of one bifurcation.

    ``labels[i]`` is a 1-based subclass id for units assigned to either
    group and 0 for everyone else.  After construction every subclass
    contains at least one unit from each group.  The labels are held in the
    narrowest unsigned integer type that fits them (usually one byte), since
    reports keep them.  An assignment made by :func:`subclassify` also keeps
    what it was made from: the bifurcation's group ``indicator`` (+1, -1 or
    0 per unit, one byte each) and the ``scores``; otherwise both are None.
    """

    __slots__ = ("labels", "num_subclasses", "method", "indicator", "scores")

    def __init__(
        self, labels, num_subclasses: int, method: str, indicator=None, scores=None
    ):
        lab = np.asarray(labels)
        if lab.size and int(lab.min()) < 0:
            raise ValueError("subclass labels must be nonnegative")
        if int(lab.max(initial=0)) > num_subclasses:
            raise ValueError("subclass labels must not exceed num_subclasses")
        lab = lab.astype(np.min_scalar_type(int(num_subclasses)))
        lab.setflags(write=False)
        self.labels = lab
        self.num_subclasses = int(num_subclasses)
        self.method = method
        if indicator is not None:
            indicator = np.asarray(indicator).astype(np.int8)
            indicator.setflags(write=False)
        self.indicator = indicator
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


def subclassify(
    scores: ScoreVector,
    d_indicator,
    method: str = "quantile",
    num_subclasses: int = 5,
) -> SubclassAssignment:
    """Partition the bifurcation's units into subclasses of similar score.

    ``method="exact"`` gives one subclass per distinct score value among the
    eligible units (those with a nonzero indicator); ``method="quantile"``
    cuts at the s/S empirical quantiles, with boundary ties going to the
    lower subclass.  Subclasses missing one of the two groups are merged
    with the neighbouring subclass toward the median until every subclass
    contains both, which collapses degenerate splits instead of failing.
    Subclass ids are 1-based in ascending score order.
    """
    d = np.asarray(d_indicator, dtype=int)
    if len(d) != len(scores):
        raise ValueError("indicator length must match scores")
    eligible = np.flatnonzero(d != 0)
    if eligible.size == 0:
        raise TooFewUnits("no units are assigned to either group")
    sign = d[eligible]
    positive, negative = sign == 1, sign == -1
    if not (positive | negative).all():
        raise ValueError("group indicators must be 1, -1 or 0")
    if not (positive.any() and negative.any()):
        raise TooFewUnits("all eligible units fall in a single group")
    if not scores.defined_mask[eligible].all():
        raise UndefinedScores(
            f"{int((~scores.defined_mask[eligible]).sum())} eligible units have "
            "undefined scores"
        )

    # group[i]: the score-ordered group of eligible unit i before merging
    if method == "exact":
        group = scores.dense_ranks(eligible)
        tag = "exact-values"
    elif method == "quantile":
        S = int(num_subclasses)
        if S < 1:
            raise ValueError("num_subclasses must be at least 1")
        vals = scores.as_floats()[eligible]
        if S == 1:
            group = np.zeros(eligible.size, dtype=np.intp)
        else:
            bounds = np.quantile(vals, np.arange(1, S) / S)
            # group = number of boundaries strictly below the value, so ties
            # fall into the lower subclass
            group = np.searchsorted(bounds, vals, side="left")
        tag = f"quantile({S})"
    else:
        raise ValueError(f"unknown subclass method {method!r}")

    num_groups = int(group.max()) + 1
    subclass, num_merged = _merge_one_class_groups(
        np.bincount(group[positive], minlength=num_groups).tolist(),
        np.bincount(group[negative], minlength=num_groups).tolist(),
    )
    labels = np.zeros(len(scores), dtype=np.intp)
    labels[eligible] = subclass[group] + 1
    return SubclassAssignment(labels, num_merged, tag, indicator=d, scores=scores)


@dataclass(frozen=True, eq=False)
class SubclassBalanceRow:
    """Group sizes, group means, and mean difference within one subclass.

    ``difference`` holds the floats, computed from integer totals without a
    Fraction; ``weight`` (the subclass's share of the assigned units) and the
    exact means and difference are Fractions built on first access.
    """

    subclass_id: int
    n_positive: int
    n_negative: int
    weight: Fraction = _OnAccess()
    mean_positive_exact: tuple[Fraction, ...] = _OnAccess()
    mean_negative_exact: tuple[Fraction, ...] = _OnAccess()
    difference_exact: tuple[Fraction, ...] = _OnAccess()
    _totals: _GroupTotals | None = field(default=None, repr=False)

    def _build_weight(self):
        if self._totals is None:
            return None
        sizes = self._totals.sizes
        return Fraction(sizes[self.subclass_id], sum(sizes[1:]))

    def _build_mean_positive_exact(self):
        return None if self._totals is None else self._totals.means(2 * self.subclass_id)

    def _build_mean_negative_exact(self):
        return None if self._totals is None else self._totals.means(2 * self.subclass_id + 1)

    def _ratios(self):
        if self._totals is None:
            return None
        return self._totals.subclass_difference(self.subclass_id)

    def _build_difference_exact(self):
        return _fractions(self._ratios())

    @property
    def difference(self) -> np.ndarray:
        return _floats(self, "difference_exact", self._ratios())


@dataclass(frozen=True, eq=False)
class ContrastBalance:
    """Balance diagnostics for one target contrast.

    ``before`` and ``after`` are the floats of the mean differences, each
    computed from one integer numerator over one integer denominator, so no
    Fraction is made for them.  ``before_exact``, ``after_exact`` and
    ``subclass_rows`` are built from the same integers on first access and
    then kept; a value passed to the constructor or to ``dataclasses.replace``
    is kept instead, and the floats then come from it.  ``assignment`` is
    the subclass assignment the diagnostics were computed from, and
    ``scores`` the score it was made on, when a pass built them.
    """

    contrast: Contrast
    n_positive: int = 0
    n_negative: int = 0
    before_exact: tuple[Fraction, ...] | None = _OnAccess()
    after_exact: tuple[Fraction, ...] | None = _OnAccess()
    subclass_rows: tuple[SubclassBalanceRow, ...] | None = _OnAccess()
    error: str | None = None
    assignment: SubclassAssignment | None = None
    _totals: _GroupTotals | None = field(default=None, repr=False)

    def _build_before_exact(self):
        return _fractions(self._totals and self._totals.before)

    def _build_after_exact(self):
        return _fractions(self._totals and self._totals.after)

    def _build_subclass_rows(self):
        totals = self._totals
        if totals is None or totals.sizes is None:
            return None
        counts = totals.counts
        return tuple(
            SubclassBalanceRow(sid, counts[2 * sid], counts[2 * sid + 1], _totals=totals)
            for sid in range(1, len(totals.sizes))
        )

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
        return len(self.subclass_rows) if self.subclass_rows else 0


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
    their average weighted by each subclass's share of eligible units.  One
    exact group sum per covariate serves the pooled pair and every subclass
    pair.  An assignment made by :func:`subclassify` keeps the group
    indicator it was made for, which then gives the target's groups; for
    any other assignment they come from the target and the treatments.
    """
    if subclasses is not None and len(subclasses.labels) != dataset.n_units:
        raise ValueError("subclass labels must cover every unit of the dataset")
    if subclasses is not None and subclasses.indicator is not None:
        d = subclasses.indicator
    else:
        d = assignment_indicators(target, dataset.treatments)
    eligible = np.flatnonzero(d)
    # group 2s holds subclass s's positive units and 2s + 1 its negative ones
    groups = (d[eligible] == -1).astype(np.intp)
    S = 0
    if subclasses is not None:
        S = subclasses.num_subclasses
        groups += 2 * subclasses.labels[eligible].astype(np.intp)
    counts = np.bincount(groups, minlength=2 * (S + 1)).tolist()
    n_pos, n_neg = sum(counts[0::2]), sum(counts[1::2])
    if n_pos == 0 or n_neg == 0 or 0 in counts[2:]:
        raise EmptyGroup("a comparison group is empty")
    sums = [
        _exact_group_sums(dataset.covariates[eligible, k], groups, len(counts))
        for k in range(dataset.num_covariates)
    ]
    sizes = None
    if subclasses is not None:
        sizes = np.bincount(subclasses.labels, minlength=S + 1).tolist()
    return ContrastBalance(
        contrast=target,
        n_positive=n_pos,
        n_negative=n_neg,
        assignment=subclasses,
        _totals=_GroupTotals(counts, sums, sizes),
    )


@dataclass(frozen=True, eq=False)
class _BalancingDesign:
    """The J balancing scores of one dataset, in the form the chained fit reads.

    The scores depend on the dataset and the balancing set only, so one
    design serves every target.  ``defined[j]`` marks the units where score
    j is defined.  The logistic design is the N x J float matrix of scores;
    the empirical one is the read-only cell of every unit's score tuple,
    which every target's chained scores share as their index.
    """

    contrasts: tuple[Contrast, ...]
    defined: np.ndarray
    features: np.ndarray | None = None
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

    if estimator == "empirical":
        base = [empirical_csps(dataset, c) for c in balancing]
    else:
        base = [model_csps(dataset, c, ridge=ridge) for c in balancing]
    defined = np.stack([sv.defined_mask for sv in base])
    if estimator == "logistic":
        features = np.column_stack([sv.as_floats() for sv in base])
        return _BalancingDesign(balancing, defined, features=features)
    # cells of equal balancing-score tuples; a tuple with an undefined score
    # holds no eligible unit of any target that passes the checks, so its
    # cell stays undefined
    cells, num_cells = _dense_ids([sv.dense_ranks() for sv in base])
    cells.setflags(write=False)
    return _BalancingDesign(balancing, defined, cells=cells, num_cells=num_cells)


def _chained_scores(design: _BalancingDesign, d: np.ndarray, ridge: float) -> ScoreVector:
    """The target's chained score from a balancing design; ``d`` is its indicator."""
    eligible = np.flatnonzero(d != 0)
    if not (d == 1).any() or not (d == -1).any():
        raise OneClassOnly("target bifurcation has an empty group")
    undefined = ~design.defined[:, eligible].all(axis=1)
    if undefined.any():
        raise UndefinedScores(
            f"balancing score {design.contrasts[int(undefined.argmax())].describe()} "
            "is undefined on units of the target bifurcation"
        )
    if design.cells is not None:
        n_pos = np.bincount(design.cells[d == 1], minlength=design.num_cells)
        n_either = np.bincount(design.cells[eligible], minlength=design.num_cells)
        return ScoreVector.from_ratios(n_pos, n_either, index=design.cells)
    return _logistic_scores(design.features, d, ridge=ridge)


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
    :class:`~csps.errors.DimensionMismatch` before any fit.
    """
    balancing = tuple(balancing)
    for contrast in (*balancing, target):
        _check_width(dataset, contrast)
    design = _balancing_design(dataset, balancing, estimator, ridge)
    d = assignment_indicators(target, dataset.treatments)
    return _chained_scores(design, d, ridge)


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
    balancing fit is recorded on every target.  A balancing or target
    contrast whose width is not the dataset's number of treatments is an
    input error, not a per-target failure: it raises
    :class:`~csps.errors.DimensionMismatch` before any fit.
    """
    balancing, targets = tuple(balancing), tuple(targets)
    for contrast in (*balancing, *targets):
        _check_width(dataset, contrast)
    design = failure = None
    if targets:
        try:
            design = _balancing_design(dataset, balancing, config.estimator, config.ridge)
        except CspsError as exc:
            failure = _error_text(exc)
    entries = []
    for target in targets:
        if failure is not None:
            entries.append(ContrastBalance(contrast=target, error=failure))
            continue
        try:
            d = assignment_indicators(target, dataset.treatments)
            scores = _chained_scores(design, d, config.ridge)
            assignment = subclassify(
                scores, d, method=config.subclass_method,
                num_subclasses=config.num_subclasses,
            )
            entries.append(covariate_mean_difference(dataset, target, assignment))
        except CspsError as exc:
            entries.append(ContrastBalance(contrast=target, error=_error_text(exc)))
    return BalanceReport(
        covariate_names=dataset.covariate_names, entries=tuple(entries)
    )
