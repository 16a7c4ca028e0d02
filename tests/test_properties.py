"""Property tests: the array arithmetic against per-unit Fraction references.

Each reference below is the plain per-unit computation in exact rationals.
The library must give the same Fractions and the same groupings, whatever
the data and whatever the unit order.
"""

import contextlib
import csv
import importlib
import io
import math
import os
import pickle
import sys
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from csps import balancing, cli, csvwriter, data, estimation
from csps.balancing import (
    AlgorithmConfig,
    SubclassAssignment,
    _merge_one_class_groups,
    _stacked_group_sums,
    chained_propensity,
    covariate_mean_difference,
    run_algorithm,
    subclassify,
)
from csps.contrasts import (
    Bifurcation,
    Contrast,
    assignment_indicators,
    bifurcation_span_contains,
)
from csps.data import Dataset, _canonical_order, _dense_ids, build_cell_index, write_dataset_csv
from csps.errors import (
    CspsError,
    EmptyFile,
    MissingValue,
    OneClassOnly,
    OutOfRangeTreatment,
    ParseError,
    TooFewUnits,
    UndefinedScores,
)
from csps.estimation import (
    ScoreVector,
    empirical_csps,
    fit_binary_logistic,
    model_csps,
)
from csps.simulation import mechanism_ii, sample_dataset, simulation_contrasts

EXTREMES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
    1.7976931348623157e308, 0.1, -2.5, 1.0,
)
FLOATS = st.one_of(
    st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)
)
DISCRETE = st.sampled_from((0.0, -0.0, 1.0, 2.0))
CONTRASTS = simulation_contrasts() + (Contrast((1, 1, -2), label="12-vs-3"),)


def make_dataset(X, w) -> Dataset:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # absent treatments only warn
        return Dataset(X, w, num_treatments=3)


@st.composite
def grouped_columns(draw, max_size=60):
    """A float column, group labels 0..G-1 and G, with G from 1 to the size."""
    n = draw(st.integers(1, max_size))
    values = draw(st.lists(FLOATS, min_size=n, max_size=n))
    num_groups = draw(st.integers(1, n))
    groups = draw(st.lists(st.integers(0, num_groups - 1), min_size=n, max_size=n))
    return np.array(values, dtype=float), np.array(groups, dtype=np.intp), num_groups


@st.composite
def datasets(draw, values=FLOATS, min_units=1, max_units=40):
    n = draw(st.integers(min_units, max_units))
    k = draw(st.integers(1, 3))
    X = draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=n, max_size=n))
    w = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return np.array(X, dtype=float).reshape(n, k), np.array(w)


def indicators(n: int):
    return st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)


def exact_scores(values) -> ScoreVector:
    """Exact scores, one entry per unit, from rationals and ``None`` (undefined)."""
    nums = [0 if v is None else v.numerator for v in values]
    dens = [0 if v is None else v.denominator for v in values]
    return ScoreVector.from_ratios(nums, dens, index=np.arange(len(values)))


# ---------------------------------------------------------------------------
# references


def reference_means(values, groups, num_groups) -> dict:
    out = {}
    for g in range(num_groups):
        col = values[groups == g].tolist()
        if col:
            out[g] = sum(map(Fraction, col)) / len(col)
    return out


def library_means(values, groups, num_groups) -> dict:
    totals, exponent = _stacked_group_sums([(values, groups, num_groups)])[0]
    counts = np.bincount(groups, minlength=num_groups)
    return {
        g: Fraction(totals[g]) * Fraction(2) ** exponent / int(counts[g])
        for g in range(num_groups)
        if counts[g]
    }


def reference_balance(X, d, labels=None):
    """Before/after differences and subclass rows, mean by mean in Fractions."""

    def means(units):
        if not units:
            raise CspsError("empty group")
        return tuple(
            sum(Fraction(X[i, k]) for i in units) / len(units) for k in range(X.shape[1])
        )

    def diff(pos, neg):
        return tuple(a - b for a, b in zip(means(pos), means(neg)))

    before = diff(
        [i for i in range(len(d)) if d[i] == 1], [i for i in range(len(d)) if d[i] == -1]
    )
    if labels is None:
        return before, None, None
    # a subclass weighs only its units in the target's groups
    n_assigned = sum(1 for s, v in zip(labels, d) if s > 0 and v != 0)
    rows, after = [], [Fraction(0)] * X.shape[1]
    for sid in range(1, max(labels, default=0) + 1):
        members = [i for i in range(len(d)) if labels[i] == sid]
        pos = [i for i in members if d[i] == 1]
        neg = [i for i in members if d[i] == -1]
        delta = diff(pos, neg)
        weight = Fraction(len(pos) + len(neg), n_assigned)
        rows.append((len(pos), len(neg), weight, means(pos), means(neg), delta))
        after = [a + weight * v for a, v in zip(after, delta)]
    return before, tuple(after), rows


def reference_empirical(X, w, contrast) -> tuple:
    d = assignment_indicators(contrast, w)
    cells: dict[bytes, list[int]] = {}
    for i, row in enumerate(X):
        cells.setdefault(row.tobytes(), []).append(i)
    values = [None] * len(w)
    for units in cells.values():
        n_pos = sum(1 for i in units if d[i] == 1)
        n_either = sum(1 for i in units if d[i] != 0)
        if n_either:
            for i in units:
                values[i] = Fraction(n_pos, n_either)
    return tuple(values)


def reference_chained(base: list[tuple], d) -> tuple:
    cells: dict[tuple, list[int]] = {}
    for i in range(len(d)):
        key = tuple(values[i] for values in base)
        if None not in key:
            cells.setdefault(key, []).append(i)
    values = [None] * len(d)
    for units in cells.values():
        n_pos = sum(1 for i in units if d[i] == 1)
        n_either = sum(1 for i in units if d[i] != 0)
        if n_either:
            for i in units:
                values[i] = Fraction(n_pos, n_either)
    return tuple(values)


def reference_merge(groups: list[np.ndarray], d: np.ndarray) -> list[np.ndarray]:
    """Merging as first written: rescan from group 0 after every merge."""
    groups = [g for g in groups if len(g)]
    while True:
        bad = next(
            (
                k
                for k, g in enumerate(groups)
                if not ((d[g] == 1).any() and (d[g] == -1).any())
            ),
            None,
        )
        if bad is None:
            return groups
        if len(groups) == 1:
            raise TooFewUnits(
                "subclasses cannot all contain both groups, even after merging"
            )
        target = bad + 1 if bad < (len(groups) - 1) / 2 else bad - 1
        groups[target] = np.concatenate([groups[target], groups[bad]])
        del groups[bad]


def reference_exact_labels(values, d) -> list[int]:
    eligible = [i for i in range(len(d)) if d[i] != 0]
    distinct = sorted({values[i] for i in eligible})
    groups = [np.array([i for i in eligible if values[i] == v]) for v in distinct]
    labels = [0] * len(d)
    for sid, g in enumerate(reference_merge(groups, np.asarray(d)), start=1):
        for i in g:
            labels[i] = sid
    return labels


def can_subclass(values, d) -> bool:
    eligible = [i for i in range(len(d)) if d[i] != 0]
    return (
        any(d[i] == 1 for i in eligible)
        and any(d[i] == -1 for i in eligible)
        and all(values[i] is not None for i in eligible)
    )


def report_numbers(report):
    out = []
    for e in report.entries:
        rows = [
            (r.n_positive, r.n_negative, r.weight, r.difference_exact)
            for r in e.subclass_rows or ()
        ]
        out.append((e.error, e.n_positive, e.n_negative, e.before_exact, e.after_exact, rows))
    return out


# ---------------------------------------------------------------------------
# exact group sums


@given(grouped_columns())
def test_group_sums_equal_fraction_reference(case):
    assert library_means(*case) == reference_means(*case)


@given(grouped_columns(max_size=30))
def test_group_sums_split_into_passes_agree(case):
    with mock.patch.object(balancing, "_UNITS_PER_SUM", 4):
        assert library_means(*case) == reference_means(*case)


@given(grouped_columns(), st.randoms(use_true_random=False))
def test_group_sums_ignore_unit_order(case, random):
    values, groups, num_groups = case
    order = list(range(len(values)))
    random.shuffle(order)
    assert _stacked_group_sums([(values[order], groups[order], num_groups)])[0] == (
        _stacked_group_sums([(values, groups, num_groups)])[0]
    )


CAP = balancing._VALUES_PER_CALL
WIDE = np.array(EXTREMES + (-1.7976931348623157e308, 2.0 ** -1022, -(2.0 ** -1074)))


@st.composite
def stacked_columns(draw):
    """1-5 columns with their groups: short ones drawn value by value, long
    ones around the stacking cap from a seeded generator, at one drawn binary
    scale with extremes mixed in; labels cover only part of the groups."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.one_of(
            st.integers(0, 30), st.sampled_from((CAP // 3, CAP // 2, CAP - 1, CAP, CAP + 1))
        ))
        if n <= 30:
            values = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
        else:
            values = np.clip(rng.normal(size=n), -4.0, 4.0) * 2.0 ** draw(st.integers(-1074, 1020))
            extreme = rng.random(n) < draw(st.sampled_from((0.0, 0.01, 1.0)))
            values[extreme] = rng.choice(WIDE, int(extreme.sum()))
        num_groups = draw(st.integers(1, 12))
        labelled = draw(st.integers(1, num_groups))  # groups past this stay empty
        columns.append((values, rng.integers(0, labelled, n).astype(np.intp), num_groups))
    return columns


@settings(max_examples=60, deadline=None)
@given(stacked_columns())
# exponents 2,097 apart: each column keeps its own least exponent
@example([
    (np.array([1.7976931348623157e308, -1e300, 1.7976931348623157e308]), np.array([0, 1, 0]), 2),
    (np.array([5e-324, -5e-324, 5e-324, 1e-310]), np.array([0, 0, 2, 2]), 3),
])
def test_stacked_sums_equal_single_column_sums(columns):
    stacks = []

    def watched(batch):
        stacks.append([len(values) for values, _, _ in batch])
        return real(batch)

    real = balancing._sum_stack
    with mock.patch.object(balancing, "_sum_stack", watched):
        stacked = balancing._stacked_group_sums(columns)
    assert stacked == [
        _stacked_group_sums([(values, groups, num_groups)])[0]
        for values, groups, num_groups in columns
    ]
    # a call takes as many columns as fit in the cap, and at least one
    assert [n for sizes in stacks for n in sizes] == [len(c[0]) for c in columns]
    assert all(len(sizes) == 1 or sum(sizes) <= CAP for sizes in stacks)
    assert all(sum(sizes) + after[0] > CAP for sizes, after in zip(stacks, stacks[1:]))


@st.composite
def weighted_columns(draw):
    """1-3 columns of wide values, some read through a unit index, some with
    multiplicities from 1 to 2**26 (the most a column's units may be); labels
    cover only part of the groups."""
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 12))
        values = np.array(
            draw(st.lists(st.one_of(st.sampled_from(tuple(WIDE)), FLOATS), min_size=n, max_size=n)),
            dtype=float,
        )
        num_groups = draw(st.integers(1, 6))
        labelled = draw(st.integers(1, num_groups))  # groups past this stay empty
        groups = np.array(draw(st.lists(st.integers(0, labelled - 1), min_size=n, max_size=n)),
                          dtype=np.intp)
        units = None
        if n and draw(st.booleans()):
            units = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        multiplicity = None
        if draw(st.booleans()):
            most = draw(st.sampled_from((3, 2 ** 10, 2 ** 26 // max(n, 1))))
            multiplicity = np.array(draw(st.lists(st.integers(1, most), min_size=n, max_size=n)),
                                    dtype=np.intp)
        columns.append(balancing._Column(values, groups, num_groups, units, multiplicity))
    return columns


@settings(max_examples=80, deadline=None)
@given(weighted_columns())
@example([balancing._Column(  # a bucket of 2**26 largest values: its sum is 2**52 limbs
    np.array([1.7976931348623157e308, -5e-324]), np.array([0, 1]), 2,
    multiplicity=np.array([2 ** 26 - 1, 1]),
)])
def test_weighted_sums_equal_repeated_values(columns):
    stacked = balancing._stacked_group_sums(columns)
    for column, (totals, exponent) in zip(columns, stacked):
        values = column.values if column.units is None else column.values[column.units]
        times = np.ones(len(values), dtype=np.intp) if column.multiplicity is None else (
            column.multiplicity
        )
        want = [Fraction(0)] * column.num_groups
        for v, g, m in zip(values.tolist(), column.groups.tolist(), times.tolist()):
            want[g] += Fraction(v) * m
        assert [Fraction(t) * Fraction(2) ** exponent for t in totals] == want
        assert exponent == (int(np.frexp(values)[1].min()) - 53 if len(values) else 0)
        if times.sum() <= 2 ** 16:
            assert (totals, exponent) == _stacked_group_sums([(
                np.repeat(values, times), np.repeat(column.groups, times), column.num_groups
            )])[0]


def fraction_sums(column) -> list[Fraction]:
    """The exact per-group sums of a :class:`balancing._Column`, value by value."""
    values = column.values if column.units is None else column.values[column.units]
    times = [1] * len(values) if column.multiplicity is None else column.multiplicity.tolist()
    sums = [Fraction(0)] * column.num_groups
    for v, g, m in zip(values.tolist(), column.groups.tolist(), times):
        sums[g] += Fraction(v) * m
    return sums


def unmerged(code, width, high, low, num_groups):
    """``balancing._windows`` with every bucket left its own window."""
    group, shift = np.divmod(code, width)
    return group, shift, high, low


@st.composite
def spanning_columns(draw):
    """1-3 columns whose every group holds values over 9 to 40 consecutive
    exponents, with full 53-bit mantissas of either sign, so a group's
    buckets fill two to five 8-exponent windows; WIDE values mixed in, some
    columns read through a unit index, some weighted by multiplicities
    adding up to at most 2**26."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        num_groups = draw(st.integers(1, 5))
        per_group = draw(st.integers(2, 12))
        span = draw(st.integers(9, 40))
        least = draw(st.integers(-1074, 1024 - span))
        n = num_groups * per_group
        exponents = least + rng.integers(0, span, n)
        exponents[0::per_group], exponents[1::per_group] = least, least + span - 1
        values = np.ldexp(rng.uniform(0.5, 1.0, n) * rng.choice((-1.0, 1.0), n), exponents)
        wide = rng.random(n) < draw(st.sampled_from((0.0, 0.0, 0.1)))
        values[wide] = rng.choice(WIDE, int(wide.sum()))
        groups = np.repeat(np.arange(num_groups, dtype=np.intp), per_group)
        units = rng.permutation(n) if draw(st.booleans()) else None
        multiplicity = None
        if draw(st.booleans()):
            most = draw(st.sampled_from((3, 2 ** 26 // n)))
            multiplicity = rng.integers(1, most + 1, n).astype(np.intp)
        columns.append(balancing._Column(values, groups, num_groups, units, multiplicity))
    return columns


@settings(max_examples=60, deadline=None)
@given(spanning_columns())
# one group of 2**26 units whose mantissas are all ones over 8 consecutive
# exponents: each limb sum is near 2**50, and one window takes all 8; the
# second ends at -1.7976931348623157e308
@example([balancing._Column(
    np.ldexp(1.0 - 2.0 ** -53, np.arange(-7, 1)), np.zeros(8, dtype=np.intp), 1,
    multiplicity=np.full(8, 2 ** 23),
)])
@example([balancing._Column(
    -np.ldexp(1.0 - 2.0 ** -53, np.arange(1017, 1025)), np.zeros(8, dtype=np.intp), 2,
    multiplicity=np.full(8, 2 ** 23),
)])
def test_window_merged_sums_equal_fraction_sums(columns):
    merged = balancing._stacked_group_sums(columns)
    with mock.patch.object(balancing, "_windows", unmerged):
        apart = balancing._stacked_group_sums(columns)
    assert merged == apart
    for column, (totals, exponent) in zip(columns, merged):
        assert [Fraction(t) * Fraction(2) ** exponent for t in totals] == fraction_sums(column)
    assert merged == [balancing._stacked_group_sums([column])[0] for column in columns]


def test_window_merge_takes_a_bucket_per_8_exponents():
    # a group of values at 40 consecutive exponents, one per exponent: 40
    # buckets make 5 windows, and the sums are those of the buckets apart
    k = np.arange(40)
    values = np.ldexp(np.where(k % 2, -1.0, 1.0) * (0.75 + 3 * 2.0 ** -53), k)
    column = (values, np.zeros(40, dtype=np.intp), 1)
    sizes = []
    real = balancing._windows

    def watched(code, width, high, low, num_groups):
        group, shift, high, low = real(code, width, high, low, num_groups)
        sizes.append((len(code), len(group)))
        return group, shift, high, low

    with mock.patch.object(balancing, "_windows", watched):
        merged = balancing._stacked_group_sums([column])
    assert sizes == [(40, 5)]
    with mock.patch.object(balancing, "_windows", unmerged):
        assert balancing._stacked_group_sums([column]) == merged


@pytest.mark.parametrize("limb_sum, windows", [
    (2 ** 55 - 1, 2), (-(2 ** 55 - 1), 2), (2 ** 55, 9), (-(2 ** 55), 9),
])
def test_window_merge_is_exact_up_to_limb_sums_of_2_55(limb_sum, windows):
    # eight buckets of group 0 at offsets 0-7, one window, and one bucket of
    # group 1; limb sums of 2**55 or more in magnitude are not merged
    width = 10
    code = np.array([0, 1, 2, 3, 4, 5, 6, 7, width + 9])
    high = np.full(9, limb_sum, dtype=np.int64)
    low = np.full(9, abs(limb_sum), dtype=np.int64)

    def combined(group, shift, high, low):
        totals = [0, 0]
        for g, s, h, lo in zip(group.tolist(), shift.tolist(), high.tolist(), low.tolist()):
            totals[g] += ((h << balancing._LIMB_BITS) + lo) << s
        return totals

    out = balancing._windows(code, width, high, low, 2)
    assert len(out[0]) == windows
    assert combined(*out) == combined(*unmerged(code, width, high, low, 2))


@given(datasets(min_units=2), st.sampled_from(CONTRASTS), st.data())
def test_mean_differences_equal_fraction_reference(data_case, target, data):
    X, w = data_case
    dataset = make_dataset(X, w)
    d = assignment_indicators(target, w)
    S = data.draw(st.integers(1, 4))
    # units outside the target's groups may carry a label too
    labels = [data.draw(st.integers(0, S)) for _ in d]
    assignment = SubclassAssignment(labels, max(labels))
    try:
        want = reference_balance(X, d, labels)
    except CspsError:
        with pytest.raises(CspsError):
            covariate_mean_difference(dataset, target, assignment)
        return
    got = covariate_mean_difference(dataset, target, assignment)
    before, after, rows = want
    assert got.before_exact == before
    assert got.after_exact == after
    assert [
        (r.n_positive, r.n_negative, r.weight, r.mean_positive_exact,
         r.mean_negative_exact, r.difference_exact)
        for r in got.subclass_rows
    ] == rows


@given(
    datasets(min_units=2),
    st.lists(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)), min_size=40, max_size=40),
    st.sampled_from(("exact", "quantile")),
    st.integers(1, 4),
)
def test_subclasses_made_for_one_target_measure_another(data_case, values, method, S):
    # the subclassify assignment made for one contrast, measured on another,
    # gives the same entry, or the same error, as its labels passed by hand
    X, w = data_case
    dataset = make_dataset(X, w)
    scores = ScoreVector.from_floats(values[: len(w)])
    contrasts = simulation_contrasts()
    for made_for in contrasts:
        try:
            assignment = subclassify(
                scores, assignment_indicators(made_for, w), method, num_subclasses=S
            )
        except CspsError:
            continue
        by_hand = SubclassAssignment(assignment.labels, assignment.num_subclasses)
        for measured in contrasts:
            outcomes = []
            for subclasses in (assignment, by_hand):
                try:
                    entry = covariate_mean_difference(dataset, measured, subclasses)
                except CspsError as exc:
                    outcomes.append(type(exc))
                    continue
                outcomes.append((
                    entry.n_positive, entry.n_negative, entry.before_exact,
                    entry.after_exact, entry.num_subclasses,
                    [(r.n_positive, r.n_negative, r.weight, r.difference_exact)
                     for r in entry.subclass_rows],
                ))
            assert outcomes[0] == outcomes[1]


@given(datasets(min_units=3))
def test_telescoping_identity_is_exact(data_case):
    X, w = data_case
    dataset = make_dataset(X, w)
    try:
        d12, d23, d13 = (
            covariate_mean_difference(dataset, Contrast(c)).before_exact
            for c in ((1, -1, 0), (0, 1, -1), (1, 0, -1))
        )
    except CspsError:
        return  # some treatment is absent
    assert all(a == b + c for a, b, c in zip(d13, d12, d23))


@given(datasets(values=st.sampled_from(EXTREMES), min_units=2), st.sampled_from(CONTRASTS))
def test_subclasses_of_identical_rows_balance_exactly(data_case, target):
    # saturated cells: a subclass of byte-identical rows has equal group means
    X, w = data_case
    dataset = make_dataset(X, w)
    d = assignment_indicators(target, w)
    cells = dataset.cell_index.cell_of_unit
    both = [
        c for c in range(dataset.cell_index.num_cells)
        if (d[cells == c] == 1).any() and (d[cells == c] == -1).any()
    ]
    if not both:
        return
    labels = np.zeros(len(w), dtype=int)
    for sid, c in enumerate(both, start=1):
        labels[(cells == c) & (d != 0)] = sid
    balance = covariate_mean_difference(
        dataset, target, SubclassAssignment(labels, len(both))
    )
    assert all(v == 0 for row in balance.subclass_rows for v in row.difference_exact)
    assert all(v == 0 for v in balance.after_exact)


# magnitudes from subnormal to 1e300, kept below the float range when
# differenced, so that every difference has a float
SPREAD = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 0.1, -2.5)


@st.composite
def wide_subclasses(draw):
    """A target's groups over up to 400 subclasses, with very mixed covariates."""
    S = draw(st.integers(1, 400))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # each subclass gets one unit of each group, then the rest fall anywhere
    extra = draw(st.integers(0, 3 * S))
    labels = np.concatenate([np.repeat(np.arange(1, S + 1), 2), rng.integers(0, S + 1, extra)])
    d = np.concatenate([np.tile([1, -1], S), rng.choice([1, -1], extra)])
    d[labels == 0] = 0
    scale = 10.0 ** rng.choice([-300, -150, -20, 0, 20, 150, 300], size=(len(d), k))
    X = rng.standard_normal((len(d), k)) * scale
    special = rng.random((len(d), k)) < 0.1
    X[special] = rng.choice(SPREAD, int(special.sum()))
    w = np.select([d == 1, d == -1], [1, 2], 3)
    return make_dataset(X, w), SubclassAssignment(labels, S)


@settings(max_examples=40)
@given(wide_subclasses())
def test_floats_are_the_fractions_rounded(case):
    # the floats come from integers, before any Fraction is built; each must
    # be float() of its Fraction, bit for bit
    dataset, assignment = case
    entry = covariate_mean_difference(dataset, Contrast((1, -1, 0)), assignment)
    before, after = entry.before, entry.after
    differences = [r.difference for r in entry.subclass_rows]
    assert before.tobytes() == np.array([float(v) for v in entry.before_exact]).tobytes()
    assert after.tobytes() == np.array([float(v) for v in entry.after_exact]).tobytes()
    for diff, row in zip(differences, entry.subclass_rows):
        assert diff.tobytes() == np.array([float(v) for v in row.difference_exact]).tobytes()
        assert row.difference_exact == tuple(
            p - n for p, n in zip(row.mean_positive_exact, row.mean_negative_exact)
        )
    assert entry.after_exact == tuple(
        sum(r.weight * r.difference_exact[k] for r in entry.subclass_rows)
        for k in range(dataset.num_covariates)
    )


# ---------------------------------------------------------------------------
# exact scores and exact subclasses


@given(datasets(values=DISCRETE), st.sampled_from(CONTRASTS))
def test_empirical_scores_equal_fraction_reference(data_case, contrast):
    X, w = data_case
    scores = empirical_csps(make_dataset(X, w), contrast)
    want = reference_empirical(X, w, contrast)
    assert [type(v) for v in scores.values] == [type(v) for v in want]
    assert scores.values == want
    assert scores.undefined_units.tolist() == [i for i, v in enumerate(want) if v is None]


@st.composite
def counted_cases(draw):
    """1-40 units of DISCRETE covariates (so 0.0 and -0.0 both occur) over T
    treatments, some never drawn, and a contrast over T.  T is 2-5, where
    cells x (T + 1) stays below 2N + 1024 and the units' keys are counted
    by np.bincount, or 1200-1300, past that bound, where np.unique counts
    them; the wide contrast's few nonzero coefficients fall mostly on drawn
    treatments."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 2))
    X = np.array(draw(st.lists(DISCRETE, min_size=n * k, max_size=n * k))).reshape(n, k)
    T = draw(st.one_of(st.integers(2, 5), st.integers(1200, 1300)))
    present = draw(st.lists(st.integers(1, T), min_size=1, max_size=min(T, 6), unique=True))
    w = np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)))
    if T <= 5:
        contrast = draw(contrasts_of_width(T))
    else:
        where = list(dict.fromkeys(draw(st.lists(
            st.one_of(st.sampled_from(present), st.integers(1, T)), min_size=2, max_size=4,
        ))))
        if len(where) == 1:
            where.append(where[0] % T + 1)
        head = draw(st.lists(st.integers(-2, 2), min_size=len(where) - 1, max_size=len(where) - 1))
        values = head + [-sum(head)] if any(head) else [1, -1] + [0] * (len(where) - 2)
        coefficients = [0] * T
        for t, v in zip(where, values):
            coefficients[t - 1] = v
        contrast = Contrast(tuple(coefficients))
    return X, w, T, contrast


def counted_oracle(dataset, contrast):
    """The (cell, treatment) pairs with units and their counts, by np.unique
    of the per-unit pairs, and the exact-cell scores counted per unit."""
    cells = dataset.cell_index
    pairs, counts = np.unique(
        np.column_stack([cells.cell_of_unit, dataset.treatments]), axis=0, return_counts=True
    )
    d = assignment_indicators(contrast, dataset.treatments)
    scores = estimation._cell_scores(cells.cell_of_unit, cells.num_cells, d)
    return pairs[:, 0], pairs[:, 1], counts, scores


@settings(max_examples=150, deadline=None)
@given(counted_cases(), st.randoms(use_true_random=False))
def test_kept_counts_and_empirical_scores_equal_the_per_unit_oracle(case, random):
    # the cell index counts its units by (cell, treatment) once, and
    # empirical_csps counts over those pairs, weighted by their units: both
    # must agree with counting every unit, whatever the unit order
    X, w, T, contrast = case
    order = list(range(len(w)))
    random.shuffle(order)
    results = []
    for units in (np.arange(len(w)), np.array(order)):
        dataset = table_dataset(X[units], w[units], T)
        pairs = dataset.cell_index._table
        cell, treatment, count, want = counted_oracle(dataset, contrast)
        assert pairs.cell.tolist() == cell.tolist()
        assert pairs.treatment.tolist() == treatment.tolist()
        assert pairs.count.tolist() == count.tolist()
        # the cells' rows are the table's values, read-only with the counts
        assert pairs.values is dataset.cell_index.rows
        assert not any(array.flags.writeable for array in pairs)
        scores = empirical_csps(dataset, contrast)
        assert scores._numerators.tolist() == want._numerators.tolist()
        assert scores._denominators.tolist() == want._denominators.tolist()
        assert [type(v) for v in scores.values] == [type(v) for v in want.values]
        assert scores.values == want.values
        assert scores.undefined_units.tolist() == want.undefined_units.tolist()
        results.append(scores)
    assert results[1].values == tuple(results[0].values[i] for i in order)
    wide = dataset.cell_index.num_cells * (T + 1) > 2 * len(w) + 1024
    assert wide == (T > 5)
    event("counted by np.unique" if wide else "counted by np.bincount")
    event("a single unit" if len(w) == 1 else "units")
    event("absent treatments" if len(set(w.tolist())) < T else "every treatment")
    event("-0.0" if np.signbit(X[X == 0]).any() else "no -0.0")


@given(
    datasets(values=DISCRETE),
    st.lists(st.sampled_from(CONTRASTS), min_size=1, max_size=3),
    st.sampled_from(CONTRASTS),
)
def test_empirical_chained_scores_equal_fraction_reference(data_case, balancing_set, target):
    X, w = data_case
    dataset = make_dataset(X, w)
    d = assignment_indicators(target, w)
    base = [reference_empirical(X, w, c) for c in balancing_set]
    eligible = [i for i in range(len(w)) if d[i] != 0]
    if not (any(d == 1) and any(d == -1)) or any(
        values[i] is None for values in base for i in eligible
    ):
        with pytest.raises(CspsError):
            chained_propensity(dataset, balancing_set, target, estimator="empirical")
        return
    chained = chained_propensity(dataset, balancing_set, target, estimator="empirical")
    assert chained.values == reference_chained(base, d)


@st.composite
def few_cell_datasets(draw):
    """Up to 400 units whose covariates take 1-4 of DISCRETE's values per
    column (so 0.0 and -0.0 both occur), in few cells; each cell draws its
    treatments from its own subset of 1..3, so some cells lack a treatment."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 400))
    k = draw(st.integers(1, 3))
    levels = [np.array(draw(st.lists(DISCRETE, min_size=1, max_size=4))) for _ in range(k)]
    X = np.column_stack([rng.choice(level, n) for level in levels])
    cells = make_dataset(X, np.ones(n, dtype=int)).cell_index
    allowed = [
        np.array(draw(st.sampled_from(((1, 2, 3), (1, 2, 3), (1, 2), (1, 3), (2, 3), (3,)))))
        for _ in range(cells.num_cells)
    ]
    w = np.array([rng.choice(allowed[c]) for c in cells.cell_of_unit.tolist()])
    return X, w


def pipeline_outcome(entry):
    """What a report entry says: its error, or its exact values and labels."""
    if entry.error is not None:
        return entry.error
    return (
        entry.n_positive, entry.n_negative, entry.before_exact, entry.after_exact,
        entry.assignment.labels.dtype, entry.assignment.labels.tolist(),
        [(r.subclass_id, r.n_positive, r.n_negative, r.weight, r.mean_positive_exact,
          r.mean_negative_exact, r.difference_exact, r.difference.tobytes())
         for r in entry.subclass_rows],
    )


@settings(max_examples=80, deadline=None)
@given(few_cell_datasets(), st.sampled_from(("exact", "quantile")), st.integers(1, 6))
def test_cell_sums_equal_unit_sums(data_case, method, S):
    # the empirical pass sums per (cell, treatment) row of its cell table,
    # weighted by the row's units, unless a target has more than
    # _UNITS_PER_SUM units, whose rows are repeated once per unit;
    # covariate_mean_difference on a fresh Dataset over the same arrays
    # always sums per unit
    X, w = data_case
    balancing_set = simulation_contrasts()[:2]
    config = AlgorithmConfig(estimator="empirical", subclass_method=method, num_subclasses=S)
    paths = []
    real = balancing._target_comparison

    def watched(design, target, config):
        comparison = real(design, target, config)
        per_row = sum(comparison.counts) <= balancing._UNITS_PER_SUM
        assert (comparison.multiplicity is not None) == per_row
        assert per_row or len(comparison.groups) == sum(comparison.counts)
        paths.append("row" if per_row else "unit")
        return comparison

    with mock.patch.object(balancing, "_target_comparison", watched):
        report = run_algorithm(make_dataset(X, w), balancing_set, CONTRASTS, config)
        for entry in report:
            fresh = make_dataset(X, w)
            try:
                scores = chained_propensity(fresh, balancing_set, entry.contrast, "empirical")
                assignment = subclassify(scores, assignment_indicators(entry.contrast, w),
                                         method, S)
                alone = covariate_mean_difference(fresh, entry.contrast, assignment)
            except CspsError as exc:
                assert entry.error == f"{type(exc).__name__}: {exc}"
                continue
            assert pipeline_outcome(entry) == pipeline_outcome(alone)
    event(f"paths: {sorted(set(paths))}")


@st.composite
def contrasts_of_width(draw, T):
    """A contrast over T treatments with coefficients in -2..2, zeros allowed."""
    head = draw(st.lists(st.integers(-2, 2), min_size=T - 1, max_size=T - 1))
    coefficients = head + [-sum(head)]
    if not any(coefficients):
        coefficients[:2] = [1, -1]
    return Contrast(tuple(coefficients))


@st.composite
def cell_table_cases(draw):
    """Up to 60 units over T = 2-5 treatments, some never drawn, in 1 to
    every-unit cells; 1-3 balancing contrasts and 1-4 targets over T."""
    T = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 2))
    layout = draw(st.sampled_from(("one cell", "few cells", "a cell per unit")))
    if layout == "one cell":
        X = np.full((n, k), draw(DISCRETE))
    elif layout == "few cells":
        levels = [np.array(draw(st.lists(DISCRETE, min_size=1, max_size=3))) for _ in range(k)]
        X = np.column_stack([rng.choice(level, n) for level in levels])
    else:
        X = rng.standard_normal((n, k))
    present = draw(st.one_of(
        st.just(list(range(1, T + 1))),
        st.lists(st.integers(1, T), min_size=1, max_size=T, unique=True),
    ))
    w = rng.choice(np.array(present), n)
    balancing_set = draw(st.lists(contrasts_of_width(T), min_size=1, max_size=3))
    targets = draw(st.lists(contrasts_of_width(T), min_size=1, max_size=4))
    event(layout)
    return X, w, T, balancing_set, targets


def table_dataset(X, w, T) -> Dataset:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # absent treatments only warn
        return Dataset(X, w, num_treatments=T)


def score_bytes(scores):
    ranks = scores.dense_ranks()
    return (
        scores.as_floats().tobytes(), scores.undefined_units.tobytes(),
        ranks.dtype, ranks.tobytes(),
    )


@settings(max_examples=120, deadline=None)
@given(
    cell_table_cases(), st.sampled_from(("exact", "quantile")), st.integers(1, 70),
    st.sampled_from((None, 3)), st.randoms(use_true_random=False),
)
def test_cell_table_pass_equals_unit_chain(case, method, S, units_per_sum, random):
    # every number of the empirical pass comes from its (cell, treatment)
    # table; the public chain on a fresh Dataset works unit by unit.  S may
    # exceed the units; a lowered _UNITS_PER_SUM sums larger targets per unit
    X, w, T, balancing_set, targets = case
    config = AlgorithmConfig(estimator="empirical", subclass_method=method, num_subclasses=S)
    order = list(range(len(w)))
    random.shuffle(order)
    limit = balancing._UNITS_PER_SUM if units_per_sum is None else units_per_sum
    with mock.patch.object(balancing, "_UNITS_PER_SUM", limit):
        report = run_algorithm(table_dataset(X, w, T), balancing_set, targets, config)
        moved_dataset = table_dataset(X[order], w[order], T)
        permuted = run_algorithm(moved_dataset, balancing_set, targets, config)
        for entry, moved in zip(report, permuted):
            assert moved.error == entry.error
            fresh = table_dataset(X, w, T)
            d = assignment_indicators(entry.contrast, w)
            if not ((d == 1).any() and (d == -1).any()):
                assert entry.error.startswith("OneClassOnly")
            elif any(d[empirical_csps(fresh, c).undefined_units].any() for c in balancing_set):
                assert entry.error.startswith("UndefinedScores")
            try:
                scores = chained_propensity(fresh, balancing_set, entry.contrast, "empirical")
                assignment = subclassify(scores, assignment_indicators(entry.contrast, w),
                                         method, S)
                alone = covariate_mean_difference(fresh, entry.contrast, assignment)
            except CspsError as exc:
                assert entry.error == f"{type(exc).__name__}: {exc}"
                event(type(exc).__name__)
                continue
            event("subclassified, summed per " + (
                "unit" if sum(alone._totals.counts) > limit else "(cell, treatment)"
            ))
            # the chained score per unit: exact cells of the balancing scores' ranks
            ranks = np.column_stack([
                empirical_csps(fresh, c).dense_ranks() for c in balancing_set
            ]).astype(float)
            by_unit = empirical_csps(table_dataset(ranks, w, T), entry.contrast)
            assert score_bytes(entry.scores) == score_bytes(scores) == score_bytes(by_unit)
            labels = entry.assignment.labels
            assert (labels.dtype, labels.tobytes()) == (
                assignment.labels.dtype, assignment.labels.tobytes()
            )
            assert pipeline_outcome(entry) == pipeline_outcome(alone)
            totals = entry._totals
            for got in (alone._totals, moved._totals):
                assert (got.counts, got.sums, got.before, got.after) == (
                    totals.counts, totals.sums, totals.before, totals.after
                )
            assert moved.assignment.labels.tobytes() == labels[order].tobytes()


def per_unit_outputs(assignment):
    """An assignment's labels and its score, unit by unit, as bytes and values."""
    labels, scores = assignment.labels, assignment.scores
    ranks = scores.dense_ranks()
    return (
        labels.dtype, labels.tobytes(), labels.flags.writeable,
        scores.as_floats().tobytes(), scores.undefined_units.tobytes(), scores.values,
        len(scores), ranks.dtype, ranks.tobytes(),
    )


@settings(max_examples=100, deadline=None)
@given(
    cell_table_cases(), st.sampled_from(("exact", "quantile")), st.integers(1, 12),
    st.booleans(),
)
def test_pass_per_unit_outputs_equal_the_unit_chain(case, method, S, padded):
    # a pass keeps its labels and its scores per chained cell; per unit they
    # equal the public chain's on a fresh Dataset, read once or twice, on a
    # first pass and on a second over the same Dataset.  Padded with
    # treatments no unit has, the (cell, treatment) pairs the units are
    # counted by outnumber the units, and the labels are still gathered on
    # their first read
    X, w, T, balancing_set, targets = case
    if padded:
        def widened(c):
            return Contrast(c.coefficients + (0,) * 2000, label=c.label)

        balancing_set, targets = list(map(widened, balancing_set)), list(map(widened, targets))
        T += 2000
    config = AlgorithmConfig(estimator="empirical", subclass_method=method, num_subclasses=S)
    dataset = table_dataset(X, w, T)
    reports = [run_algorithm(dataset, balancing_set, targets, config) for _ in range(2)]
    for entries in zip(*reports):
        fresh = table_dataset(X, w, T)
        contrast = entries[0].contrast
        try:
            scores = chained_propensity(fresh, balancing_set, contrast, "empirical")
            assignment = subclassify(scores, assignment_indicators(contrast, w), method, S)
        except CspsError as exc:
            assert [e.error for e in entries] == [f"{type(exc).__name__}: {exc}"] * 2
            event(type(exc).__name__)
            continue
        event("subclassified" + (", padded" if padded else ""))
        # the chained score per unit: exact cells of the balancing scores' ranks
        ranks = np.column_stack([
            empirical_csps(fresh, c).dense_ranks() for c in balancing_set
        ]).astype(float)
        by_unit = empirical_csps(table_dataset(ranks, w, T), contrast)
        assert scores.values == by_unit.values
        want = per_unit_outputs(assignment)
        assert want[2] is False
        for entry in entries:
            assert entry.error is None
            assert per_unit_outputs(entry.assignment) == want
            assert per_unit_outputs(entry.assignment) == want


def one_per_bifurcation(contrasts):
    """The first contrast of each sign pattern, up to a sign flip, in order."""
    kept = {}
    for c in contrasts:
        kept.setdefault(frozenset((c.sign(), tuple(-s for s in c.sign()))), c)
    return list(kept.values())


def labelled(contrasts, sign=1):
    """The contrasts, times ``sign``, labelled by place, so that an error
    naming one reads the same whatever its coefficients."""
    return [Contrast(tuple(sign * v for v in c.coefficients), label=f"b{j}")
            for j, c in enumerate(contrasts)]


@st.composite
def discrete_pass_cases(draw):
    """1-200 units over T = 3-4 treatments, 1-3 covariates of 2-3 values
    each; each cell draws its treatments from its own subset of 1..T, so
    balancing scores are often undefined on a cell.  1-2 balancing
    bifurcations, 1-4 targets, and a unit sample for ``dense_ranks(units)``."""
    T = draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 200))
    levels = [
        np.array(draw(st.lists(DISCRETE, min_size=2, max_size=3, unique_by=float.hex)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    X = np.column_stack([rng.choice(level, n) for level in levels])
    cells = table_dataset(X, np.ones(n, dtype=int), T).cell_index
    allowed = [
        draw(st.lists(st.integers(1, T), min_size=1, max_size=T, unique=True))
        for _ in range(cells.num_cells)
    ]
    w = np.array([rng.choice(allowed[c]) for c in cells.cell_of_unit.tolist()])
    balancing_set = draw(st.lists(contrasts_of_width(T), min_size=1, max_size=2))
    targets = draw(st.lists(contrasts_of_width(T), min_size=1, max_size=4))
    units = rng.integers(0, n, draw(st.integers(0, 2 * n)))
    return X, w, T, balancing_set, targets, units


def oracle_chained_scores(dataset, balancing_set, d) -> list:
    """Unit by unit: the share of positive units among the eligible units
    whose tuple of balancing scores is the unit's, None where there are none."""
    keys = list(zip(*(
        empirical_csps(dataset, c).values for c in one_per_bifurcation(balancing_set)
    )))
    positive, eligible = {}, {}
    for key, sign in zip(keys, d.tolist()):
        positive[key] = positive.get(key, 0) + (sign == 1)
        eligible[key] = eligible.get(key, 0) + (sign != 0)
    return [Fraction(positive[k], eligible[k]) if eligible[k] else None for k in keys]


def score_reads(scores, units):
    """Every per-unit read of a score, as values and bytes."""
    ranks, picked = scores.dense_ranks(), scores.dense_ranks(units)
    return (
        len(scores), scores.values, scores.as_floats().tobytes(),
        scores.undefined_units.dtype, scores.undefined_units.tobytes(),
        ranks.dtype, ranks.tobytes(), picked.dtype, picked.tobytes(),
    )


@settings(max_examples=150, deadline=None)
@given(
    discrete_pass_cases(), st.sampled_from(("exact", "quantile")), st.integers(1, 8),
)
@example(
    # cell 0.0 holds only treatment 3, where (1, -1, 0) is undefined: the
    # first target needs it and fails; the second, (1, 0, -1), does not
    case=(
        np.array([[0.0], [0.0], [1.0], [1.0], [1.0], [1.0]]), np.array([3, 3, 1, 2, 1, 3]), 3,
        [Contrast((1, -1, 0))], [Contrast((1, 0, -1)), Contrast((0, 1, -1))],
        np.array([5, 0, 2, 2]),
    ),
    method="exact", S=5,
)
def test_pass_per_unit_reads_equal_the_oracle(case, method, S):
    # each target's per-unit reads, from a pass's score and labels, against
    # scores built unit by unit from the tuples of balancing scores; and the
    # same reads after a pickle round trip
    X, w, T, balancing_set, targets, units = case
    config = AlgorithmConfig(estimator="empirical", subclass_method=method, num_subclasses=S)
    dataset = table_dataset(X, w, T)
    undefined = any(empirical_csps(dataset, c).undefined_units.size for c in balancing_set)
    for entry in run_algorithm(dataset, balancing_set, targets, config):
        if entry.error is not None:
            event(entry.error.split(":")[0])
            continue
        event("subclassified" + (", a balancing score undefined" if undefined else ""))
        d = assignment_indicators(entry.contrast, w)
        oracle = oracle_chained_scores(dataset, balancing_set, d)
        want = ScoreVector.from_ratios(
            [0 if v is None else v.numerator for v in oracle],
            [0 if v is None else v.denominator for v in oracle],
            np.arange(len(w)),
        )
        assert entry.scores.values == tuple(oracle)
        assert entry.scores.as_floats().tobytes() == want.as_floats().tobytes()
        ranks = entry.scores.dense_ranks()
        assert np.array_equal(np.unique(ranks, return_inverse=True)[1], want.dense_ranks())
        assert np.array_equal(entry.scores.dense_ranks(units), ranks[units])
        assert np.array_equal(entry.scores.undefined_units, want.undefined_units)
        assert len(entry.scores) == len(w)
        labels = subclassify(want, d, method, S).labels
        got = entry.assignment.labels
        assert (got.dtype, got.tobytes(), got.flags.writeable) == (
            labels.dtype, labels.tobytes(), False
        )
        reads = score_reads(entry.scores, units)
        assert score_reads(pickle.loads(pickle.dumps(entry.scores)), units) == reads
        copy = pickle.loads(pickle.dumps(entry.assignment))
        assert (copy.labels.dtype, copy.labels.tobytes(), copy.num_subclasses) == (
            got.dtype, got.tobytes(), entry.assignment.num_subclasses
        )
        assert score_reads(copy.scores, units) == reads


@settings(max_examples=40, deadline=None)
@given(
    cell_table_cases(), st.permutations(range(5)),
    st.sampled_from(("empirical", "logistic")), st.sampled_from(("exact", "quantile")),
    st.integers(1, 10),
)
def test_relabelled_treatments_leave_every_entry(case, order, estimator, method, S):
    # treatment t renamed perm[t] + 1, with every coefficient moved along:
    # each unit keeps its indicators, so every entry is the same, bit for bit
    X, w, T, balancing_set, targets = case
    perm = np.array([t for t in order if t < T])

    def moved(contrast):
        coefficients = [0] * T
        for t, v in enumerate(contrast.coefficients):
            coefficients[perm[t]] = v
        return Contrast(tuple(coefficients), label=contrast.label)

    balancing_set = labelled(balancing_set)
    config = AlgorithmConfig(estimator=estimator, subclass_method=method, num_subclasses=S)
    report = run_algorithm(table_dataset(X, w, T), balancing_set, targets, config)
    relabelled = run_algorithm(
        table_dataset(X, perm[w - 1] + 1, T),
        [moved(c) for c in balancing_set], [moved(c) for c in targets], config,
    )
    assert list(map(pipeline_outcome, relabelled)) == list(map(pipeline_outcome, report))
    event("relabelled" if (perm != np.arange(T)).any() else "identity")


@settings(max_examples=40, deadline=None)
@given(cell_table_cases(), st.sampled_from(("exact", "quantile")), st.integers(1, 10))
def test_negated_balancing_contrasts_leave_every_entry(case, method, S):
    # each empirical balancing score of -c is the exact complement of c's, so
    # the chained cells, matched by reduced ratio, and every entry are the same
    X, w, T, balancing_set, targets = case
    config = AlgorithmConfig(estimator="empirical", subclass_method=method, num_subclasses=S)
    dataset = table_dataset(X, w, T)
    report = run_algorithm(dataset, labelled(balancing_set), targets, config)
    negated = run_algorithm(dataset, labelled(balancing_set, -1), targets, config)
    assert list(map(pipeline_outcome, negated)) == list(map(pipeline_outcome, report))
    event("an entry subclassified" if any(e.error is None for e in report) else "all failed")


@st.composite
def unit_table_cases(draw):
    """2-60 units of 1-3 covariates over T = 2-4 treatments, some never
    drawn; the first column tie-free, rounded (ties in it), holding 0.0 and
    -0.0 in one run, or with repeated rows (ties in every score), or every
    column binary; 1-2 balancing contrasts and 1-3 targets over T."""
    T = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 60))
    X = rng.standard_normal((n, draw(st.integers(1, 3))))
    layout = draw(st.sampled_from((
        "tie-free", "rounded first column", "signed zeros", "repeated rows",
        "binary covariates",
    )))
    if layout == "rounded first column":
        X[:, 0] = np.round(X[:, 0], 1)
    elif layout == "signed zeros":
        X[:, 0] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        X[rng.random(n) < 0.3, 0] = 1.0
    elif layout == "repeated rows":
        X = X[rng.integers(0, max(n // 3, 1), n)]
    elif layout == "binary covariates":
        X = (rng.random(X.shape) < (0.3, 0.5, 0.7)[:X.shape[1]]).astype(float)
    w = rng.integers(1, T + 1, n)
    balancing_set = draw(st.lists(contrasts_of_width(T), min_size=1, max_size=2))
    targets = draw(st.lists(contrasts_of_width(T), min_size=1, max_size=3))
    event(layout)
    return X, w, T, balancing_set, targets


@pytest.mark.parametrize("estimator", ["empirical", "logistic"])
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(cell_table_cases(), unit_table_cases()), st.sampled_from(("exact", "quantile")),
    st.integers(1, 8),
)
def test_pass_labels_count_the_reported_subclasses(estimator, case, method, S):
    # on either estimator, a pass's per-unit labels are 0 exactly on the
    # units outside the target's groups, and subclass s holds as many units
    # of either sign as its row reports; a second read returns the same
    # array, and the labels and the score's floats keep their bytes through
    # a pickle round trip
    X, w, T, balancing_set, targets = case
    config = AlgorithmConfig(estimator=estimator, subclass_method=method, num_subclasses=S)
    for entry in run_algorithm(table_dataset(X, w, T), balancing_set, targets, config):
        if entry.error is not None:
            event(entry.error.split(":")[0])
            continue
        event("subclassified")
        d = assignment_indicators(entry.contrast, w)
        labels = entry.assignment.labels
        assert np.array_equal(labels == 0, d == 0)
        assert len(entry.subclass_rows) == entry.assignment.num_subclasses
        for s, row in enumerate(entry.subclass_rows, start=1):
            assert row.subclass_id == s
            assert np.count_nonzero(labels[d == 1] == s) == row.n_positive
            assert np.count_nonzero(labels[d == -1] == s) == row.n_negative
        assert entry.assignment.labels is labels
        copy = pickle.loads(pickle.dumps(entry.assignment))
        assert (copy.labels.dtype, copy.labels.tobytes()) == (labels.dtype, labels.tobytes())
        floats = pickle.loads(pickle.dumps(entry.scores)).as_floats()
        assert floats.tobytes() == entry.scores.as_floats().tobytes()


@pytest.mark.parametrize("estimator", ["empirical", "logistic"])
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(cell_table_cases(), unit_table_cases()), st.sampled_from(("exact", "quantile")),
    st.integers(1, 10), st.sampled_from((0.0, 0.5)),
    st.sampled_from((1, 2, Fraction(1, 3), -1, -2)), st.data(),
)
def test_repeated_balancing_bifurcations_leave_every_entry(
    estimator, case, method, S, ridge, factor, data
):
    # a balancing contrast repeated, rescaled or negated has the score s or
    # 1 - s of the one it copies, so one score is fitted per bifurcation:
    # appending the copy changes no entry, error texts and score bytes included
    X, w, T, balancing_set, targets = case
    balancing_set = labelled(balancing_set)
    copied = data.draw(st.sampled_from(balancing_set))
    copy = Contrast(tuple(factor * v for v in copied.coefficients), label="copy")
    config = AlgorithmConfig(
        estimator=estimator, subclass_method=method, num_subclasses=S, ridge=ridge
    )
    dataset = table_dataset(X, w, T)

    def outcomes(balancing_set):
        report = run_algorithm(dataset, balancing_set, targets, config)
        return [(pipeline_outcome(e), e.error or score_bytes(e.scores)) for e in report]

    want = outcomes(balancing_set)
    assert outcomes(balancing_set + [copy]) == want
    fitted = any(not isinstance(scores, str) for _, scores in want)
    event("an entry subclassified" if fitted else "all failed")


@pytest.mark.parametrize("estimator", ["empirical", "logistic"])
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(cell_table_cases(), unit_table_cases()), st.sampled_from(("exact", "quantile")),
    st.integers(1, 10), st.sampled_from((0.0, 0.5)),
    st.sampled_from((2, 3, Fraction(1, 3), Fraction(7, 2), 0.5)),
)
def test_rescaled_target_leaves_its_entry(estimator, case, method, S, ridge, factor):
    # a target and a positive multiple of it, such as (0, 1, -1) and
    # (0, 2, -2), name the same two groups, so the pass treats them as one
    # target: their entries agree apart from the contrast itself, error
    # texts, labels, score bytes and exact differences included
    X, w, T, balancing_set, targets = case
    balancing_set = labelled(balancing_set)
    rescaled = [Contrast(tuple(factor * v for v in t.coefficients)) for t in targets]
    config = AlgorithmConfig(
        estimator=estimator, subclass_method=method, num_subclasses=S, ridge=ridge
    )
    dataset = table_dataset(X, w, T)

    def outcomes(targets):
        report = run_algorithm(dataset, balancing_set, targets, config)
        return [(pipeline_outcome(e), e.error or score_bytes(e.scores)) for e in report]

    want = outcomes(targets)
    assert outcomes(rescaled) == want
    fitted = any(not isinstance(scores, str) for _, scores in want)
    event("an entry subclassified" if fitted else "all failed")


@settings(max_examples=80, deadline=None)
@given(
    unit_table_cases(), st.sampled_from(("exact", "quantile")), st.integers(1, 70),
    st.sampled_from((0.0, 0.5)), st.randoms(use_true_random=False),
)
def test_unit_table_pass_equals_unit_chain(case, method, S, ridge, random):
    # the logistic pass works on the table whose rows are the units; the
    # public chain on a fresh Dataset gives every number, and so does the
    # pass on the units permuted.  S may exceed the units
    X, w, T, balancing_set, targets = case
    config = AlgorithmConfig(subclass_method=method, num_subclasses=S, ridge=ridge)
    order = list(range(len(w)))
    random.shuffle(order)
    report = run_algorithm(table_dataset(X, w, T), balancing_set, targets, config)
    permuted = run_algorithm(table_dataset(X[order], w[order], T), balancing_set, targets, config)
    for entry, moved in zip(report, permuted):
        assert moved.error == entry.error
        fresh = table_dataset(X, w, T)
        try:
            scores = chained_propensity(fresh, balancing_set, entry.contrast, "logistic", ridge)
            assignment = subclassify(scores, assignment_indicators(entry.contrast, w), method, S)
            alone = covariate_mean_difference(fresh, entry.contrast, assignment)
        except CspsError as exc:
            assert entry.error == f"{type(exc).__name__}: {exc}"
            event(type(exc).__name__)
            continue
        event("subclassified")
        # the chained score per unit: a logistic fit on the balancing scores,
        # one per bifurcation
        features = np.column_stack([
            model_csps(fresh, c, ridge).as_floats() for c in one_per_bifurcation(balancing_set)
        ])
        by_unit = model_csps(table_dataset(features, w, T), entry.contrast, ridge)
        floats = entry.scores.as_floats()
        assert floats.tobytes() == scores.as_floats().tobytes() == by_unit.as_floats().tobytes()
        assert moved.scores.as_floats().tobytes() == floats[order].tobytes()
        labels = entry.assignment.labels
        assert (labels.dtype, labels.tobytes()) == (
            assignment.labels.dtype, assignment.labels.tobytes()
        )
        assert moved.assignment.labels.tobytes() == labels[order].tobytes()
        assert pipeline_outcome(entry) == pipeline_outcome(alone)
        totals = entry._totals
        for got in (alone._totals, moved._totals):
            assert (got.counts, got.sums, got.before, got.after) == (
                totals.counts, totals.sums, totals.before, totals.after
            )


@contextlib.contextmanager
def recorded_comparisons():
    """Record what each ``_target_comparison`` call of the pass returns."""
    comparisons = []
    real = balancing._target_comparison

    def watched(*args):
        comparisons.append(real(*args))
        return comparisons[-1]

    with mock.patch.object(balancing, "_target_comparison", watched):
        yield comparisons


@pytest.mark.parametrize("method", ["exact", "quantile"])
def test_unit_table_sums_every_target_per_row(method):
    # the unit table's sums are unweighted, so a target of more than
    # _UNITS_PER_SUM units stays on the table rows: the same entries, each
    # summing its own rows once, and no call of the per-unit reference
    dataset = sample_dataset(mechanism_ii(num_units=300, seed=4), 0)
    targets = simulation_contrasts()
    config = AlgorithmConfig(subclass_method=method)
    report = run_algorithm(dataset, targets[:2], targets, config)
    with (
        mock.patch.object(balancing, "_UNITS_PER_SUM", 4),
        recorded_comparisons() as comparisons,
        mock.patch.object(balancing, "covariate_mean_difference") as reference,
    ):
        lowered = run_algorithm(dataset, targets[:2], targets, config)
    assert reference.call_count == 0
    for c, target in zip(comparisons, targets):
        d = assignment_indicators(target, dataset.treatments)
        assert c.multiplicity is None
        assert c.units.tolist() == np.flatnonzero(d).tolist()
    assert [e.error for e in report] == [None] * len(targets)
    assert list(map(pipeline_outcome, lowered)) == list(map(pipeline_outcome, report))


class WatchedLabels:
    """Labels that record each time numpy reads them as an array."""

    def __init__(self, labels: np.ndarray):
        self.labels, self.reads = labels, 0

    def __array__(self, dtype=None, copy=None):
        self.reads += 1
        return self.labels if dtype is None else self.labels.astype(dtype)


@pytest.mark.parametrize("method", ["exact", "quantile"])
def test_cell_table_repeats_its_rows_past_the_sum_limit(method):
    # a cell-table target of more than _UNITS_PER_SUM units is summed from its
    # own rows, each repeated once per unit: the same entries as the weighted
    # sums, and the treatments are never read again to rebuild its groups
    rng = np.random.default_rng(5)
    X = (rng.random((300, 3)) < 0.5).astype(float)
    w = rng.integers(1, 4, len(X))
    dataset = make_dataset(X, w)
    targets = simulation_contrasts()
    config = AlgorithmConfig(estimator="empirical", subclass_method=method)
    report = run_algorithm(dataset, targets[:2], targets, config)
    watched = WatchedLabels(dataset.treatments)
    with (
        mock.patch.object(balancing, "_UNITS_PER_SUM", 3),
        recorded_comparisons() as comparisons,
        mock.patch.object(dataset, "treatments", watched),
    ):
        lowered = run_algorithm(dataset, targets[:2], targets, config)
    assert watched.reads == 0
    assert [c.multiplicity for c in comparisons] == [None] * len(targets)
    assert [len(c.groups) for c in comparisons] == [sum(c.counts) for c in comparisons]
    assert [e.error for e in report] == [None] * len(targets)
    assert list(map(pipeline_outcome, lowered)) == list(map(pipeline_outcome, report))
    # the per-unit labels, read on demand, are what reads the treatments
    assert watched.reads > 0


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.fractions(0, 1, max_denominator=40), st.integers(1, 30)),
             min_size=1, max_size=30),
    st.one_of(st.integers(1, 64), st.integers(2, 10 ** 5)),
)
def test_counted_quantile_cuts_equal_np_quantile_of_the_units(rows, S):
    # the cuts of values counted by rows are np.quantile's of the values repeated
    values = np.array([float(v) for v, _ in rows])
    counts = np.array([c for _, c in rows])
    units = np.repeat(values, counts)
    steps = balancing._cut_steps(len(units), S)
    assert balancing._quantile_cuts(values, S, counts).tobytes() == (
        np.quantile(units, steps / S).tobytes()
    )


@given(
    st.lists(
        st.one_of(
            st.none(),
            st.fractions(min_value=0, max_value=1, max_denominator=12),
            st.sampled_from((0, 1)),
        ),
        min_size=1,
        max_size=40,
    ),
    st.data(),
)
def test_exact_subclasses_equal_fraction_reference(values, data):
    d = np.array(data.draw(indicators(len(values))))
    scores = exact_scores(values)
    if not can_subclass(values, d):
        with pytest.raises(CspsError):
            subclassify(scores, d, method="exact")
        return
    assignment = subclassify(scores, d, method="exact")
    want = reference_exact_labels(values, d)
    assert assignment.labels.tolist() == want
    assert assignment.num_subclasses == max(want)


@given(
    st.lists(st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, 1e-300)), min_size=2, max_size=40),
    st.data(),
)
def test_exact_subclasses_of_float_scores_equal_reference(values, data):
    d = np.array(data.draw(indicators(len(values))))
    if not can_subclass(values, d):
        return
    assignment = subclassify(ScoreVector.from_floats(values), d, method="exact")
    assert assignment.labels.tolist() == reference_exact_labels(values, d)


@st.composite
def ratio_scores(draw, min_units=0):
    """Exact scores over 1-6 entries, some with a zero denominator, and a drawn index."""
    m = draw(st.integers(1, 6))
    dens = draw(st.lists(st.one_of(st.just(0), st.integers(1, 5)), min_size=m, max_size=m))
    nums = [draw(st.integers(0, den if den else 3)) for den in dens]
    index = draw(st.lists(st.integers(0, m - 1), min_size=min_units, max_size=40))
    return ScoreVector.from_ratios(nums, dens, index=np.array(index, dtype=np.intp))


FLOAT_SCORES = st.lists(st.floats(0, 1), max_size=40).map(ScoreVector.from_floats)


@given(st.one_of(ratio_scores(), FLOAT_SCORES))
def test_undefined_units_are_the_none_scores(scores):
    units = scores.undefined_units
    assert units.dtype == np.intp
    assert units.tolist() == [i for i, v in enumerate(scores.values) if v is None]
    assert (np.diff(units) > 0).all()
    assert units.tolist() == np.flatnonzero(np.isnan(scores.as_floats())).tolist()


@given(ratio_scores(min_units=2), st.sampled_from(("exact", "quantile")), st.data())
def test_subclassify_refuses_exactly_the_undefined_eligible_units(scores, method, data):
    d = np.array(data.draw(indicators(len(scores))), dtype=np.int64)
    undefined = [i for i, v in enumerate(scores.values) if v is None]
    # the same groups with every undefined unit moved outside them
    outside = d.copy()
    outside[undefined] = 0
    for target in (d, outside):
        k = int(np.count_nonzero(target[undefined]))
        if not ((target == 1).any() and (target == -1).any()):
            with pytest.raises(TooFewUnits):
                subclassify(scores, target, method, 3)
        elif k:
            event("undefined units in the groups")
            with pytest.raises(UndefinedScores) as raised:
                subclassify(scores, target, method, 3)
            assert str(raised.value) == f"{k} eligible units have undefined scores"
        else:
            event("undefined units outside the groups" if undefined else "no undefined units")
            assignment = subclassify(scores, target, method, 3)
            assert np.array_equal(assignment.labels != 0, target != 0)


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from((-1, 1))), min_size=1, max_size=60
    )
)
def test_merging_equals_rescanning_reference(units):
    group = np.array([g for g, _ in units])
    sign = np.array([s for _, s in units])
    num_groups = int(group.max()) + 1
    positive = np.bincount(group[sign == 1], minlength=num_groups).tolist()
    negative = np.bincount(group[sign == -1], minlength=num_groups).tolist()
    try:
        want = reference_merge([np.flatnonzero(group == g) for g in range(num_groups)], sign)
    except TooFewUnits:
        with pytest.raises(TooFewUnits):
            _merge_one_class_groups(positive, negative)
        return
    subclass, num_subclasses = _merge_one_class_groups(positive, negative)
    assert num_subclasses == len(want)
    want_labels = np.empty(len(units), dtype=np.intp)
    for sid, members in enumerate(want):
        want_labels[members] = sid
    assert subclass[group].tolist() == want_labels.tolist()


@st.composite
def bifurcations(draw, num_treatments):
    """A bifurcation of ``num_treatments``: each treatment +, - or left out."""
    signs = draw(
        st.lists(st.sampled_from((1, -1, 0)), min_size=num_treatments, max_size=num_treatments)
        .filter(lambda s: 1 in s and -1 in s)
    )
    return Bifurcation([int(v == 1) for v in signs], [-int(v == -1) for v in signs])


@given(st.integers(2, 6).flatmap(
    lambda T: st.tuples(st.lists(bifurcations(T), min_size=1, max_size=4), bifurcations(T))
))
def test_span_membership_equals_rank_oracle(case):
    basis, target = case
    rows = [part for b in basis for part in (b.positive_part, b.negative_part)]
    extended = rows + [target.positive_part, target.negative_part]
    # small 0/±1 matrices: the SVD rank is exact
    rank = [np.linalg.matrix_rank(np.array(m, dtype=float)) for m in (rows, extended)]
    assert bifurcation_span_contains(basis, target) == (rank[0] == rank[1])


# ---------------------------------------------------------------------------
# unit order


@given(
    datasets(values=DISCRETE, min_units=2),
    st.sampled_from(["empirical", "logistic"]),
    st.randoms(use_true_random=False),
)
def test_reports_do_not_depend_on_unit_order(data_case, estimator, random):
    X, w = data_case
    order = list(range(len(w)))
    random.shuffle(order)
    config = AlgorithmConfig(
        estimator=estimator,
        subclass_method="exact" if estimator == "empirical" else "quantile",
        num_subclasses=3,
    )
    balancing_set = CONTRASTS[:2]
    base = run_algorithm(make_dataset(X, w), balancing_set, CONTRASTS, config)
    other = run_algorithm(make_dataset(X[order], w[order]), balancing_set, CONTRASTS, config)
    assert report_numbers(other) == report_numbers(base)
    for a, b in zip(base.entries, other.entries):
        if a.error is None:
            assert np.array_equal(
                b.scores.as_floats(), a.scores.as_floats()[order], equal_nan=True
            )
            assert np.array_equal(b.assignment.labels, a.assignment.labels[order])


# ---------------------------------------------------------------------------
# building blocks


@given(
    st.lists(
        st.tuples(st.sampled_from((0, 7, 2 ** 40, 2 ** 62)), st.integers(0, 3)),
        min_size=1,
        max_size=30,
    )
)
def test_dense_ids_group_equal_rows(rows):
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    ids, n = _dense_ids([a, b])
    assert n == len(set(rows))
    assert sorted(set(ids.tolist())) == list(range(n))
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (ids[i] == ids[j]) == (rows[i] == rows[j])
            assert (ids[i] < ids[j]) == (rows[i] < rows[j])


def byte_view_cell_index(X):
    """The cell index as a byte-level builder makes it: ``np.unique`` over
    the rows' bytes, then a stable ``np.lexsort`` of the distinct rows by
    value, which keeps their byte order among rows of equal value."""
    X = np.ascontiguousarray(X)
    as_bytes = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(as_bytes, return_index=True, return_inverse=True)
    rows = X[first]
    order = np.lexsort(rows.T[::-1])
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rows[order], rank[inverse]


MAX_FLOAT = np.finfo(float).max
CELL_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, MAX_FLOAT, -MAX_FLOAT,
    1.0, -1.0, 0.5,
)


@st.composite
def cell_matrices(draw):
    """Up to 60 rows of 1-6 columns.  A column draws from a small pool of
    CELL_VALUES (ties, both zeros, subnormals, +-1e308, +-max float), or
    from the two zeros and 1.0, or is normal, or normal rounded to one digit
    (ties, and -0.0 from rounding)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 60))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        form = draw(st.sampled_from(("pool", "pool", "zeros", "normal", "rounded")))
        if form == "pool":
            pool = draw(st.lists(st.sampled_from(CELL_VALUES), min_size=1, max_size=4))
            columns.append(rng.choice(np.array(pool), n))
        elif form == "zeros":
            columns.append(rng.choice(np.array([0.0, -0.0, 1.0]), n))
        else:
            column = rng.normal(size=n)
            columns.append(column if form == "normal" else np.round(column, 1))
    return np.column_stack(columns)


# 6 columns of 2,000 distinct codes each pack past 2**62, so the key is re-ranked mid-pack
WIDE_CELLS = np.column_stack(
    [np.random.default_rng(k).permutation(2000) - 1000.0 for k in range(6)]
)


@settings(max_examples=300)
@given(cell_matrices())
@example(np.empty((0, 2)))
@example(np.array([[2.5, -0.0, 1e308]] * 7))
@example(WIDE_CELLS)
@example(np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]))
def test_cell_index_equals_byte_view_builder(X):
    cells = build_cell_index(make_dataset(X, np.ones(len(X), dtype=int)))
    rows, cell_of_unit = byte_view_cell_index(X)
    assert np.array_equal(cells.cell_of_unit, cell_of_unit)
    assert cells.cell_of_unit.dtype == np.intp
    assert not cells.cell_of_unit.flags.writeable
    assert cells.rows.shape == rows.shape and cells.rows.tobytes() == rows.tobytes()


@given(
    st.lists(
        st.one_of(st.none(), st.fractions(min_value=0, max_value=1, max_denominator=2 ** 62)),
        min_size=1,
        max_size=20,
    )
)
def test_exact_scores_round_like_fractions(values):
    scores = exact_scores(values)
    want = [float(v) if v is not None else None for v in values]
    got = scores.as_floats().tolist()
    assert [None if v is None else g for v, g in zip(values, got)] == want
    assert scores.values == tuple(values)


def test_exact_scores_must_fit_int64():
    with pytest.raises(ValueError, match="int64"):
        ScoreVector.from_ratios([1], [2 ** 63], index=[0])


# first-feature values that tie (0.0 == -0.0) or compare with nothing (NaN)
TIED_FIRST = (0.0, -0.0, float("nan"), 1.0, -2.5)


@st.composite
def fit_rows(draw):
    """Features (M x P, P = 1..4) and 0/1 labels: tie-free, tied or repeated rows."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(("distinct", "levels", "tied", "repeated")))
    if shape == "distinct":
        finite = st.floats(allow_nan=False, allow_infinity=False)
        first = draw(st.lists(finite, min_size=n, max_size=n, unique=True))
    elif shape == "levels":
        levels = draw(st.lists(FLOATS, min_size=1, max_size=3))
        first = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    else:
        first = draw(st.lists(st.sampled_from(TIED_FIRST), min_size=n, max_size=n))
    rest = draw(st.lists(
        st.lists(st.one_of(DISCRETE, FLOATS), min_size=k - 1, max_size=k - 1),
        min_size=n, max_size=n,
    ))
    X = np.column_stack([np.array(first, dtype=float),
                         np.array(rest, dtype=float).reshape(n, k - 1)])
    if shape == "repeated":
        X[:] = X[0]
    y = np.array(draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n)))
    return X, y


def long_rows(n: int, tied: bool):
    """``n`` shuffled rows and 0/1 labels: a distinct first column, or one of
    three levels.  numpy picks its sort by size, and these are long enough
    for the sorts short draws never reach."""
    rng = np.random.default_rng(n)
    first = rng.integers(0, 3, n) if tied else rng.permutation(n)
    X = np.column_stack([first.astype(float), rng.normal(size=n)])
    return X, rng.integers(0, 2, n).astype(float)


@given(fit_rows(), st.booleans())
@example((np.array([[0.5, -1.0]]), np.array([1.0])), False)
@example(long_rows(2500, tied=False), False)
@example(long_rows(2500, tied=True), False)
@example(long_rows(2048, tied=True), True)
@example((np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
          np.array([1.0, 0.0, 1.0, 0.0])), False)
def test_canonical_order_equals_lexsort(case, in_feature_order):
    # the one order of designs and fits is np.lexsort's, whichever step
    # settles it; rows put in feature order first keep their labels out of
    # order inside runs of equal rows, which only the labels step orders
    X, y = case
    if in_feature_order:
        rows = np.lexsort(X.T[::-1])
        X, y = X[rows], y[rows]
    keys = [X[:, k] for k in reversed(range(X.shape[1]))]
    for labels in (y, y == 1, None):
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as full_sort:
            order = _canonical_order(X, labels)
        event("full sort" if full_sort.call_count else "no full sort")
        expected = np.lexsort(keys if labels is None else [labels, *keys])
        assert order.tolist() == expected.tolist()
        assert order.dtype == np.intp and not order.flags.writeable
        # the fit keeps its rows as they stand exactly when they are in order
        # (rows with NaN, which no fit reaches, may be sorted into place)
        in_order = order.tolist() == list(range(len(order)))
        if data._reordering(X, labels) is None:
            assert in_order
        elif not np.isnan(X).any():
            assert not in_order
        if in_feature_order and not np.isnan(X).any():
            assert full_sort.call_count == 0
            event("labels step" if (order != np.arange(len(y))).any() else "in order")


@pytest.mark.parametrize("layout", ["shuffled", "ascending in column 0"])
@pytest.mark.parametrize("with_labels", [False, True])
def test_tied_first_column_goes_straight_to_lexsort(layout, with_labels):
    # binary rows tie in column 0: adjacent rows agree there, and rows that
    # ascend in it descend past it only where they tie in it; so no argsort
    # of column 0 is made only to be thrown away
    rng = np.random.default_rng(5)
    X = (rng.random((3000, 3)) < (0.3, 0.5, 0.7)).astype(float)
    if layout == "ascending in column 0":
        X = X[np.argsort(X[:, 0], kind="stable")]
    labels = (rng.random(len(X)) < 0.5).astype(float) if with_labels else None
    keys = list(X.T[::-1])
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        order = _canonical_order(X, labels)
    assert argsort.call_count == 0
    assert order.tolist() == np.lexsort(keys if labels is None else [labels, *keys]).tolist()


# z = X @ w of the log-likelihood kernel: signed zeros, subnormals, the ends
# of exp's range and of float64, mixed signs
SOFTPLUS_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 36.7, -36.7, 700.0, -700.0, 745.2, -745.2,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
)
Z_VALUES = st.one_of(
    st.sampled_from(SOFTPLUS_EDGES), st.floats(-800, 800),
    st.floats(allow_nan=False, allow_infinity=False),
)
EPS = float(np.finfo(float).eps)


def kernel_ll(z, y):
    """``estimation._penalised_ll`` on the one-column design z with w = 1: its
    log-likelihood is ``y @ z - sum(log(1 + e**z))`` exactly as the fit sums it."""
    z = np.asarray(z, dtype=float)
    ll, product = estimation._penalised_ll(z[:, None], np.asarray(y, dtype=float),
                                           np.ones(1), np.zeros(1))
    assert (product == z).all()
    return ll


@given(st.lists(Z_VALUES, min_size=1, max_size=20))
def test_log_partition_is_within_4_ulp_of_logaddexp(zs):
    # per element, max(z, 0) + log1p(exp(-|z|)) is within 4 ulps of numpy's
    # scalar np.logaddexp(0, z) (3 is the largest seen in 2.6M draws); with
    # label 0 the kernel's log-likelihood is minus that one term
    for z in zs:
        reference = float(np.logaddexp(0.0, z))
        assert abs(-kernel_ll([z], [0.0]) - reference) <= 4 * math.ulp(reference)


@given(st.lists(st.tuples(Z_VALUES, st.sampled_from((0.0, 1.0))), min_size=1, max_size=40))
@example([(1e308, 1.0), (1e308, 0.0)])
@example([(-700.0, 1.0), (700.0, 0.0), (-0.0, 1.0), (5e-324, 0.0)])
def test_log_likelihood_is_within_summation_error_of_logaddexp(pairs):
    # summed over n units, the kernel and the np.logaddexp reference differ
    # by the elements' ulps and the two sums' rounding, at most
    # (n + 8) eps sum(log(1 + e**z)) + 2 eps |ll|; under the fit's errstate a
    # sum beyond float64 fails both
    z, y = (np.array(column) for column in zip(*pairs))
    with np.errstate(over="raise", invalid="raise"):
        try:
            partition = np.logaddexp(0.0, z).sum()
            reference = float(y @ z - partition)
        except FloatingPointError:
            event("beyond float64")
            with pytest.raises(FloatingPointError):
                kernel_ll(z, y)
            return
        ll = kernel_ll(z, y)
    bound = (len(z) + 8) * EPS * float(partition) + 2 * EPS * abs(reference)
    assert abs(ll - reference) <= bound


@st.composite
def shared_order_cases(draw):
    """Units whose first covariate has no tie, a tie, or both signed zeros.

    Also treatments, a contrast and a permutation of the units.
    """
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 3))
    values = st.floats(-8, 8)
    shape = draw(st.sampled_from(("distinct", "distinct", "tied", "signed zeros")))
    if shape == "tied":
        levels = draw(st.lists(values, min_size=1, max_size=4))
        first = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    else:
        sixteenths = draw(st.lists(st.integers(-128, 128), min_size=n, max_size=n, unique=True))
        first = [v / 16 for v in sixteenths]
        if shape == "signed zeros":
            first[:2] = [0.0, -0.0]
    rest = draw(st.lists(st.lists(values, min_size=k - 1, max_size=k - 1),
                         min_size=n, max_size=n))
    X = np.column_stack([np.array(first), np.array(rest).reshape(n, k - 1)])
    w = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    contrast = draw(st.sampled_from(CONTRASTS))
    return X, w, contrast, np.array(draw(st.permutations(range(n))))


def fit_outcome(fit):
    """The fit's coefficient bits and iterations, or its error type."""
    try:
        model = fit()
    except (CspsError, ValueError) as exc:
        return type(exc)
    return model.coefficients.tobytes(), model.iterations


@settings(max_examples=200)
@given(shared_order_cases())
@example((np.array([[0.0], [-0.0], [1.0], [2.0], [3.0]]), np.array([1, 2, 2, 1, 2]),
          CONTRASTS[1], np.array([3, 1, 4, 0, 2])))
@example((np.array([[0.0], [0.0625]]), np.array([1, 1]), Contrast((0, 1, -1)),
          np.array([0, 1])))
def test_fits_through_a_shared_order_equal_unit_order_fits(case):
    # model_csps fits the units of d != 0 in the order the dataset keeps;
    # bit for bit that is the fit of those units in unit order, which sorts
    # them itself, and on every shape, ties included, the fit through the
    # dataset's order runs no full sort; with no such unit it fails typed
    # and fits nothing
    X, w, contrast, perm = case
    dataset = make_dataset(X[perm], w[perm])
    dataset.row_order  # the design's one sort, made before the count below
    outcomes = []

    def recorded(features, labels, ridge=0.0):
        outcomes.append(fit_outcome(lambda: fit_binary_logistic(features, labels, ridge)))
        return fit_binary_logistic(features, labels, ridge)

    with mock.patch.object(estimation, "fit_binary_logistic", recorded), \
            mock.patch.object(np, "lexsort", wraps=np.lexsort) as full_sort, \
            contextlib.suppress(CspsError, ValueError):
        model_csps(dataset, contrast)
    assert full_sort.call_count == 0
    d = assignment_indicators(contrast, w)
    eligible = d != 0
    if not eligible.any():
        assert outcomes == []
        with pytest.raises(OneClassOnly, match="^the bifurcation has no units$"):
            model_csps(dataset, contrast)
        event("no units")
        return
    unit_order = fit_outcome(
        lambda: fit_binary_logistic(X[eligible], (d[eligible] == 1).astype(float))
    )
    event("fitted" if isinstance(unit_order, tuple) else unit_order.__name__)
    assert outcomes == [unit_order]


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from(CONTRASTS), min_size=1, max_size=8),
       st.sampled_from(("continuous", "binary")))
def test_one_order_per_score_design(targets, covariates):
    # one order for the covariates and one for the J balancing scores, each
    # the only full sort of its design: every balancing and chained fit
    # takes its units from one of the two and sorts none of its rows
    dataset = sample_dataset(mechanism_ii(num_units=300, seed=5), 0)
    if covariates == "binary":
        # balance_exact_80k's shape: every score design is tied
        rng = np.random.default_rng(5)
        X = (rng.random((300, 3)) < (0.3, 0.5, 0.7)).astype(float)
        dataset = make_dataset(X, dataset.treatments)
    calls = []
    with contextlib.ExitStack() as stack:
        full_sort = stack.enter_context(mock.patch.object(np, "lexsort", wraps=np.lexsort))

        def recorder(order_of):
            def recorded(features, labels=None):
                sorts = full_sort.call_count
                order = order_of(features, labels)
                calls.append((labels is None, full_sort.call_count - sorts))
                return order

            return recorded

        # the designs' orders, and each fit's, which is None where the rows
        # are already in order
        for module, real in ((data, data._canonical_order), (balancing, data._canonical_order),
                             (estimation, data._reordering)):
            stack.enter_context(mock.patch.object(module, real.__name__, recorder(real)))
        fits = stack.enter_context(mock.patch.object(
            estimation, "fit_binary_logistic", wraps=fit_binary_logistic
        ))
        report = run_algorithm(dataset, simulation_contrasts()[:2], targets)
    assert all(e.error is None for e in report.entries)
    designs = [sorts for is_design, sorts in calls if is_design]
    fit_sorts = [sorts for is_design, sorts in calls if not is_design]
    assert len(designs) == 2
    assert fits.call_count == len(fit_sorts) == 2 + len(targets)
    assert fit_sorts == [0] * len(fit_sorts)
    assert designs == ([0, 0] if covariates == "continuous" else [1, 1])


# scores within 1e-12 of 0 and of 1
NEAR_EDGES = (0.0, 5e-324, 1e-300, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 2 ** -53, 1.0)


@st.composite
def quantile_cases(draw):
    """Scores in [0, 1] (n = 1..1200), S = 1..64 or up to 10**5 subclasses, indicators."""
    n = draw(st.integers(1, 1200))
    S = draw(st.one_of(st.integers(1, 64), st.integers(2, 10 ** 5)))
    pool = np.array(draw(st.lists(
        st.one_of(st.sampled_from(NEAR_EDGES), st.floats(0.0, 1.0)), min_size=1, max_size=12
    )))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(("ties", "uniform", "skewed-low", "skewed-high", "mixed")))
    if shape == "ties":
        values = rng.choice(pool, n)
    elif shape == "uniform":
        values = rng.random(n)
    elif shape == "skewed-low":
        values = rng.random(n) ** rng.uniform(2.0, 60.0)
    elif shape == "skewed-high":
        values = 1.0 - rng.random(n) ** rng.uniform(2.0, 60.0)
    else:
        values = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.random(n))
    d = rng.choice(np.array([-1, 0, 1]), n)
    return values, S, d


def numpy_quantile_cuts(values, S):
    return np.quantile(values, np.arange(1, S) / S)


@settings(max_examples=300)
@given(quantile_cases())
# n - 1 = 49: (49 * (s / S)) falls below the whole number 49 * s / S, so the
# floor's runs differ from exact arithmetic's
@example((np.linspace(0.0, 1.0, 50) ** 3, 49 * 1021, np.tile([1, -1], 25)))
@example((np.repeat([0.25, 0.5, 1.0], [3, 40, 7]), 10 ** 5, np.tile([1, -1, 0, 1, -1], 10)))
# S - 1 = 2n takes every s; S - 1 = 2n + 1 bisects a grid of every s
@example((np.linspace(0.0, 1.0, 7) ** 2, 15, np.array([1, -1, 1, 0, -1, 1, -1])))
@example((np.linspace(0.0, 1.0, 7) ** 2, 16, np.array([1, -1, 1, 0, -1, 1, -1])))
def test_quantile_cuts_equal_np_quantile(case):
    values, S, d = case
    # the cuts are np.quantile's at the steps used, at most 2n of them
    steps = balancing._cut_steps(len(values), S)
    event("every s" if len(steps) == S - 1 else "run ends")
    assert len(steps) <= min(S - 1, 2 * len(values))
    cuts = balancing._quantile_cuts(values, S)
    assert cuts.tobytes() == np.quantile(values, steps / S).tobytes()
    scores = ScoreVector.from_floats(values)

    def outcome(cuts):
        with mock.patch.object(balancing, "_quantile_cuts", cuts):
            try:
                found = subclassify(scores, d, method="quantile", num_subclasses=S)
            except TooFewUnits:
                return "TooFewUnits"
        return found.labels.tolist(), found.num_subclasses

    assert outcome(balancing._quantile_cuts) == outcome(numpy_quantile_cuts)


@given(st.integers(1, 2000), st.data())
def test_small_subclass_counts_cut_at_every_step(n, data):
    S = data.draw(st.integers(1, 2 * n + 1))
    assert np.array_equal(balancing._cut_steps(n, S), np.arange(1, S))


# ---------------------------------------------------------------------------
# CSV ingest and writing


def reference_parse_float(token: str, where: str) -> float:
    token = token.strip()
    if token == "":
        raise MissingValue(f"blank covariate entry at {where}")
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"non-numeric covariate {token!r} at {where}") from exc


def reference_parse_treatment(token: str, where: str) -> int:
    token = token.strip()
    if token == "":
        raise MissingValue(f"blank treatment entry at {where}")
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"non-integer treatment {token!r} at {where}") from exc


def reference_load_dataset(path):
    """``load_dataset`` as first written: every row parsed into Python numbers."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        treatment_column = "w" if "w" in header else header[-1]
        covariate_columns = [h for h in header if h != treatment_column]
        if not covariate_columns:
            raise ParseError(f"{path}: no covariate columns")
        cov_idx = [header.index(c) for c in covariate_columns]
        trt_idx = header.index(treatment_column)

        X_rows, w_rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}, line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            where = f"{path}, line {lineno}"
            X_rows.append([reference_parse_float(row[j], where) for j in cov_idx])
            w_rows.append(reference_parse_treatment(row[trt_idx], where))

    if not X_rows:
        raise EmptyFile(f"{path}: no data rows")
    return Dataset(X_rows, w_rows, covariate_names=covariate_columns)


def reference_csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def reference_write_dataset_csv(dataset, path, extra_columns=None) -> None:
    """``write_dataset_csv`` as first written: one field at a time."""
    extras = {}
    for name, col in (extra_columns or {}).items():
        extras[name] = col if isinstance(col, (list, tuple)) else list(col)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.covariate_names) + ["w"] + list(extras))
        for i in range(dataset.n_units):
            writer.writerow(
                [format(float(v), ".17g") for v in dataset.covariates[i]]
                + [str(int(dataset.treatments[i]))]
                + [reference_csv_field(col[i]) for col in extras.values()]
            )


# Tokens loadtxt reads as Python reads them, and tokens only the row parser
# reads or rejects (with its line number).
CLEAN_FLOATS = st.one_of(
    FLOATS.map(repr),
    FLOATS.map(lambda v: format(v, ".17g")),
    st.sampled_from((" 1.5 ", "+.5", "-0", "1E300", "\t3\t", "2.5\x0c")),
)
ODD_FLOATS = st.sampled_from(
    ("1_0", '"2.5"', '" 7 "', "١٢", "", " ", "abc", "0x10", "inf", "-nan", "1e999", "#1")
)
CLEAN_LABELS = st.sampled_from(("1", "2", "3", " 2 ", "+1", "03"))
ODD_LABELS = st.sampled_from(
    ("2.0", "", "x", "1_0", '"3"', "٣", "0", "-1", "99999999999999999999", "1e0")
)
ODD_LINES = ("", "   ", "#comment", "\t", " , ")


@st.composite
def csv_files(draw):
    """A dataset CSV and whether it is clean.

    A clean file has only tokens and rows that the one-pass parser reads.
    An odd one is a clean one with one or two faults put in: a token only
    the row parser reads or a bad token, a quoted field, a blank or comment
    line, a row of blank fields, or a short or long row.
    """
    kind = draw(st.sampled_from(("clean", "odd", "odd", "empty", "header only")))
    k = draw(st.integers(1, 3))
    names = draw(st.permutations([f"x{j + 1}" for j in range(k)] + ["w"]))
    end = draw(st.sampled_from(("\n", "\r\n")))
    if kind == "empty":
        return "", False
    tokens = {"x": CLEAN_FLOATS, "w": CLEAN_LABELS}
    num_rows = 0 if kind == "header only" else draw(st.integers(1, 8))
    rows = [[draw(tokens[name[0]]) for name in names] for _ in range(num_rows)]
    odd_tokens = {"x": ODD_FLOATS, "w": ODD_LABELS}
    faults = draw(st.lists(
        st.sampled_from(("token", "token", "line", "short", "long", "blank")),
        min_size=1, max_size=2,
    )) if kind == "odd" else []
    for fault in sorted(faults, key=lambda f: f != "token"):  # tokens go in first
        i = draw(st.integers(0, num_rows - 1))
        if fault == "token":
            j = draw(st.integers(0, len(names) - 1))
            rows[i][j] = draw(odd_tokens[names[j][0]])
        elif fault == "line":
            rows.insert(i, [draw(st.sampled_from(ODD_LINES))])
        elif fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "long":
            rows[i] = rows[i] + ["1"]
        else:
            rows.insert(i, [""] * draw(st.integers(1, len(names) + 1)))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    if kind == "header only":
        lines += [""] * draw(st.integers(0, 2))
    return end.join(lines) + draw(st.sampled_from((end, ""))), kind == "clean"


def load_outcome(load, path):
    """What a loader returns or raises, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            d = load(path)
        except Exception as exc:  # the exception itself is the outcome
            outcome = ("raised", type(exc), str(exc))
        else:
            outcome = (
                "loaded", d.covariates.shape, d.covariates.tobytes(),
                d.treatments.dtype, d.treatments.tobytes(),
                d.covariate_names, d.num_treatments,
            )
    return outcome, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300)
@given(csv_files())
@example(("x1,w\n1,99999999999999999999\n", False))  # int64 overflow
@example(("x1,w\n1,2.0\n", False))
@example(("x1,x2,w\r\n,,\r\n1,2,3\r\n", False))
@example(('x1,w\r\n"1.5",2\r\n\r\n1_000,1\r\n', False))
@example(("x1,w\n#1,2\n", False))
@example(("x1,w\n١,٢\n", False))
@example(("x1,w\n1\n", False))
@example(("x1,w\n1,2,3\n", False))
@example(("x1,w\n\n", False))
@example(("", False))
def test_load_dataset_equals_row_parser(case):
    text, clean = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "units.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        want = load_outcome(reference_load_dataset, path)
        with mock.patch.object(data, "_parse_rows", wraps=data._parse_rows) as rows:
            got = load_outcome(data.load_dataset, path)
    assert got == want
    if clean:
        # no clean numeric body goes through the row parser
        assert want[0][0] == "loaded"
        assert not rows.called


# Pieces of arbitrary file bytes: digits, commas, quotes, blanks, and stray
# bytes (not UTF-8, NUL, a bare carriage return, an int64-overflowing label).
FUZZ_PIECES = st.sampled_from((
    b"0", b"1", b"2", b"3", b"9", b"1.5", b"-", b",", b",", b'"', b" ", b"\t",
    b"e", b"x", b"w", b"\xff", b"\xe9", b"\x00", b"\r", b"99999999999999999999",
))
FUZZ_LINES = st.lists(FUZZ_PIECES, max_size=10).map(b"".join)


@st.composite
def fuzzed_files(draw):
    """A header line (often a valid one) and up to 6 body lines of fuzz bytes."""
    header = draw(st.one_of(st.sampled_from((b"x1,w", b"x1,x2,w", b"w,x1", b"")), FUZZ_LINES))
    body = draw(st.lists(FUZZ_LINES, max_size=6))
    end = draw(st.sampled_from((b"\n", b"\r\n")))
    return end.join([header] + body) + draw(st.sampled_from((end, b"")))


@settings(max_examples=200)
@given(fuzzed_files())
def test_load_dataset_returns_a_dataset_or_fails_typed(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "units.csv")
        with open(path, "wb") as fh:
            fh.write(content)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # absent treatments only warn
            try:
                dataset = data.load_dataset(path)
            except CspsError:
                return
    assert isinstance(dataset, Dataset)
    assert dataset.n_units >= 1


# Floats where '%.17g' is hard to match: exact ties of the 18th digit
# (1 + 2**-17 is 1.00000762939453125, written 1.0000076293945312), powers of
# ten and their neighbours (where floor(log10) can be one off), the ends of
# the writer's exact range, zeros, subnormals and the largest float.
TIES = (1 + 2 ** -17, 1 + 3 * 2 ** -17, 1 + 5 * 2 ** -17, 1e3 + 2 ** -14, 1e15 + 0.25)
POWERS_OF_TEN = tuple(
    v for k in range(-30, 31)
    for v in (10.0 ** k, np.nextafter(10.0 ** k, 0), np.nextafter(10.0 ** k, np.inf))
)
EDGE_FLOATS = TIES + POWERS_OF_TEN + (
    1e16, 1e17, 99999999999999999.0, 1e-6, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
)
NON_FINITE = (float("inf"), float("-inf"), float("nan"))
RAW_FLOATS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
)
DYADIC_FLOATS = st.builds(  # many of them are exact ties at the 18th digit
    lambda m, j: m * 2.0 ** -j, st.integers(1, 2 ** 20), st.integers(0, 70)
)


def spelled(fields: np.ndarray) -> list[str]:
    """The text of each field of a ``(words, n)`` word array, NULs deleted."""
    return [column.tobytes().translate(None, b"\0").decode("ascii") for column in fields.T]


# a point after each of the 17 digits, where the digits read before and
# after it meet
POINTS = tuple(float(f"1.2345678901234567e{k}") for k in range(17))


@settings(max_examples=300)
@given(st.lists(st.one_of(RAW_FLOATS, FLOATS, DYADIC_FLOATS, st.sampled_from(EDGE_FLOATS)),
                max_size=40))
@example(list(TIES))
@example(list(POWERS_OF_TEN))
@example(list(EDGE_FLOATS + NON_FINITE))
@example(list(POINTS) + [-v for v in POINTS])
@example([0.00012345678901234567, -0.00012345678901234567, 0.0001, 1e-5,
          -9.9999999999999991e-06, 1.0000000000000001e-05, -0.0])
def test_float_fields_equal_percent_g(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the formatter raises no numpy warning
        got = spelled(csvwriter._float_words(np.array(values, dtype=np.float64)))
    assert got == ["%.17g" % v for v in values]


def int_fields(values: np.ndarray) -> list[str]:
    """The fields of an integer column, as wide as its largest magnitude needs."""
    return spelled(csvwriter._int_words(values, csvwriter._int_groups(values)))


@settings(max_examples=200)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=40))
@example([-2 ** 63, 2 ** 63 - 1, 0, -1, 1, 9999, 10000, -10 ** 18])
@example([0, -1, 9999, -9999])  # one base-10000 digit of an int64's five
@example([10000, -99999999, 0])
@example([10 ** 8, -(10 ** 12 - 1), 7])
@example([10 ** 12, -(10 ** 16 - 1), -3])
def test_int64_fields_equal_percent_d(values):
    got = int_fields(np.array(values, dtype=np.int64))
    assert got == ["%d" % v for v in values]


@settings(max_examples=200)
@given(st.lists(st.integers(2 ** 63, 2 ** 64 - 1), max_size=40))
@example([2 ** 63, 2 ** 64 - 1, 10 ** 19, 10 ** 19 - 1])
@example([0, 1, 9999])  # one base-10000 digit of a uint64's five
@example([10 ** 16 - 1, 10 ** 8])
def test_uint64_fields_equal_percent_d(values):
    got = int_fields(np.array(values, dtype=np.uint64))
    assert got == ["%d" % v for v in values]


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans()), max_size=40))
@example([(-2 ** 63, True), (5, False), (-7, False)])  # the widest value is masked
@example([(2 ** 63 - 1, True), (10 ** 12, True), (0, False)])
@example([(123456, True), (-1, True)])
def test_masked_int_columns_equal_percent_d(entries):
    values = np.array([v for v, _ in entries], dtype=np.int64)
    mask = np.array([m for _, m in entries], dtype=bool)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ints.csv")
        csvwriter.write_csv_columns(
            path, ["x", "y"], [np.ma.masked_array(values, mask=mask), values], len(values)
        )
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\r\n")
    want = [b"x,y"] + [
        ("%s,%d" % ("" if m else "%d" % v, v)).encode() for v, m in entries
    ] + [b""]
    assert lines == want


@st.composite
def extra_columns(draw):
    """A dataset, extra columns for write_dataset_csv and the same for the reference.

    The reference writer gets each masked array as a list with None where
    masked; every other column it gets as it is.  Covariates are finite;
    float extras may also be infinite or NaN, and some are non-contiguous
    or read-only views.
    """
    n = draw(st.sampled_from((0, 1, 2, 3, 17, 2047, 2048, 2049)))
    finite = st.one_of(FLOATS, st.sampled_from(EDGE_FLOATS))
    pool = np.array(draw(st.lists(finite, min_size=1, max_size=12)))
    extra_pool = np.concatenate((pool, draw(st.lists(st.sampled_from(NON_FINITE), max_size=2))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 3))
    dataset = make_dataset(pool[rng.integers(0, len(pool), (n, k))], rng.integers(1, 4, n))
    floats = extra_pool[rng.integers(0, len(extra_pool), n)]
    blank = rng.random(n) < 0.3
    wide = np.array([-2 ** 63, 2 ** 63 - 1, 0, -1, 12345678901234567], dtype=np.int64)
    high = np.array([2 ** 64 - 1, 2 ** 63, 2 ** 63 + 2], dtype=np.uint64)
    with np.errstate(over="ignore"):
        as_float32 = floats.astype(np.float32)
    strided = extra_pool[rng.integers(0, len(extra_pool), (n, 2))]
    read_only = floats.copy()
    read_only.setflags(write=False)
    columns = {
        "float64": floats,
        "float32": as_float32,
        "float64_strided": strided[:, 1],
        "float64_read_only": read_only,
        "int64": rng.integers(-3, 4, n),
        "int64_wide": wide[rng.integers(0, len(wide), n)],
        "int8": rng.integers(-128, 128, n).astype(np.int8),
        "uint8": rng.integers(0, 256, n).astype(np.uint8),
        "int16_strided": rng.integers(-2 ** 15, 2 ** 15, (2, n)).astype(np.int16)[0, ::-1],
        "uint64_high": high[rng.integers(0, len(high), n)],
        "uint64_narrow": high[1:][rng.integers(0, 2, n)],
        "masked_float": np.ma.masked_array(floats, mask=blank),
        "masked_float_strided": np.ma.masked_array(strided[:, 0], mask=blank),
        "masked_uint8": np.ma.masked_array(rng.integers(0, 6, n).astype(np.uint8), mask=blank),
    }
    names = draw(st.lists(st.sampled_from(sorted(columns)), unique=True, max_size=6))
    extras = {name: columns[name] for name in names}
    reference = {
        name: [None if m else v for v, m in zip(col.data.tolist(), col.mask.tolist())]
        if isinstance(col, np.ma.MaskedArray) else col
        for name, col in extras.items()
    }
    return dataset, extras, reference


@settings(max_examples=60)
@given(extra_columns())
def test_write_dataset_csv_equals_field_writer(case):
    dataset, extras, reference = case
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        if not dataset.n_units:  # load_dataset would refuse the header-only file
            with pytest.raises(ValueError, match="no units"):
                write_dataset_csv(dataset, got, extras)
            assert not os.path.exists(got)
            return
        write_dataset_csv(dataset, got, extras)
        reference_write_dataset_csv(dataset, want, reference)
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


# Column names a CSV must carry through: commas, quotes, line breaks, blanks,
# and, unless a letter and a number enclose the pieces, surrounding
# whitespace and names that repeat or clash with the treatments' column w.
NAME_PIECES = st.lists(
    st.sampled_from(("x", "a", ",", '"', "\n", "\r", " ", "w", "d[b]", "")), max_size=3
).map("".join)
COLUMN_NAMES = st.one_of(NAME_PIECES, st.builds("a{}{}".format, NAME_PIECES, st.integers(0, 99)))


@st.composite
def round_trip_cases(draw):
    """A Dataset of 1-8 units and 1-3 covariates, and 0-3 extra columns, all
    named by COLUMN_NAMES; the covariates hold -0.0 and edge floats, and the
    extras are int, uint or float arrays, some of them masked."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.array(draw(st.lists(st.one_of(FLOATS, st.sampled_from(EDGE_FLOATS)),
                                  min_size=1, max_size=6)))
    k = draw(st.integers(1, 3))
    names = draw(st.lists(COLUMN_NAMES, min_size=k, max_size=k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # absent treatments only warn
        dataset = Dataset(pool[rng.integers(0, len(pool), (n, k))], rng.integers(1, 4, n),
                          covariate_names=names)
    kinds = {
        "int64": np.array([-2 ** 63, 2 ** 63 - 1, 0, -1, 7]),
        "int8": np.array([-128, 127, 0], dtype=np.int8),
        "uint64": np.array([2 ** 64 - 1, 2 ** 63, 0], dtype=np.uint64),
        "float64": pool,
        "float32": np.array([0.1, -0.0, 3e38], dtype=np.float32),
    }
    extras = {}
    for name in draw(st.lists(COLUMN_NAMES, max_size=3)):
        values = kinds[draw(st.sampled_from(sorted(kinds)))]
        column = values[rng.integers(0, len(values), n)]
        if draw(st.booleans()):
            column = np.ma.masked_array(column, mask=rng.random(n) < 0.3)
        extras[name] = column
    return dataset, extras


def assert_reads_back(dataset, extras, path):
    """``load_dataset`` reads ``path`` back to ``dataset``'s treatments, and
    to its covariates and ``extras`` as covariates, names and float64 bytes;
    it may refuse a file with a masked entry, and then only as MissingValue."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # absent treatments only warn
            loaded = data.load_dataset(path)
    except MissingValue:
        assert any(np.ma.is_masked(column) for column in extras.values())
        event("masked entry refused")
        return
    assert loaded.treatments.tolist() == dataset.treatments.tolist()
    assert loaded.covariate_names == dataset.covariate_names + tuple(extras)
    columns = [dataset.covariates] + [np.ma.getdata(c).astype(np.float64) for c in extras.values()]
    assert loaded.covariates.tobytes() == np.column_stack(columns).tobytes()
    event("read back")


@settings(max_examples=200)
@given(round_trip_cases())
@example((Dataset([[0.5], [1.5], [2.5]], [1, 2, 3], covariate_names=["x1\n"]),
          {"score": np.array([0.25, 0.5, 0.75])}))  # read back as "x1"
def test_written_datasets_read_back(case):
    # a file the writer writes reads back to the same treatments, names and
    # float64 bytes, or the writer refuses it before it opens the file
    dataset, extras = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "units.csv")
        try:
            write_dataset_csv(dataset, path, extras)
        except ValueError:
            assert not os.path.exists(path)
            event("refused")
            return
        assert_reads_back(dataset, extras, path)


@st.composite
def treatment_last_files(draw):
    """The text of a CSV of 6-40 units whose last column, not named w,
    holds treatments 1..3, and those treatments."""
    n = draw(st.integers(6, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(("x1", "x2", "a,b", 'q"', "", "d[b]")),
                          min_size=k, max_size=k, unique=True))
    names.append(draw(st.sampled_from(("t", "arm", "", "subclass[b]", "score[b]", "x1"))))
    X = rng.standard_normal((n, k))
    if draw(st.booleans()):
        X = np.round(X)  # few cells, and ties in the scores
    w = rng.integers(1, 4, n)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(names)
    writer.writerows([*map(repr, row), int(t)] for row, t in zip(X.tolist(), w))
    return text.getvalue(), w


@settings(max_examples=40, deadline=None)
@given(
    treatment_last_files(),
    st.lists(st.sampled_from(("1 1 -2  # b", "1 -1 0  # c", "0 1 -1")), min_size=1,
             unique=True),
    st.sampled_from(("empirical", "logistic")), st.sampled_from(("exact", "quantile")),
)
@example(("x1,x2,t\n" + "".join(f"{i % 5 / 4},{i % 3 / 2},{i % 3 + 1}\n" for i in range(30)),
          np.arange(30) % 3 + 1), ["1 1 -2  # b"], "logistic", "quantile")
def test_per_unit_files_read_back(case, targets, estimator, method):
    # whatever the input calls its treatments, a --per-unit file reads back
    # to the same treatments, or the command refuses before writing it
    text, w = case
    with tempfile.TemporaryDirectory() as tmp:
        units, contrasts, per_unit = (os.path.join(tmp, f) for f in ("u.csv", "c.txt", "p.csv"))
        with open(units, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(contrasts, "w", encoding="utf-8") as fh:
            fh.write("\n".join(targets) + "\n")
        argv = ["balance", "--data", units, "--contrasts", contrasts, "--estimator", estimator,
                "--method", method, "--format", "text", "--per-unit", per_unit]
        with mock.patch.object(cli, "write_dataset_csv", wraps=data.write_dataset_csv) as write, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # absent treatments only warn
            code = cli.main(argv)
        event(f"exit {code}")
        if code == 2:  # a name used twice, in the input or in the per-unit file
            assert not os.path.exists(per_unit)
            return
        assert code in (0, 3)
        (dataset, _, extras), _ = write.call_args
        assert dataset.treatments.tolist() == w.tolist()
        assert_reads_back(dataset, extras, per_unit)


# ---------------------------------------------------------------------------
# the CLI's typed-failure contract: exit 0, exit 2 with an "input error:"
# line, or exit 3 with an "estimation error:" line; never an exception

CLI_CONTRASTS = (
    "1 -1 0\n0 1 -1\n",  # valid, 3 treatments
    "1/2 1/2 -1  # both-vs-3\n1 -1 0\n",
    "1 0 -1\n",
    "1 -1 0  # a\n1 0 -1  # a\n",  # two contrasts of one name
    "1 -1\n",  # too narrow
    "1 -1 0 0\n",  # too wide
    "1 1 -1\n",  # does not sum to zero
    "",  # empty
    None,  # missing file
)
CLI_BAD_DATA = (
    None,  # missing file
    "",
    "x1,w\n",
    "x1,w\n1\n",
    "x1,w\n1,2,3\n",
    "x1,w\n,1\n2,2\n",
    "x1,w\nabc,1\n2,2\n",
    "x1,w\n1,9\n2,2\n",
    "x1,w\n1,0\n2,2\n",
    "x1,w\n1,99999999999999999999\n",
    "w\n1\n2\n3\n",
    b"x1,w\n\xff,1\n",
)
CLI_RIDGES = ("-1", "-1e-3", "0", "1e-3", "2.5", "nan", "inf", "-inf")
# far more subclasses than units: the quantile cut must not allocate S cuts
CLI_MANY_SUBCLASSES = "1000000000"
# output files in a directory that does not exist
CLI_MISSING_OUT = "missing/out.csv"
CLI_MISSING_PER_UNIT = "missing/scored.csv"
# 24 units that balance runs on: x1 is 0 to 3 and w 1 to 3
CLI_RUNNABLE_UNITS = "x1,w\n" + "".join(f"{i % 4},{i % 3 + 1}\n" for i in range(24))
# config values, some of which the option's type or choices refuse
CLI_CONFIG_VALUES = {
    "estimator": ("empirical", "logistic", "bogus", ""),
    "method": ("exact", "quantile", "bogus"),
    "subclasses": ("1", "3", "64", CLI_MANY_SUBCLASSES, "0", "-2", "2.5", "abc"),
    "ridge": CLI_RIDGES + ("abc",),
    "format": ("text", "csv", "both", "bogus"),
}
# the values above that an option's type or choices refuse
CLI_REFUSED = {"estimator": ("bogus", ""), "method": ("bogus",), "subclasses": ("2.5", "abc"),
               "ridge": ("abc",), "format": ("bogus",), "units": ("2.5",), "reps": ("abc",),
               "oracle": ("2.5",)}


def cli_refused(config: dict) -> bool:
    return any(v in CLI_REFUSED.get(k, ()) for k, v in config.items())


# keys no --config file may hold: misspelt, or not an option of the subcommand
CLI_UNKNOWN_KEYS = ("subclasess", "per-unit", "config", "command")
# covariates whose mean differences lie beyond the float64 range
CLI_HUGE = st.sampled_from((sys.float_info.max, -sys.float_info.max))


@st.composite
def cli_units(draw) -> str:
    """A small 3-treatment dataset CSV: discrete or continuous covariates.

    Now and then some covariates are float64's largest magnitude.
    """
    n = draw(st.integers(4, 30))
    k = draw(st.integers(1, 2))
    mixed = st.one_of(DISCRETE, st.floats(-3, 3, allow_nan=False))
    values = draw(st.sampled_from((DISCRETE, mixed) * 3 + (st.one_of(DISCRETE, CLI_HUGE),)))
    X = draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=n, max_size=n))
    w = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    header = ",".join([f"x{j + 1}" for j in range(k)] + ["w"])
    rows = [",".join([repr(v) for v in x] + [str(t)]) for x, t in zip(X, w)]
    return "\n".join([header] + rows) + "\n"


@st.composite
def cli_runs(draw):
    """A balance or estimate run: files, argv, the effective ridge and a bad config line."""
    command = draw(st.sampled_from(("balance", "estimate")))
    # mostly runnable inputs, so that runs also get to fit and balance
    units = st.sampled_from(CLI_BAD_DATA) if draw(st.integers(0, 3)) == 0 else cli_units()
    files = {
        "units.csv": draw(units),
        "contrasts.txt": draw(st.sampled_from(CLI_CONTRASTS[:3] * 3 + CLI_CONTRASTS[3:])),
    }
    argv = [command]
    # now and then one of the two required flags is left out
    for flag, name in (("--data", "units.csv"), ("--contrasts", "contrasts.txt")):
        if draw(st.integers(0, 9)):
            argv += [flag, name]
    flags = {"estimator": st.sampled_from(("empirical", "logistic")),
             "ridge": st.sampled_from(CLI_RIDGES)}
    if command == "balance":
        flags.update(method=st.sampled_from(("exact", "quantile")),
                     subclasses=st.sampled_from(("1", "2", "5", "64", CLI_MANY_SUBCLASSES,
                                                 "0", "-3")),
                     format=st.sampled_from(("text", "csv", "both")))
        if draw(st.booleans()):
            files["targets.txt"] = draw(st.sampled_from(CLI_CONTRASTS))
            argv += ["--targets", "targets.txt"]
        if draw(st.booleans()):
            argv += ["--per-unit", draw(st.sampled_from(("scored.csv", CLI_MISSING_PER_UNIT)))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", CLI_MISSING_OUT]
    given_flags = {}
    for name in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        given_flags[name] = draw(flags[name])
        argv.append(f"--{name}={given_flags[name]}")
    config = {}
    bad_config = False
    if draw(st.booleans()):
        names = sorted(CLI_CONFIG_VALUES)
        if command == "estimate":
            names = ["estimator", "ridge"]
        for name in draw(st.lists(st.sampled_from(names), unique=True)):
            config[name] = draw(st.sampled_from(CLI_CONFIG_VALUES[name]))
        # a refused value is an error even where a flag overrides it
        bad_config = cli_refused(config)
        if draw(st.integers(0, 4)) == 0:
            bad_config = True
            unknown = CLI_UNKNOWN_KEYS
            if command == "estimate":
                unknown += ("method", "format")
            config[draw(st.sampled_from(unknown))] = "1"
        files["config.txt"] = "".join(f"{k} = {v}\n" for k, v in config.items())
        argv += ["--config", "config.txt"]
    ridge = given_flags.get("ridge", config.get("ridge", "0"))
    return files, argv, ridge, bad_config


@settings(max_examples=200)
@given(cli_runs())
@example(({"units.csv": "x1,w\n0,1\n1,2\n0,3\n1,1\n", "contrasts.txt": "1 -1 0\n"},
          ["balance", "--data", "units.csv", "--contrasts", "contrasts.txt",
           "--ridge=nan"], "nan", False))
@example(({"units.csv": CLI_RUNNABLE_UNITS, "contrasts.txt": CLI_CONTRASTS[0]},
          ["balance", "--data", "units.csv", "--contrasts", "contrasts.txt",
           "--out", CLI_MISSING_OUT], "0", False))
@example(({"units.csv": CLI_RUNNABLE_UNITS, "contrasts.txt": CLI_CONTRASTS[0]},
          ["balance", "--data", "units.csv", "--contrasts", "contrasts.txt",
           "--format=text", "--per-unit", CLI_MISSING_PER_UNIT], "0", False))
def test_cli_exits_typed(run):
    files, argv, ridge, bad_config = run
    outputs = ("scored.csv", CLI_MISSING_OUT, CLI_MISSING_PER_UNIT)
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            if content is not None:
                mode = "wb" if isinstance(content, bytes) else "w"
                with open(os.path.join(tmp, name), mode) as fh:
                    fh.write(content)
        argv = [os.path.join(tmp, a) if a in files or a in outputs else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # absent treatments only warn
            code = cli.main(argv + ["--output-dir", tmp])
        wrote_missing = os.path.exists(os.path.join(tmp, "missing"))
    lines = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 2, 3)
    assert not wrote_missing
    if code == 2:
        assert any(line.startswith("input error:") for line in lines)
        # every input error is found before any output
        assert out.getvalue() == ""
    if code == 3:
        assert any(line.startswith("estimation error:") for line in lines)
    try:
        bad_ridge = not (float(ridge) >= 0 and np.isfinite(float(ridge)))
    except ValueError:
        bad_ridge = True
    if bad_ridge or bad_config:
        assert code == 2


# coefficient files for `simulate --mechanism`: one row of K per treatment
CLI_COEFFICIENTS = (
    "0 0 0\n0.5 0 0\n0 0.5 0\n",
    "0 0 0\n0.75 0.25 0.5\n0.25 0.75 0.5\n",
    "0 0\n1 0\n0 1\n",  # K = 2
    "0 0 0\n1 0 0\n",  # two treatments
    "0 0 0\n1 0\n0 1 0\n",  # ragged
    "0 0 0\nabc 0 0\n0 0 0\n",
    "0 0 0\n1 nan 0\n0 0 1\n",
    "0 0 0\n1e308 1e308 1e308\n0 0 0\n",  # linear predictors overflow float64
    "",
    None,  # missing file
)
# beyond any address space, so asking for it allocates nothing
CLI_HUGE_SIZE = "1000000000000000"
# an --out file in a directory that does not exist
CLI_MISSING_OUT = "missing/replications.csv"
CLI_SIMULATE_CONFIG_VALUES = {
    "mechanism": ("I", "ii", "no-such-file.txt"),
    "units": ("3", "40", "2", CLI_HUGE_SIZE, "2.5"),
    "reps": ("1", "3", "0", "abc"),
    "seed": ("0", "7", "-1"),
    "estimator": ("empirical", "logistic", "bogus"),
    "subclasses": ("1", "5", CLI_MANY_SUBCLASSES, "0", "abc"),
    "ridge": ("0", "0.5", "-1", "nan"),
    "oracle": ("0", "50", CLI_HUGE_SIZE, "2.5"),
    "format": ("text", "csv", "both", "bogus"),
}


@st.composite
def cli_simulate_runs(draw):
    """A simulate run: files, argv and whether its config file has a bad line."""
    files = {}
    argv = ["simulate"]
    mechanism = draw(st.sampled_from(("I", "II", "file", None)))
    if mechanism == "file":
        files["coeffs.txt"] = draw(st.sampled_from(CLI_COEFFICIENTS))
        argv += ["--mechanism", "coeffs.txt"]
    elif mechanism is not None:
        argv += ["--mechanism", mechanism]
    flags = {
        "units": st.one_of(st.integers(3, 60).map(str), st.just(CLI_HUGE_SIZE)),
        "reps": st.one_of(st.integers(1, 3).map(str), st.just(CLI_HUGE_SIZE)),
        "seed": st.integers(0, 2 ** 32).map(str),
        "estimator": st.sampled_from(("empirical", "logistic")),
        "subclasses": st.sampled_from(("1", "3", "5", CLI_MANY_SUBCLASSES)),
        "ridge": st.sampled_from(("0", "0.5")),
        "oracle": st.one_of(st.integers(1, 200).map(str), st.just(CLI_HUGE_SIZE)),
        "format": st.sampled_from(("text", "csv", "both")),
    }
    given = {name: draw(flags[name])
             for name in draw(st.lists(st.sampled_from(sorted(flags)), unique=True))}
    # keep the default 800 units x 100 replications out of the run time
    given.setdefault("units", "30")
    given.setdefault("reps", "1")
    argv += [f"--{name}={value}" for name, value in given.items()]
    bad_config = False
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(sorted(CLI_SIMULATE_CONFIG_VALUES)), unique=True))
        config = {name: draw(st.sampled_from(CLI_SIMULATE_CONFIG_VALUES[name])) for name in names}
        bad_config = cli_refused(config)
        if draw(st.integers(0, 4)) == 0:
            bad_config = True
            config[draw(st.sampled_from(CLI_UNKNOWN_KEYS + ("method", "per_unit")))] = "1"
        files["config.txt"] = "".join(f"{k} = {v}\n" for k, v in config.items())
        argv += ["--config", "config.txt"]
    # the CSV goes to the run's directory, a missing directory or under a file
    out = draw(st.sampled_from((None, "--out", "--output-dir")))
    if out == "--out":
        argv += ["--out", CLI_MISSING_OUT]
    elif out == "--output-dir":
        files["a-file"] = ""
        argv += ["--output-dir", "a-file"]
    return files, argv, bad_config


@settings(max_examples=150)
@given(cli_simulate_runs())
@example(({}, ["simulate", "--units=30", "--reps=1", f"--oracle={CLI_HUGE_SIZE}"], False))
@example(({}, ["simulate", "--units=30", "--reps=1", "--out", CLI_MISSING_OUT], False))
def test_cli_simulate_exits_typed(run):
    files, argv, bad_config = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            if content is not None:
                with open(os.path.join(tmp, name), "w") as fh:
                    fh.write(content)
        argv = [os.path.join(tmp, a) if a in files or a == CLI_MISSING_OUT else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # absent treatments only warn
            # a drawn --output-dir comes later, so it wins
            code = cli.main(argv[:1] + ["--output-dir", tmp] + argv[1:])
        wrote_csv = any(os.path.exists(os.path.join(tmp, name))
                        for name in ("replications.csv", "missing"))
    lines = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 2, 3)
    if code == 2:
        assert any(line.startswith("input error:") for line in lines)
        # every input error is found before any output
        assert out.getvalue() == ""
        assert not wrote_csv
    if code == 3:
        assert any(line.startswith("estimation error:") for line in lines)
    if bad_config:
        assert code == 2


# ---------------------------------------------------------------------------
# the label rule


def whole_label(value):
    """The int that ``value`` stands for as a label, or None: a whole number
    that int64 holds, and neither a bool nor a string."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        return None
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value and -(2 ** 63) <= number < 2 ** 63 else None


SMALL_LABELS = st.integers(-1, 4)
LABEL_KINDS = {
    "int": st.one_of(SMALL_LABELS, st.sampled_from(
        (2 ** 63 - 1, -(2 ** 63), 2 ** 63, -(2 ** 63) - 1, 2 ** 70))),
    "float": st.one_of(SMALL_LABELS.map(float), st.floats(), st.sampled_from(
        (0.5, 2.7, 2.0 ** 63, -(2.0 ** 63), math.nan, math.inf, -math.inf))),
    "bool": st.booleans(),
    "str": st.sampled_from(("1", "2", "3", " 2", "1.0", "x")),
    "exact": st.one_of(
        SMALL_LABELS.map(Fraction), SMALL_LABELS.map(Decimal),
        st.fractions(-4, 4, max_denominator=3), st.decimals(-4, 4),
        st.sampled_from((Decimal("NaN"), Decimal("-Infinity"), Decimal(2 ** 63))),
    ),
}
INT_DTYPES = ("int8", "int32", ">i8", "uint8", "uint64")


@st.composite
def label_arrays(draw):
    """A list of labels of one or two kinds, as a list, an object array or,
    when every entry fits, an integer array of another dtype."""
    kinds = draw(st.lists(st.sampled_from(sorted(LABEL_KINDS)), min_size=1, max_size=2,
                          unique=True))
    values = draw(st.lists(st.one_of(*(LABEL_KINDS[k] for k in kinds)), min_size=1, max_size=6))
    form = draw(st.sampled_from(("list", "object") + INT_DTYPES))
    if form == "object":
        labels = np.empty(len(values), dtype=object)
        labels[:] = values
        return labels
    if form in INT_DTYPES and all(type(v) is int for v in values):
        info = np.iinfo(form)
        if all(info.min <= v <= info.max for v in values):
            return np.array(values, dtype=form)
    return values


@settings(max_examples=300)
@given(label_arrays())
@example([2.7, 1.0])
@example(["1", "2"])
@example(["0", "1"])
@example([1.5])
def test_one_label_rule_at_every_site(labels):
    # Dataset, SubclassAssignment and assignment_indicators accept the same
    # entries and read them as the same ints; the rest each refuses with its
    # own error.  The rule applies to
    # the array numpy reads, so the oracle reads its entries.
    entries = list(np.asarray(labels))
    ints = [whole_label(v) for v in entries]
    contrast = Contrast((1, 0, -1))
    signs = {1: 1, 2: 0, 3: -1}
    covariates = np.zeros((len(entries), 1))
    if all(i is not None and 1 <= i <= 3 for i in ints):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # absent treatments only warn
            assert Dataset(covariates, labels, 3).treatments.tolist() == ints
        assert assignment_indicators(contrast, labels).tolist() == [signs[i] for i in ints]
    else:
        with pytest.raises(OutOfRangeTreatment):
            Dataset(covariates, labels, 3)
        with pytest.raises(OutOfRangeTreatment):
            assignment_indicators(contrast, labels)
    if all(i is not None and 0 <= i <= 3 for i in ints):
        assert SubclassAssignment(labels, 3).labels.tolist() == ints
    else:
        with pytest.raises(ValueError):
            SubclassAssignment(labels, 3)


def test_drawn_examples_do_not_depend_on_loaded_modules(tmp_path, monkeypatch):
    # Hypothesis would add the literals of a newly loaded local module to
    # what it draws; the test configuration turns that off
    def drawn():
        seen = []

        @settings(max_examples=100, database=None)
        @given(st.integers())
        def record(value):
            seen.append(value)

        record()
        return seen

    before = drawn()
    name = "csps_label_constants"
    literals = ", ".join(str(9_876_543 + 7 * k) for k in range(40))
    (tmp_path / f"{name}.py").write_text(f"LITERALS = ({literals})\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module(name)
    after = drawn()
    monkeypatch.delitem(sys.modules, name)
    assert after == before
