"""Property tests: the array arithmetic against per-unit Fraction references.

Each reference below is the plain per-unit computation in exact rationals.
The library must give the same Fractions and the same groupings, whatever
the data and whatever the unit order.
"""

import contextlib
import csv
import io
import os
import sys
import tempfile
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from csps import balancing, cli, data, estimation
from csps.balancing import (
    AlgorithmConfig,
    SubclassAssignment,
    _exact_group_sums,
    _merge_one_class_groups,
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
from csps.data import Dataset, write_dataset_csv
from csps.errors import (
    CspsError,
    EmptyFile,
    MissingValue,
    ParseError,
    TooFewUnits,
    UndefinedScores,
)
from csps.estimation import (
    ScoreVector,
    _canonical_order,
    _dense_ids,
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
    totals, exponent = _exact_group_sums(values, groups, num_groups)
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
    assert _exact_group_sums(values[order], groups[order], num_groups) == _exact_group_sums(
        values, groups, num_groups
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
    assert stacked == [_exact_group_sums(*column) for column in columns]
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
            assert (totals, exponent) == _exact_group_sums(
                np.repeat(values, times), np.repeat(column.groups, times), column.num_groups
            )


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
    assert scores.is_exact
    assert scores.values == want
    assert scores.undefined_units.tolist() == [i for i, v in enumerate(want) if v is None]


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
    # the empirical pass sums per (cell, group) pair where that is no more
    # work than per unit; covariate_mean_difference on a fresh Dataset over
    # the same arrays always sums per unit
    X, w = data_case
    balancing_set = simulation_contrasts()[:2]
    config = AlgorithmConfig(estimator="empirical", subclass_method=method, num_subclasses=S)
    paths = []
    real = balancing._compared_groups

    def watched(dataset, target, subclasses, indicator=None, cells=None):
        comparison = real(dataset, target, subclasses, indicator, cells)
        per_cell = cells is not None and (
            cells.num_cells * len(comparison.counts) <= sum(comparison.counts)
        )
        assert (comparison.multiplicity is not None) == per_cell
        paths.append("cell" if per_cell else "unit")
        return comparison

    with mock.patch.object(balancing, "_compared_groups", watched):
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
    if not scores.is_exact:
        assert units.size == 0


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


@given(fit_rows())
@example((np.array([[0.5, -1.0]]), np.array([1.0])))
def test_canonical_order_equals_lexsort(case):
    X, y = case
    ascending = np.sort(X[:, 0])
    event("argsort" if (ascending[1:] > ascending[:-1]).all() else "lexsort")
    keys = [y] + [X[:, k] for k in reversed(range(X.shape[1]))]
    assert _canonical_order(X, y).tolist() == np.lexsort(keys).tolist()


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
    """The fit's coefficient bits, iterations and log-likelihood path, or its error type."""
    try:
        model = fit()
    except (CspsError, ValueError) as exc:
        return type(exc)
    return model.coefficients.tobytes(), model.iterations, model.log_likelihood_path


@settings(max_examples=200)
@given(shared_order_cases())
@example((np.array([[0.0], [-0.0], [1.0], [2.0], [3.0]]), np.array([1, 2, 2, 1, 2]),
          CONTRASTS[1], np.array([3, 1, 4, 0, 2])))
def test_fits_through_a_shared_order_equal_unit_order_fits(case):
    # model_csps fits the units of d != 0 in the order the dataset keeps;
    # bit for bit that is the fit of those units in unit order, which sorts
    # them itself, and when the dataset's order exists the fit sorts nothing
    X, w, contrast, perm = case
    dataset = make_dataset(X[perm], w[perm])
    presorted = dataset.row_order is not None
    event("shared order" if presorted else "tie: per-fit sort")
    outcomes = []

    def recorded(features, labels, ridge=0.0):
        outcomes.append(fit_outcome(lambda: fit_binary_logistic(features, labels, ridge)))
        return fit_binary_logistic(features, labels, ridge)

    with mock.patch.object(estimation, "fit_binary_logistic", recorded), \
            mock.patch.object(estimation, "_canonical_order",
                              wraps=estimation._canonical_order) as sort, \
            contextlib.suppress(CspsError, ValueError):
        model_csps(dataset, contrast)
    d = assignment_indicators(contrast, w)
    eligible = d != 0
    unit_order = fit_outcome(
        lambda: fit_binary_logistic(X[eligible], (d[eligible] == 1).astype(float))
    )
    event("fitted" if isinstance(unit_order, tuple) else unit_order.__name__)
    assert outcomes == [unit_order]
    if presorted:
        assert sort.call_count == 0


@settings(max_examples=10)
@given(st.lists(st.sampled_from(CONTRASTS), min_size=1, max_size=8))
def test_one_order_per_score_design(targets):
    # one for the covariates and one for the J balancing scores: every
    # balancing and chained fit takes its units from one of the two
    dataset = sample_dataset(mechanism_ii(num_units=300, seed=5), 0)
    order_of = data._tie_free_order
    with contextlib.ExitStack() as stack:
        orders = [
            stack.enter_context(mock.patch.object(module, "_tie_free_order", wraps=order_of))
            for module in (data, estimation, balancing)
        ]
        fits = stack.enter_context(mock.patch.object(
            estimation, "fit_binary_logistic", wraps=fit_binary_logistic
        ))
        report = run_algorithm(dataset, simulation_contrasts()[:2], targets)
    assert all(e.error is None for e in report.entries)
    assert fits.call_count == 2 + len(targets)
    assert sum(order.call_count for order in orders) == 2


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
    return Dataset(
        X_rows, w_rows, covariate_names=covariate_columns, treatment_name=treatment_column
    )


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
        writer.writerow(
            list(dataset.covariate_names) + [dataset.treatment_name] + list(extras)
        )
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
                d.covariate_names, d.treatment_name, d.num_treatments,
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


@st.composite
def extra_columns(draw):
    """A dataset, extra columns for write_dataset_csv and the same for the reference.

    The reference writer gets each masked array as a list with None where
    masked; every other column it gets as it is.
    """
    n = draw(st.sampled_from((0, 1, 2, 3, 17, 2047, 2048, 2049)))
    pool = np.array(draw(st.lists(FLOATS, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 3))
    dataset = make_dataset(pool[rng.integers(0, len(pool), (n, k))], rng.integers(1, 4, n))
    floats = pool[rng.integers(0, len(pool), n)]
    blank = rng.random(n) < 0.3
    wide = np.array([-2 ** 63, 2 ** 63 - 1, 0, -1, 12345678901234567], dtype=np.int64)
    high = np.array([2 ** 64 - 1, 2 ** 63, 2 ** 63 + 2], dtype=np.uint64)
    with np.errstate(over="ignore"):
        as_float32 = floats.astype(np.float32)
    columns = {
        "float64": floats,
        "float32": as_float32,
        "int64": rng.integers(-3, 4, n),
        "int64_wide": wide[rng.integers(0, len(wide), n)],
        "int8": rng.integers(-128, 128, n).astype(np.int8),
        "uint8": rng.integers(0, 256, n).astype(np.uint8),
        "uint64_high": high[rng.integers(0, len(high), n)],
        "uint64_narrow": high[1:][rng.integers(0, 2, n)],
        "masked_float": np.ma.masked_array(floats, mask=blank),
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
        write_dataset_csv(dataset, got, extras)
        reference_write_dataset_csv(dataset, want, reference)
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


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
