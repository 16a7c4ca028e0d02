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

from csps import balancing, cli, data
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
from csps.errors import CspsError, EmptyFile, MissingValue, ParseError, TooFewUnits
from csps.estimation import ScoreVector, _dense_ids, empirical_csps
from csps.simulation import simulation_contrasts

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
    n_assigned = sum(1 for s in labels if s > 0)
    rows, after = [], [Fraction(0)] * X.shape[1]
    for sid in range(1, max(labels, default=0) + 1):
        members = [i for i in range(len(d)) if labels[i] == sid]
        pos = [i for i in members if d[i] == 1]
        neg = [i for i in members if d[i] == -1]
        delta = diff(pos, neg)
        weight = Fraction(len(members), n_assigned)
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


@given(datasets(min_units=2), st.sampled_from(CONTRASTS), st.data())
def test_mean_differences_equal_fraction_reference(data_case, target, data):
    X, w = data_case
    dataset = make_dataset(X, w)
    d = assignment_indicators(target, w)
    S = data.draw(st.integers(1, 4))
    labels = [data.draw(st.integers(0, S)) if v != 0 else 0 for v in d]
    assignment = SubclassAssignment(labels, max(labels), "drawn")
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
        dataset, target, SubclassAssignment(labels, len(both), "cells")
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
    return make_dataset(X, w), SubclassAssignment(labels, S, "drawn")


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
    assert scores.defined_mask.tolist() == [v is not None for v in want]


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
# values a --config file can give that argparse's choices would refuse
CLI_CONFIG_VALUES = {
    "estimator": ("empirical", "logistic", "bogus", ""),
    "method": ("exact", "quantile", "bogus"),
    "subclasses": ("1", "3", "64", "0", "-2", "2.5", "abc"),
    "ridge": CLI_RIDGES + ("abc",),
    "format": ("text", "csv", "both", "bogus"),
}


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
    """A balance or estimate run: files, argv, the effective ridge and a bad config key."""
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
             "ridge": st.sampled_from(CLI_RIDGES),
             "format": st.sampled_from(("text", "csv", "both"))}
    if command == "balance":
        flags.update(method=st.sampled_from(("exact", "quantile")),
                     subclasses=st.sampled_from(("1", "2", "5", "64", "0", "-3")))
        if draw(st.booleans()):
            files["targets.txt"] = draw(st.sampled_from(CLI_CONTRASTS))
            argv += ["--targets", "targets.txt"]
        if draw(st.booleans()):
            argv += ["--per-unit", "scored.csv"]
    given_flags = {}
    for name in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        given_flags[name] = draw(flags[name])
        argv.append(f"--{name}={given_flags[name]}")
    config = {}
    bad_key = False
    if draw(st.booleans()):
        names = sorted(CLI_CONFIG_VALUES)
        if command == "estimate":
            names = ["estimator", "format", "ridge"]
        for name in draw(st.lists(st.sampled_from(names), unique=True)):
            config[name] = draw(st.sampled_from(CLI_CONFIG_VALUES[name]))
        bad_key = draw(st.integers(0, 4)) == 0
        if bad_key:
            unknown = CLI_UNKNOWN_KEYS + (("method",) if command == "estimate" else ())
            config[draw(st.sampled_from(unknown))] = "1"
        files["config.txt"] = "".join(f"{k} = {v}\n" for k, v in config.items())
        argv += ["--config", "config.txt"]
    ridge = given_flags.get("ridge", config.get("ridge", "0"))
    return files, argv, ridge, bad_key


@settings(max_examples=200)
@given(cli_runs())
@example(({"units.csv": "x1,w\n0,1\n1,2\n0,3\n1,1\n", "contrasts.txt": "1 -1 0\n"},
          ["balance", "--data", "units.csv", "--contrasts", "contrasts.txt",
           "--ridge=nan"], "nan", False))
def test_cli_exits_typed(run):
    files, argv, ridge, bad_key = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            if content is not None:
                mode = "wb" if isinstance(content, bytes) else "w"
                with open(os.path.join(tmp, name), mode) as fh:
                    fh.write(content)
        argv = [os.path.join(tmp, a) if a in files or a == "scored.csv" else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # absent treatments only warn
            code = cli.main(argv + ["--output-dir", tmp])
    lines = err.getvalue().splitlines()
    event(f"exit {code}")
    assert code in (0, 2, 3)
    if code == 2:
        assert any(line.startswith("input error:") for line in lines)
    if code == 3:
        assert any(line.startswith("estimation error:") for line in lines)
    try:
        bad_ridge = not (float(ridge) >= 0 and np.isfinite(float(ridge)))
    except ValueError:
        bad_ridge = True
    if bad_ridge or bad_key:
        assert code == 2
