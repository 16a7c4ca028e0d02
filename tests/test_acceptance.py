"""Acceptance suite: one test per exit criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines even when everything passes.
"""

import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from csps.balancing import (
    AlgorithmConfig,
    chained_propensity,
    covariate_mean_difference,
    run_algorithm,
    subclassify,
)
from csps.contrasts import Contrast, assignment_indicators, bifurcation_span_contains, sgn_bifurcate
from csps.data import Dataset, build_cell_index
from csps.estimation import (
    ScoreVector,
    _design,
    _penalised_gradient,
    _penalised_ll,
    empirical_csps,
    fit_binary_logistic,
    model_csps,
)
from csps.example_data import (
    FIRST_CONTRAST,
    SECOND_CONTRAST,
    TARGET_CONTRAST,
    worked_example_dataset,
)
from csps.simulation import (
    mechanism_i,
    mechanism_ii,
    oracle_group_means,
    run_experiment,
    sample_dataset,
)

SEED = 0


def _criterion(name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n{status}: {name}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"{name}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def experiment_i():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_experiment(mechanism_i(seed=SEED))
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def experiment_ii():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(mechanism_ii(seed=SEED))


def test_01_worked_example_exact_reproduction():
    failures = []
    start = time.perf_counter()

    dataset = worked_example_dataset()
    first = empirical_csps(dataset, FIRST_CONTRAST)
    second = empirical_csps(dataset, SECOND_CONTRAST)
    chained = chained_propensity(
        dataset, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST,
        estimator="empirical",
    )
    d = assignment_indicators(TARGET_CONTRAST, dataset.treatments)
    assignment = subclassify(chained, d, method="exact")
    balance = covariate_mean_difference(dataset, TARGET_CONTRAST, assignment)

    elapsed = time.perf_counter() - start

    cells = build_cell_index(dataset)

    def per_cell(sv):
        return {
            tuple(row): sv.values[np.flatnonzero(cells.cell_of_unit == c)[0]]
            for c, row in enumerate(cells.rows.tolist())
        }
    want_first = {
        (1.0, 1.0, 1.0): Fraction(1, 3),
        (1.0, 0.0, 1.0): Fraction(2, 3),
        (0.0, 1.0, 1.0): Fraction(5, 6),
        (0.0, 0.0, 0.0): Fraction(2, 3),
    }
    want_second = {
        (1.0, 1.0, 1.0): Fraction(1, 2),
        (1.0, 0.0, 1.0): Fraction(3, 4),
        (0.0, 1.0, 1.0): Fraction(2, 5),
        (0.0, 0.0, 0.0): Fraction(1, 2),
    }
    want_chained = {
        (1.0, 1.0, 1.0): Fraction(1, 5),
        (1.0, 0.0, 1.0): Fraction(1, 3),
        (0.0, 1.0, 1.0): Fraction(3, 4),
        (0.0, 0.0, 0.0): Fraction(1, 2),
    }
    if per_cell(first) != want_first:
        failures.append(f"first score {per_cell(first)} != {want_first}")
    if per_cell(second) != want_second:
        failures.append(f"second score {per_cell(second)} != {want_second}")
    if per_cell(chained) != want_chained:
        failures.append(f"chained score {per_cell(chained)} != {want_chained}")
    if assignment.num_subclasses != 4:
        failures.append(f"{assignment.num_subclasses} subclasses, want 4")
    for row in balance.subclass_rows or ():
        if row.difference_exact != (Fraction(0),) * 3:
            failures.append(f"subclass {row.subclass_id} not exactly balanced")
    if balance.after_exact != (Fraction(0),) * 3:
        failures.append(f"after-balance {balance.after_exact} not exactly zero")
    if np.abs(balance.after).max() > 1e-12:
        failures.append("float view of after-balance exceeds 1e-12")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s not under 1s")
    _criterion("worked example reproduced exactly (under 1s)", failures)


def test_02_single_score_counterexample():
    failures = []
    dataset = worked_example_dataset()
    counter = chained_propensity(
        dataset, [SECOND_CONTRAST], FIRST_CONTRAST, estimator="empirical"
    )
    d = assignment_indicators(FIRST_CONTRAST, dataset.treatments)
    assignment = subclassify(counter, d, method="exact")
    balance = covariate_mean_difference(dataset, FIRST_CONTRAST, assignment)
    rows = [
        r
        for r in balance.subclass_rows
        if {counter.values[i] for i in np.flatnonzero(assignment.labels == r.subclass_id)}
        == {Fraction(1, 2)}
    ]
    if len(rows) != 1:
        failures.append(f"expected one subclass at score 1/2, found {len(rows)}")
    else:
        row = rows[0]
        if row.mean_positive_exact != (Fraction(1, 3),) * 3:
            failures.append(f"positive means {row.mean_positive_exact} != (1/3, 1/3, 1/3)")
        if row.mean_negative_exact != (Fraction(2, 3),) * 3:
            failures.append(f"negative means {row.mean_negative_exact} != (2/3, 2/3, 2/3)")
    _criterion("single-score counterexample means are exact", failures)


def test_03_randomized_experiment_balance(experiment_i):
    failures = []
    result, elapsed = experiment_i
    if result.errors:
        failures.append(f"{len(result.errors)} replications excluded")
    worst_before = float(np.abs(result.mean_before).max())
    worst_after = float(np.abs(result.mean_after).max())
    if worst_before > 0.03:
        failures.append(f"max |before| = {worst_before:.4f} exceeds 0.03")
    if worst_after > 0.02:
        failures.append(f"max |after| = {worst_after:.4f} exceeds 0.02")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s not under 1 minute")
    _criterion(
        "randomized mechanism: before within 0.03, after within 0.02", failures
    )


def test_04_covariate_driven_after_balance(experiment_ii):
    failures = []
    worst = float(np.abs(experiment_ii.mean_after).max())
    if worst >= 0.1:
        failures.append(f"max |after| = {worst:.4f} not below 0.1")
    _criterion("covariate-driven mechanism: after-balance below 0.1", failures)


# frozen reference rows for the covariate-driven mechanism's pooled
# before-balance differences; the 1-vs-3 row is validated through the
# telescoping identity and the covariate-swap symmetry instead
REFERENCE_BEFORE = {
    "both-vs-3": (0.11, -0.79, -0.21),
    "1-vs-2": (-0.46, -0.23, -0.46),
    "2-vs-3": (0.57, -0.54, 0.24),
}


def test_05_covariate_driven_before_balance_reference(experiment_ii):
    failures = []
    cfg = experiment_ii.config
    rows = oracle_group_means(cfg, oracle_n=1_000_000)
    by_label = {t.describe(): rows[j] for j, t in enumerate(cfg.targets)}

    # 1-vs-3 validation (telescoping identity, exact per replication)
    for r in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dataset = sample_dataset(cfg, r)
        report = run_algorithm(dataset, cfg.balancing, cfg.targets, cfg.algorithm)
        one_two = report.entries[1].before_exact
        one_three = report.entries[2].before_exact
        two_three = report.entries[3].before_exact
        for k in range(3):
            if one_three[k] != one_two[k] + two_three[k]:
                failures.append(
                    f"replication {r}: telescoping identity broken at covariate {k + 1}"
                )
    # 1-vs-3 validation (covariate-swap symmetry of the mechanism, oracle)
    one_two, one_three = by_label["1-vs-2"], by_label["1-vs-3"]
    swapped = np.array([one_two[1], one_two[0], one_two[2]])
    if np.abs(one_three - swapped).max() > 0.02:
        failures.append(
            f"covariate-swap symmetry violated: 1-vs-3 {np.round(one_three, 3)} "
            f"vs swapped 1-vs-2 {np.round(swapped, 3)}"
        )

    # reference-row comparison at +-0.03 componentwise
    for label, want in REFERENCE_BEFORE.items():
        got = by_label[label]
        for k, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > 0.03:
                failures.append(
                    f"{label} covariate {k + 1}: oracle {g:.3f} vs reference "
                    f"{w:.2f} (off by {abs(g - w):.3f})"
                )
    _criterion(
        "covariate-driven mechanism reproduces the frozen before-balance rows",
        failures,
    )


def test_06_numerical_optimization_suite():
    failures = []

    # converged fits drive the gradient norm below 1e-8
    x8 = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    y8 = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    model = fit_binary_logistic(x8, y8)
    if not (model.converged and model.final_gradient_norm < 1e-8):
        failures.append("8-point fit did not converge below 1e-8")
    draw = sample_dataset(mechanism_ii(num_units=2_000, seed=8), 0)
    binary = fit_binary_logistic(draw.covariates, draw.treatments == 3)
    if not (binary.converged and binary.final_gradient_norm < 1e-8):
        failures.append("binary fit on a simulated draw did not converge below 1e-8")

    # independent fixed-step gradient-ascent oracle
    design = np.column_stack([np.ones(8), x8])
    lipschitz = np.linalg.eigvalsh(design.T @ design / 4.0).max()
    w = np.zeros(2)
    for _ in range(1_000_000):
        p = 1.0 / (1.0 + np.exp(-(design @ w)))
        g = design.T @ (y8 - p)
        if np.linalg.norm(g) < 1e-13:
            break
        w = w + g / lipschitz
    if np.abs(model.coefficients - w).max() > 1e-6:
        failures.append(
            f"Newton {model.coefficients} vs gradient-ascent oracle {w} differ "
            "beyond 1e-6"
        )

    # analytic gradient against central finite differences (step 1e-6)
    X8, pen = _design(x8[:, None]), np.zeros(2)
    for point in (np.array([0.25, -0.5]), model.coefficients):
        z = _penalised_ll(X8, y8, point, pen)[1]
        analytic = _penalised_gradient(X8, y8, point, z, pen)[0]
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd = (
                _penalised_ll(X8, y8, point + e, pen)[0]
                - _penalised_ll(X8, y8, point - e, pen)[0]
            ) / 2e-6
            if abs(analytic[j] - fd) > 1e-4:
                failures.append(f"gradient component {j} off by {abs(analytic[j] - fd)}")

    # saturated logistic model reproduces the exact cell frequencies
    dataset = worked_example_dataset()
    for contrast in (FIRST_CONTRAST, SECOND_CONTRAST):
        fitted = model_csps(dataset, contrast)
        exact = empirical_csps(dataset, contrast)
        gap = np.abs(fitted.as_floats() - exact.as_floats()).max()
        if gap > 1e-6:
            failures.append(
                f"saturated fit for {contrast.describe()} off by {gap:.2e}"
            )
    _criterion("numerical optimization suite", failures)


def test_07_property_suites():
    failures = []
    rng = np.random.default_rng(20260809)

    # stratification on the true score balances covariates (tol 0.02, N=50000)
    cells = {
        (0.0, 0.0): (0.2, 0.2, 0.6),
        (1.0, 1.0): (0.3, 0.3, 0.4),
        (1.0, 0.0): (0.4, 0.2, 0.4),
        (0.0, 1.0): (0.1, 0.3, 0.6),
    }
    contrast = Contrast((1, -1, 0))
    rows, labels = [], []
    for cell, probs in cells.items():
        rows += [cell] * 12_500
        labels += list(rng.choice([1, 2, 3], size=12_500, p=probs))
    dataset = Dataset(rows, labels, num_treatments=3)
    index = dataset.cell_index
    true_cell_scores = [
        Fraction(str(cells[key][0])) / (Fraction(str(cells[key][0])) + Fraction(str(cells[key][1])))
        for key in map(tuple, index.rows.tolist())
    ]
    true_scores = ScoreVector.from_ratios(
        [v.numerator for v in true_cell_scores],
        [v.denominator for v in true_cell_scores],
        index=index.cell_of_unit,
    )
    d = assignment_indicators(contrast, dataset.treatments)
    assignment = subclassify(true_scores, d, method="exact")
    balance = covariate_mean_difference(dataset, contrast, assignment)
    for row in balance.subclass_rows:
        if np.abs(row.difference).max() >= 0.02:
            failures.append(
                f"stratum {row.subclass_id} difference "
                f"{np.round(row.difference, 4)} exceeds 0.02"
            )

    # two independent bifurcations span every 3-treatment sign vector
    basis = [
        sgn_bifurcate(Contrast(("1/2", "1/2", "-1"))),
        sgn_bifurcate(Contrast((1, -1, 0))),
    ]
    for _ in range(200):
        raw = rng.normal(size=3)
        vals = raw - raw.mean()
        if not ((vals > 0).any() and (vals < 0).any()):
            continue
        if not bifurcation_span_contains(basis, sgn_bifurcate(Contrast(vals))):
            failures.append(f"span membership failed for {vals}")
            break

    # linearity identity, exact, on freshly generated datasets
    for draw in range(3):
        data = sample_dataset(mechanism_ii(num_units=120, seed=50 + draw), 0)
        d12 = covariate_mean_difference(data, Contrast((1, -1, 0))).before_exact
        d23 = covariate_mean_difference(data, Contrast((0, 1, -1))).before_exact
        d13 = covariate_mean_difference(data, Contrast((1, 0, -1))).before_exact
        if any(d13[k] != d12[k] + d23[k] for k in range(3)):
            failures.append(f"linearity identity broken on draw {draw}")

    # determinism: bit-identical reruns
    cfg = mechanism_ii(num_units=200, replications=5, seed=77)
    a, b = run_experiment(cfg), run_experiment(cfg)
    if not (
        np.array_equal(a.before, b.before, equal_nan=True)
        and np.array_equal(a.after, b.after, equal_nan=True)
    ):
        failures.append("experiment reruns are not bit-identical")
    if not np.array_equal(
        oracle_group_means(cfg, oracle_n=20_000), oracle_group_means(cfg, oracle_n=20_000)
    ):
        failures.append("oracle reruns are not bit-identical")

    # permutation invariance of every report number
    example = worked_example_dataset()
    config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
    targets = [TARGET_CONTRAST, FIRST_CONTRAST, SECOND_CONTRAST]
    base = run_algorithm(example, [FIRST_CONTRAST, SECOND_CONTRAST], targets, config)
    perm = rng.permutation(example.n_units)
    shuffled = Dataset(
        example.covariates[perm], example.treatments[perm], num_treatments=3
    )
    other = run_algorithm(shuffled, [FIRST_CONTRAST, SECOND_CONTRAST], targets, config)
    for ea, eb in zip(base.entries, other.entries):
        same = (
            ea.before_exact == eb.before_exact
            and ea.after_exact == eb.after_exact
            and len(ea.subclass_rows) == len(eb.subclass_rows)
            and all(
                ra.difference_exact == rb.difference_exact
                and ra.weight == rb.weight
                and (ra.n_positive, ra.n_negative) == (rb.n_positive, rb.n_negative)
                for ra, rb in zip(ea.subclass_rows, eb.subclass_rows)
            )
        )
        if not same:
            failures.append(
                f"report for {ea.contrast.describe()} changed under permutation"
            )
    _criterion("property suites", failures)
