import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import csps.estimation
from csps.balancing import AlgorithmConfig, run_algorithm
from csps.contrasts import Contrast
from csps.data import Dataset, build_cell_index
from csps.errors import (
    CspsError,
    DimensionMismatch,
    InvalidArgument,
    MissingValue,
    NotConverged,
    OneClassOnly,
    SeparationDetected,
    SingularHessian,
    TooFewUnits,
)
from csps.estimation import (
    ScoreVector,
    _acceptance_slack,
    _design,
    _penalised_gradient,
    _penalised_ll,
    _penalty,
    empirical_csps,
    fit_binary_logistic,
    model_csps,
)
from csps.example_data import FIRST_CONTRAST, SECOND_CONTRAST
from csps.simulation import SimulationConfig, mechanism_ii, run_experiment, sample_dataset

# ---------------------------------------------------------------------------
# fixed 8-point single-feature fitting problem with overlapping classes

POINTS_X = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
POINTS_Y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])

# maximiser found by the plain gradient-ascent oracle below (gradient norm
# driven under 1e-13); frozen so any drift in either route is caught
ORACLE_INTERCEPT = -0.1771076215281622
ORACLE_SLOPE = 0.84816504460281017


def points_dataset():
    """POINTS_X as one covariate; label 1 is treatment 1, label 0 treatment 2."""
    return Dataset(POINTS_X[:, None], np.where(POINTS_Y == 1, 1, 2))


def per_cell(dataset, scores):
    """The score of each covariate cell, keyed by the cell's row as a tuple."""
    cells = build_cell_index(dataset)
    return {
        tuple(row): scores.values[np.flatnonzero(cells.cell_of_unit == c)[0]]
        for c, row in enumerate(cells.rows.tolist())
    }


def gradient_ascent_oracle(x, y, grad_tol=1e-13, max_steps=2_000_000):
    """Fixed-step gradient ascent; independent of the Newton code path."""
    design = np.column_stack([np.ones(len(x)), x])
    lipschitz = np.linalg.eigvalsh(design.T @ design / 4.0).max()
    step = 1.0 / lipschitz
    w = np.zeros(2)
    for _ in range(max_steps):
        p = 1.0 / (1.0 + np.exp(-(design @ w)))
        g = design.T @ (y - p)
        if np.linalg.norm(g) < grad_tol:
            break
        w = w + step * g
    return w


def fit_digest(fits) -> str:
    """sha256 of each fit's coefficient bytes, iterations, convergence and gradient norm."""
    digest = hashlib.sha256()
    for model in fits:
        digest.update(model.coefficients.tobytes())
        digest.update(
            f"{model.iterations} {model.converged} {model.final_gradient_norm!r};".encode()
        )
    return digest.hexdigest()


def halving_problem(seed):
    """20-199 rows of two normal features, labels from slopes of scale about 4."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    X = rng.normal(size=(n, 2))
    slopes = rng.normal(scale=4.0, size=2)
    return X, rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ slopes)))


def overshoot_problem(seed):
    """20-199 rows of two normal features scaled by log-normal factors, so a
    few rows have large leverage, and labels from slopes of scale about 3."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    X = rng.normal(size=(n, 2)) * np.exp(3.0 * rng.normal(size=(n, 2)))
    slopes = rng.normal(scale=3.0, size=2)
    z = np.clip(X @ slopes, -30.0, 30.0)
    return X, rng.random(n) < 1.0 / (1.0 + np.exp(-z))


# (seed, ridge) of overshoot_problem fits whose full Newton steps lose
# log-likelihood well beyond rounding, so they halve them.  halving_problem's
# fits halved only on rounding, which the step acceptance now allows for.
HALVING_FITS = [
    (75, 0.0), (328, 0.0), (174, 1e-3), (391, 1e-3), (75, 1e-2), (265, 1e-2), (328, 1e-2),
]
# the same as under the step acceptance that allowed for the rounding of
# the total log-likelihood alone: these fits take the same steps under both
HALVING_FITS_ENDS = [
    (12, True), (18, True), (19, True), (17, True), (12, True), (14, True), (17, True),
]
HALVING_FITS_DIGEST = "8c167db7ba288b31014ed1ae72eeecdd6df6f2d52123f1b8e500d152e9f8a746"
# the fits of mechanism II's replications 0-9 with AlgorithmConfig(ridge=1e-4)
RIDGE_FITS_DIGEST = "8fa4d2fd78dfacf45c243529532278378dd12d189f10d669947ee9d79b6a3de4"


class TestBinaryFit:
    def test_intercept_only_logit_of_mean(self):
        model = fit_binary_logistic(np.empty((4, 0)), [1, 1, 1, 0])
        assert model.converged
        assert model.coefficients[0] == pytest.approx(math.log(3.0), abs=1e-9)

    def test_matches_gradient_ascent_oracle(self):
        oracle = gradient_ascent_oracle(POINTS_X, POINTS_Y)
        assert oracle[0] == pytest.approx(ORACLE_INTERCEPT, abs=1e-9)
        assert oracle[1] == pytest.approx(ORACLE_SLOPE, abs=1e-9)
        model = fit_binary_logistic(POINTS_X, POINTS_Y)
        assert model.converged
        assert np.allclose(model.coefficients, oracle, atol=1e-6)

    def test_one_class_only(self):
        with pytest.raises(OneClassOnly):
            fit_binary_logistic(POINTS_X, np.ones(8))

    def test_converged_gradient_norm_below_tol(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.random(200) < 0.5
        model = fit_binary_logistic(X, y)
        assert model.converged
        assert model.final_gradient_norm < 1e-8

    def test_log_likelihood_nondecreasing(self, rng, monkeypatch):
        X = rng.normal(size=(150, 2))
        z = X @ np.array([1.5, -2.0])
        y = (rng.random(150) < 1.0 / (1.0 + np.exp(-z))).astype(float)
        # rows in the fit's canonical order, so the objective sums as the fit does
        order = np.lexsort([y, X[:, 1], X[:, 0]])
        X, y = X[order], y[order]
        n = fit_binary_logistic(X, y).iterations
        path = []
        for k in range(n + 1):
            monkeypatch.setattr(csps.estimation, "MAX_ITER", k)
            w = fit_binary_logistic(X, y).coefficients
            path.append(_penalised_ll(_design(X), y, w, np.zeros(3))[0])
        # non-decreasing up to the fit's step acceptance slack
        assert n >= 3
        assert all(b >= a - _acceptance_slack(a) for a, b in zip(path, path[1:]))

    def test_separation_detected(self, rng):
        x = np.concatenate([rng.uniform(0.1, 2.0, 40), rng.uniform(-2.0, -0.1, 40)])
        y = x > 0
        with pytest.raises(SeparationDetected):
            fit_binary_logistic(x, y)

    def test_ridge_rescues_separation(self, rng):
        x = np.concatenate([rng.uniform(0.1, 2.0, 40), rng.uniform(-2.0, -0.1, 40)])
        model = fit_binary_logistic(x, x > 0, ridge=1e-4)
        assert model.converged

    def test_gradient_matches_finite_differences(self):
        # generic point and the fitted optimum, central differences, step 1e-6
        model = fit_binary_logistic(POINTS_X, POINTS_Y)
        X, pen = _design(POINTS_X[:, None]), np.zeros(2)
        for w in (np.array([0.3, -0.7]), model.coefficients):
            z = _penalised_ll(X, POINTS_Y, w, pen)[1]
            analytic = _penalised_gradient(X, POINTS_Y, w, z, pen)[0]
            for j in range(2):
                e = np.zeros(2)
                e[j] = 1e-6
                fd = (
                    _penalised_ll(X, POINTS_Y, w + e, pen)[0]
                    - _penalised_ll(X, POINTS_Y, w - e, pen)[0]
                ) / 2e-6
                assert analytic[j] == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_fit_maximises_its_penalised_objective(self, ridge):
        # every nearby point scores lower on the objective the fit states,
        # and the reported gradient norm is that objective's at the optimum
        model = fit_binary_logistic(POINTS_X, POINTS_Y, ridge=ridge)
        X, pen, w = _design(POINTS_X[:, None]), _penalty(ridge, 2), model.coefficients
        best, z = _penalised_ll(X, POINTS_Y, w, pen)
        for step in ([1e-3, 0.0], [0.0, 1e-3], [1e-3, 1e-3], [1e-3, -1e-3]):
            for sign in (1.0, -1.0):
                assert _penalised_ll(X, POINTS_Y, w + sign * np.array(step), pen)[0] < best
        g = _penalised_gradient(X, POINTS_Y, w, z, pen)[0]
        assert model.final_gradient_norm == math.sqrt(g.dot(g))

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    @pytest.mark.parametrize("tied", [False, True])
    def test_fit_reports_its_kernels(self, rng, ridge, tied):
        # the fit computes each accepted point's gradient from the product
        # X @ w of its log-likelihood; on rows already in the fit's canonical
        # order the fit keeps them as they stand, and the kernels must give
        # its gradient norm bit for bit, whether the first feature ascends
        # strictly (no ties) or only the rows do (ties)
        X = rng.normal(size=(300, 3))
        if tied:
            X[:, 0] = rng.integers(-2, 3, 300)
        y = (rng.random(300) < 1.0 / (1.0 + np.exp(-(X @ [1.0, -0.5, 0.25])))).astype(float)
        order = np.lexsort([y, X[:, 2], X[:, 1], X[:, 0]])
        X, y = X[order], y[order]
        model = fit_binary_logistic(X, y, ridge=ridge)
        assert model.converged and model.iterations >= 3
        design, pen = _design(X), _penalty(ridge, 4)
        z = _penalised_ll(design, y, model.coefficients, pen)[1]
        g = _penalised_gradient(design, y, model.coefficients, z, pen)[0]
        assert model.final_gradient_norm == math.sqrt(g.dot(g))

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -np.inf, -1e-3])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            fit_binary_logistic(POINTS_X, POINTS_Y, ridge=ridge)
        with pytest.raises(ValueError, match="ridge"):
            model_csps(points_dataset(), Contrast((1, -1)), ridge=ridge)

    @pytest.mark.parametrize("ridge", [True, False, np.True_, "1", None, 1j])
    def test_ridge_must_be_a_real_number(self, ridge):
        # a bool is not a penalty, and a str fails the same check, not numpy's
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            fit_binary_logistic(POINTS_X, POINTS_Y, ridge=ridge)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_a_missing_value(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MissingValue, match="NaN or infinite"):
                fit_binary_logistic([[bad], [1.0]], [0, 1])
            X = np.column_stack([np.arange(6.0), np.arange(6.0) ** 2])
            X[3, 1] = bad
            with pytest.raises(MissingValue, match="NaN or infinite"):
                fit_binary_logistic(X, [0, 1, 0, 1, 1, 0], ridge=0.5)

    @pytest.mark.parametrize("labels", [[0, 7], [0.0, 0.5], [0.0, np.nan], [-1, 1]])
    def test_fit_refuses_labels_that_are_not_binary(self, labels):
        with pytest.raises(ValueError, match="labels must be boolean or 0/1"):
            fit_binary_logistic([[0.0], [1.0], [2.0]], [*labels, 1])

    def test_fit_takes_bool_labels(self):
        as_floats = fit_binary_logistic(POINTS_X, POINTS_Y).coefficients
        as_bools = fit_binary_logistic(POINTS_X, POINTS_Y == 1).coefficients
        assert as_bools.tobytes() == as_floats.tobytes()

    def test_permutation_invariant(self, rng):
        X = rng.normal(size=(120, 2))
        y = rng.random(120) < 0.4
        base = fit_binary_logistic(X, y)
        perm = rng.permutation(120)
        shuffled = fit_binary_logistic(X[perm], y[perm])
        assert np.array_equal(base.coefficients, shuffled.coefficients)

    @pytest.mark.parametrize("magnitude", [1e160, 1.7976931348623157e308])
    def test_design_beyond_float64_fails_typed(self, magnitude):
        # the Hessian's or the gradient's products overflow float64; that
        # fails the fit without a numpy warning
        X = np.array([[1.0], [-1.0], [1.0], [0.0], [-1.0], [0.5]]) * magnitude
        y = np.array([1, 0, 0, 1, 1, 0])
        with pytest.raises(SingularHessian, match="beyond float64"):
            fit_binary_logistic(X, y)

    def test_bare_solve_equals_numpy_solve(self, rng):
        # the fit calls np.linalg.solve's gufunc without its wrapper
        from numpy.linalg import _umath_linalg

        for size in (2, 3, 4, 5) * 50:
            A = rng.normal(size=(size, size))
            H = A @ A.T + size * np.eye(size)
            g = rng.normal(size=size)
            bare = _umath_linalg.solve1(H, g, signature="dd->d")
            assert bare.tobytes() == np.linalg.solve(H, g).tobytes()

    def test_singular_newton_system_fails_typed(self):
        # a constant column repeats the intercept: with ridge 0 the Newton
        # matrix is exactly singular, which fails without a numpy warning
        X = np.column_stack([np.arange(6.0), np.full(6, 2.0)])
        y = np.array([0, 1, 0, 1, 1, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularHessian, match="Newton system is singular"):
                fit_binary_logistic(X, y, ridge=0.0)

    def test_recovers_assignment_coefficients(self):
        # under the multinomial-logit mechanism the score of the 1-vs-2
        # bifurcation is a logistic in the coefficient difference of
        # treatments 2 and 1: slopes (0.75, 0.25, 0.5), intercept 0
        cfg = mechanism_ii(num_units=100_000, replications=1, seed=11)
        dataset = sample_dataset(cfg, 0)
        pair = dataset.treatments != 3
        model = fit_binary_logistic(
            dataset.covariates[pair], dataset.treatments[pair] == 2
        )
        assert model.converged
        assert abs(model.coefficients[0]) < 0.05
        assert np.allclose(model.coefficients[1:], [0.75, 0.25, 0.5], atol=0.05)

    def test_mechanism_ii_fits_are_unchanged(self, monkeypatch):
        # every Newton fit of mechanism II's replications 0-9 (2 balancing
        # and 4 chained fits each) keeps its coefficient bits and iteration
        # count: the log-likelihood's summation changes only its last bits,
        # far inside the step acceptance slack (the digest was recorded
        # when the kernel summed np.logaddexp)
        fits = []
        real = csps.estimation.fit_binary_logistic

        def recorded(*args, **kwargs):
            model = real(*args, **kwargs)
            fits.append(model)
            return model

        monkeypatch.setattr(csps.estimation, "fit_binary_logistic", recorded)
        run_experiment(mechanism_ii(replications=10))
        digest = hashlib.sha256()
        for model in fits:
            digest.update(model.coefficients.tobytes())
            digest.update(str(model.iterations).encode())
        assert (len(fits), sum(m.iterations for m in fits)) == (60, 266)
        assert digest.hexdigest() == (
            "08b7534fa3384cc853e49e0593339923a0d936e4e59742574940c31241d1074b"
        )

    def test_mechanism_ii_ridge_fits_are_unchanged(self, monkeypatch):
        # the same fits with a ridge, so the penalty terms the loop skips at
        # ridge 0 are pinned too
        fits = []
        real = csps.estimation.fit_binary_logistic

        def recorded(*args, **kwargs):
            model = real(*args, **kwargs)
            fits.append(model)
            return model

        monkeypatch.setattr(csps.estimation, "fit_binary_logistic", recorded)
        run_experiment(mechanism_ii(replications=10, algorithm=AlgorithmConfig(ridge=1e-4)))
        assert len(fits) == 60
        assert fit_digest(fits) == RIDGE_FITS_DIGEST

    def test_halving_fits_are_unchanged(self, monkeypatch):
        # fits that reject trial steps and halve them; the log-likelihood is
        # evaluated once more than the iterations, plus once per halving
        evaluations = []
        real = csps.estimation._penalised_ll

        def counted(*args, **kwargs):
            evaluations.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(csps.estimation, "_penalised_ll", counted)
        fits, halvings = [], []
        for seed, ridge in HALVING_FITS:
            evaluations.clear()
            fits.append(fit_binary_logistic(*overshoot_problem(seed), ridge=ridge))
            halvings.append(len(evaluations) - 1 - fits[-1].iterations)
        assert min(halvings) > 0
        assert [(m.iterations, m.converged) for m in fits] == HALVING_FITS_ENDS
        assert fit_digest(fits) == HALVING_FITS_DIGEST

    @pytest.mark.parametrize("problem", [halving_problem, overshoot_problem])
    @pytest.mark.parametrize("ridge", [1e-3, 1e-2])
    def test_fits_converged_in_all_but_rounding_converge(self, problem, ridge):
        # near the optimum a full Newton step gains less than the rounding of
        # the log-likelihood's two sums, far larger than the log-likelihood
        # itself.  Judged against the total alone, such steps were halved
        # until MAX_ITER: halving_problem's seeds 108 and 225 at ridge 1e-3
        # and 10 and 218 at 1e-2; and overshoot_problem's fits stalled so in
        # 66 of these 800 and raised SingularHessian, their halvings
        # exhausted, in 26
        for seed in range(400):
            model = fit_binary_logistic(*problem(seed), ridge=ridge)
            assert model.converged, (seed, model.iterations, model.final_gradient_norm)

    def test_fit_peak_memory_per_row(self):
        # the loop holds the design, the labels and two vectors of the rows,
        # and builds the weighted design once per iteration without keeping it
        n = 80_000
        rng = np.random.default_rng(3)
        X = rng.normal(size=(n, 3))
        y = rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ [0.5, -0.25, 1.0])))
        tracemalloc.start()
        try:
            model = fit_binary_logistic(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.converged
        assert peak / n <= 92


class TestPredictBinary:
    # predictions of a fitted model, as model_csps makes them for every unit

    def test_zero_coefficients_give_half(self, monkeypatch):
        monkeypatch.setattr(csps.estimation, "MAX_ITER", 0)
        model = fit_binary_logistic(POINTS_X, POINTS_Y)
        assert model.iterations == 0 and not model.converged
        assert model.coefficients.tolist() == [0.0, 0.0]
        with pytest.raises(NotConverged):
            model_csps(points_dataset(), Contrast((1, -1)))

    def test_intercept_log3(self):
        # the same 3:1 split at both covariate values: slope 0, p = 3/4
        x = np.array([[-1.0], [1.0]] * 4)
        treatments = [1, 1, 1, 1, 1, 1, 2, 2]
        scores = model_csps(Dataset(x, treatments), Contrast((1, -1))).as_floats()
        assert np.allclose(scores, 0.75, rtol=0, atol=1e-9)

    def test_matches_oracle_predictions(self):
        oracle = gradient_ascent_oracle(POINTS_X, POINTS_Y)
        want = 1.0 / (1.0 + np.exp(-(oracle[0] + oracle[1] * POINTS_X)))
        got = model_csps(points_dataset(), Contrast((1, -1))).as_floats()
        assert np.allclose(got, want, rtol=0, atol=1e-6)

    def test_saturated_prediction_is_the_limit_without_a_warning(self):
        # a unit outside the bifurcation so far out that its linear predictor
        # overflows float64 scores the limit, 0 or 1, without numpy's
        # overflow warning; every other unit keeps its score (the digest was
        # recorded when the prediction still warned)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 2))
        logit = 2.0 * X[:, 0] - 2.0 * X[:, 1]
        w = np.where(rng.random(200) < 1.0 / (1.0 + np.exp(-logit)), 1, 2)
        dataset = Dataset(np.vstack([X, [1e308, 1e308]]), np.append(w, 3))
        contrast = Contrast((1, -1, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = model_csps(dataset, contrast).as_floats()
            report = run_algorithm(dataset, [contrast], [contrast])
        assert scores[-1] in (0.0, 1.0)
        assert hashlib.sha256(scores[:-1].tobytes()).hexdigest() == (
            "2ecb9b3e729ee1a6a1a26a82453f7ad032c587ff93819f7df48345baa64ec66b"
        )
        assert [entry.error for entry in report] == [None]


class TestEmpiricalScores:
    def test_worked_example_first_contrast(self, example):
        scores = empirical_csps(example, FIRST_CONTRAST)
        assert per_cell(example, scores) == {
            (1.0, 1.0, 1.0): Fraction(1, 3),
            (1.0, 0.0, 1.0): Fraction(2, 3),
            (0.0, 1.0, 1.0): Fraction(5, 6),
            (0.0, 0.0, 0.0): Fraction(2, 3),
        }
        assert {type(v) for v in scores.values} == {Fraction}
        assert scores.undefined_units.size == 0

    def test_worked_example_second_contrast(self, example):
        scores = empirical_csps(example, SECOND_CONTRAST)
        assert per_cell(example, scores) == {
            (1.0, 1.0, 1.0): Fraction(1, 2),
            (1.0, 0.0, 1.0): Fraction(3, 4),
            (0.0, 1.0, 1.0): Fraction(2, 5),
            (0.0, 0.0, 0.0): Fraction(1, 2),
        }

    def test_cell_without_group_members_is_masked(self):
        # second cell holds only the zero-coefficient treatment
        d = Dataset([[0.0], [0.0], [1.0], [1.0]], [1, 2, 3, 3])
        scores = empirical_csps(d, Contrast((1, -1, 0)))
        assert scores.undefined_units.tolist() == [2, 3]
        assert scores.values[2] is None

    def test_dataset_without_units_raises(self):
        # the same refusal as run_algorithm's, not a bare ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # absent treatments only warn
            d = Dataset(np.empty((0, 1)), np.empty(0, dtype=int), num_treatments=2)
        with pytest.raises(TooFewUnits, match="^the dataset has no units$"):
            empirical_csps(d, Contrast((1, -1)))

    def test_unit_permutation_invariance(self, example, rng):
        base = empirical_csps(example, FIRST_CONTRAST)
        perm = rng.permutation(example.n_units)
        shuffled_data = Dataset(
            example.covariates[perm], example.treatments[perm], num_treatments=3
        )
        shuffled = empirical_csps(shuffled_data, FIRST_CONTRAST)
        for i, j in enumerate(perm):
            assert shuffled.values[i] == base.values[j]


class TestModelScores:
    def test_saturated_indicators_reproduce_cell_frequencies(self, example):
        index = build_cell_index(example)
        dummies = np.zeros((example.n_units, index.num_cells - 1))
        for c in range(1, index.num_cells):
            dummies[index.cell_of_unit == c, c - 1] = 1.0
        saturated = Dataset(dummies, example.treatments, num_treatments=3)
        for contrast in (FIRST_CONTRAST, SECOND_CONTRAST):
            fitted = model_csps(saturated, contrast)
            exact = empirical_csps(example, contrast)
            assert fitted.undefined_units.size == 0
            assert np.allclose(
                fitted.as_floats(), exact.as_floats(), atol=1e-6
            )

    def test_randomized_assignment_gives_flat_scores(self):
        cfg = SimulationConfig(coefficients=((0, 0, 0),) * 3, num_units=20_000, seed=3)
        dataset = sample_dataset(cfg, 0)
        contrast = Contrast((1, -1, 0))
        scores = model_csps(dataset, contrast)
        d = np.array(
            [1 if w == 1 else (-1 if w == 2 else 0) for w in dataset.treatments]
        )
        frequency = (d == 1).sum() / (d != 0).sum()
        values = scores.as_floats()
        assert np.abs(values - frequency).max() < 0.05

    def test_unconverged_fit_raises(self, monkeypatch):
        dataset = sample_dataset(mechanism_ii(num_units=300, seed=2), 0)
        monkeypatch.setattr(csps.estimation, "MAX_ITER", 1)
        with pytest.raises(NotConverged, match="after 1 iterations"):
            model_csps(dataset, Contrast((1, -1, 0)))
        monkeypatch.setattr(csps.estimation, "MAX_ITER", 25)
        assert model_csps(dataset, Contrast((1, -1, 0))).undefined_units.size == 0

    def test_contrast_width_must_match(self, example):
        for contrast in (Contrast((1, -1)), Contrast((1, -1, 0, 0))):
            with pytest.raises(DimensionMismatch, match="dataset has 3"):
                model_csps(example, contrast)
            with pytest.raises(DimensionMismatch, match="dataset has 3"):
                empirical_csps(example, contrast)

    def test_separation_propagates(self, rng):
        x = np.concatenate([rng.uniform(0.5, 2.0, 30), rng.uniform(-2.0, -0.5, 30)])
        w = np.where(x > 0, 1, 2)
        dataset = Dataset(x[:, None], w, num_treatments=2)
        with pytest.raises(SeparationDetected):
            model_csps(dataset, Contrast((1, -1)))


class TestScoreFromProbabilities:
    @pytest.mark.parametrize("coefficients, score", [
        ((1, "-1/2", "-1/2"), Fraction(1, 5)),
        ((1, -1, 0), Fraction(2, 5)),
        ((0, 1, -1), Fraction(3, 8)),
        (("1/2", "1/2", -1), Fraction(1, 2)),
        ((-1, 1, 0), Fraction(3, 5)),
        ((1, 0, -1), Fraction(2, 7)),
    ], ids=["first treatment", "restrict and renormalise", "last two", "pooled pair",
            "reversed", "skip the middle"])
    def test_score_is_the_mass_on_the_positive_group(self, coefficients, score):
        # one cell holding treatments 1, 2, 3 in the ratio 2 : 3 : 5; units
        # of a zero-coefficient treatment count in neither group
        d = Dataset([[0.0]] * 10, [1, 1, 2, 2, 2, 3, 3, 3, 3, 3], num_treatments=3)
        scores = empirical_csps(d, Contrast(coefficients))
        assert set(scores.values) == {score}

    def test_opposite_contrasts_give_complementary_scores(self, example):
        # negating a contrast swaps its groups: the scores sum to 1 exactly
        for contrast in (FIRST_CONTRAST, SECOND_CONTRAST, Contrast((0, 1, -1))):
            flipped = Contrast([-v for v in contrast.coefficients])
            here = empirical_csps(example, contrast).values
            there = empirical_csps(example, flipped).values
            assert all(a + b == 1 for a, b in zip(here, there))

    @pytest.mark.parametrize("estimator", [empirical_csps, model_csps])
    def test_scores_do_not_depend_on_the_contrast_scale(self, example, estimator):
        # a score is that of the contrast's bifurcation, so a positive
        # multiple of the contrast gives the same scores, bit for bit
        for contrast in (FIRST_CONTRAST, SECOND_CONTRAST):
            scaled = Contrast([7 * v for v in contrast.coefficients])
            assert estimator(example, scaled).values == estimator(example, contrast).values

    def test_agrees_with_empirical_scores_in_expectation(self):
        # three covariate cells with fixed assignment probabilities; sampled
        # cell frequencies must approach the true score, the mass on the
        # positive group over the mass on both groups
        rng = np.random.default_rng(99)
        cell_probs = {
            (0.0, 0.0): (0.2, 0.3, 0.5),
            (1.0, 0.0): (0.5, 0.25, 0.25),
            (0.0, 1.0): (1 / 3, 1 / 3, 1 / 3),
        }
        contrast = Contrast((1, -1, 0))
        n_per_cell = 100_000
        rows, labels = [], []
        for cell, probs in cell_probs.items():
            rows += [cell] * n_per_cell
            labels += list(rng.choice([1, 2, 3], size=n_per_cell, p=probs))
        dataset = Dataset(rows, labels, num_treatments=3)
        scores = empirical_csps(dataset, contrast)
        for key, got in per_cell(dataset, scores).items():
            p1, p2, _ = cell_probs[key]
            assert float(got) == pytest.approx(p1 / (p1 + p2), abs=0.01)


class TestScoreVector:
    def test_range_checked(self):
        with pytest.raises(ValueError, match="score 1.5 of unit 0"):
            ScoreVector.from_floats([1.5, 0.5])
        with pytest.raises(ValueError):
            ScoreVector.from_floats([0.5, np.nan])
        with pytest.raises(ValueError):
            ScoreVector.from_ratios([3, 1], [2, 2], index=[0, 1])

    def test_from_floats_wraps_a_copy(self):
        raw = np.array([0.25, 0.75])
        sv = ScoreVector.from_floats(raw)
        raw[0] = 0.5
        assert [type(v) for v in sv.values] == [float, float]
        assert sv.values == (0.25, 0.75)
        assert sv.undefined_units.tolist() == []

    def test_built_only_from_arrays(self):
        with pytest.raises(TypeError, match="from_floats"):
            ScoreVector([0.5, 0.25])

    def test_from_ratios_rejects_non_integers(self):
        with pytest.raises(ValueError, match="integer"):
            ScoreVector.from_ratios([0.5], [1.7], index=[0])

    def test_from_ratios_rejects_uint64_beyond_int64(self):
        big = np.array([2 ** 63], dtype=np.uint64)
        with pytest.raises(ValueError, match="fit in int64"):
            ScoreVector.from_ratios(np.array([1], dtype=np.uint64), big, index=[0])

    def test_from_ratios_rejects_index_past_the_entries(self):
        with pytest.raises(ValueError, match="index"):
            ScoreVector.from_ratios([1], [2], index=[5])

    def test_from_ratios_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            ScoreVector.from_ratios([1, 0], [2, 1], index=[-1])

    def test_from_ratios_reduces_per_entry(self):
        index = np.array([2, 0, 0, 1])
        index.setflags(write=False)
        sv = ScoreVector.from_ratios([2, 0, 3], [4, 0, 9], index=index)
        assert [type(v) for v in sv.values] == [Fraction, Fraction, Fraction, type(None)]
        assert sv.values == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), None)
        assert sv.undefined_units.tolist() == [3]
        assert sv.dense_ranks([0, 1, 2]).tolist() == [0, 1, 1]

    def test_dense_ranks_order_exact_values(self):
        # 2/3, 1/3, undefined, 2/3 (unreduced), 0
        sv = ScoreVector.from_ratios([2, 1, 0, 4, 0], [3, 3, 0, 6, 5], index=np.arange(5))
        ranks = sv.dense_ranks().tolist()
        assert ranks[4] < ranks[1] < ranks[0] == ranks[3] < ranks[2]

    @pytest.mark.parametrize("wide", [False, True])
    def test_dense_ranks_follow_the_fraction_order(self, rng, wide):
        # the float-key ranks and, with a denominator of 2**26 or more, the
        # Fraction order: ascending with the value, equal for equal values,
        # and one rank above all for the undefined entries (0/0 and n/0)
        num = rng.integers(0, 50, 40)
        den = num + rng.integers(0, 50, 40)
        num[:3], den[:3] = [0, 7, 0], [0, 0, 1]
        if wide:
            num[3], den[3] = 2 ** 26 - 1, 2 ** 26 + 1
        index = rng.integers(0, 40, 200)
        sv = ScoreVector.from_ratios(num, den, index=index)
        ranks = sv.dense_ranks()
        assert ranks.dtype == np.intp and len(ranks) == len(index)
        # ranks count the distinct values of all entries, indexed or not
        defined = sorted({Fraction(int(n), int(d)) for n, d in zip(num, den) if d})
        want = [len(defined) if v is None else defined.index(v) for v in sv.values]
        assert ranks.tolist() == want
        units = rng.integers(0, 200, 30)
        assert sv.dense_ranks(units).tolist() == [want[u] for u in units.tolist()]

    def test_dense_ranks_tell_apart_near_ratios(self):
        # neighbouring fractions of the largest float-key denominators
        big = 2 ** 26 - 1
        num = [big - 2, big - 1, 1, 1, big // 2, big // 2 + 1]
        den = [big - 1, big, big, big - 1, big, big]
        sv = ScoreVector.from_ratios(num, den, index=np.arange(6))
        want = sorted(range(6), key=lambda j: Fraction(num[j], den[j]))
        assert np.argsort(sv.dense_ranks()).tolist() == want

    def test_mask_matches_none_entries(self):
        sv = ScoreVector.from_ratios([1, 0, 1], [2, 0, 3], index=[0, 1, 2])
        assert sv.values == (Fraction(1, 2), None, Fraction(1, 3))
        assert sv.undefined_units.tolist() == [1]
        floats = sv.as_floats()
        assert np.isnan(floats[1])
        assert floats[2] == 1 / 3


# each argument check of the estimation module, and the start of its message
ARGUMENT_CHECKS = {
    "features": (lambda: fit_binary_logistic(np.zeros((2, 2, 2)), [0, 1]), "features must be"),
    "ridge": (lambda: fit_binary_logistic(POINTS_X, POINTS_Y, ridge=-1.0), "ridge must be"),
    "label_shape": (lambda: fit_binary_logistic([[0.0], [1.0]], [0, 1, 1]), "labels must be a"),
    "label_values": (lambda: fit_binary_logistic([[0.0], [1.0]], [0, 7]), "labels must be b"),
    "no_rows": (lambda: fit_binary_logistic(np.empty((0, 1)), np.empty(0)), "empty dataset"),
    "ratio_type": (lambda: ScoreVector.from_ratios([0.5], [1], [0]), "exact scores need"),
    "score_shape": (lambda: ScoreVector.from_floats([[0.5]]), "scores must be"),
    "score_range": (lambda: ScoreVector.from_floats([1.5]), "score 1.5 of unit 0"),
    "ratio_shape": (lambda: ScoreVector.from_ratios([1, 1], [2], [0]), "numerators and"),
    "ratio_range": (lambda: ScoreVector.from_ratios([3], [2], [0]), "score 3/2 outside"),
    "index": (lambda: ScoreVector.from_ratios([1], [2], [1]), "index must be"),
}


@pytest.mark.parametrize("check", ARGUMENT_CHECKS)
def test_argument_errors_are_typed_and_still_value_errors(check):
    # a caller may catch the family as a CspsError, or as the ValueError it was
    call, message = ARGUMENT_CHECKS[check]
    with pytest.raises(InvalidArgument, match=f"^{message}") as caught:
        call()
    assert isinstance(caught.value, CspsError) and isinstance(caught.value, ValueError)
