import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import csps.estimation
from csps.contrasts import Contrast
from csps.data import Dataset, build_cell_index
from csps.errors import (
    DimensionMismatch,
    NotConverged,
    OneClassOnly,
    SeparationDetected,
    SingularHessian,
    ZeroDenominator,
)
from csps.estimation import (
    ScoreVector,
    bernoulli_gradient,
    bernoulli_log_likelihood,
    csps_from_treatment_probs,
    empirical_csps,
    fit_binary_logistic,
    model_csps,
)
from csps.example_data import FIRST_CONTRAST, SECOND_CONTRAST
from csps.simulation import SimulationConfig, mechanism_ii, sample_dataset

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

    def test_log_likelihood_nondecreasing(self, rng):
        X = rng.normal(size=(150, 2))
        z = X @ np.array([1.5, -2.0])
        y = rng.random(150) < 1.0 / (1.0 + np.exp(-z))
        model = fit_binary_logistic(X, y)
        path = np.array(model.log_likelihood_path)
        # non-decreasing up to the float resolution of the total likelihood
        slack = 16 * np.finfo(float).eps * (1.0 + np.abs(path).max())
        assert (np.diff(path) >= -slack).all()

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
        for w in (np.array([0.3, -0.7]), model.coefficients):
            analytic = bernoulli_gradient(POINTS_X, POINTS_Y, w)
            for j in range(2):
                e = np.zeros(2)
                e[j] = 1e-6
                fd = (
                    bernoulli_log_likelihood(POINTS_X, POINTS_Y, w + e)
                    - bernoulli_log_likelihood(POINTS_X, POINTS_Y, w - e)
                ) / 2e-6
                assert analytic[j] == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_public_objective_is_the_fits_own(self, ridge):
        # POINTS_X ascends, so the fit's canonical row order is the given one
        # and the public functions sum in the fit's order: equal bit for bit
        model = fit_binary_logistic(POINTS_X, POINTS_Y, ridge=ridge)
        w = model.coefficients
        assert (
            bernoulli_log_likelihood(POINTS_X, POINTS_Y, w, ridge=ridge)
            == model.log_likelihood_path[-1]
        )
        gradient = bernoulli_gradient(POINTS_X, POINTS_Y, w, ridge=ridge)
        assert float(np.linalg.norm(gradient)) == model.final_gradient_norm

    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    @pytest.mark.parametrize("tied", [False, True])
    def test_fit_reports_its_public_kernels(self, rng, ridge, tied):
        # the fit computes each accepted point's gradient from the product
        # X @ w of its log-likelihood; on rows already in the fit's canonical
        # order the public kernels must give its last objective and gradient
        # norm bit for bit, whether that order came from an argsort of the
        # first feature (no ties) or the lexicographic fallback (ties)
        X = rng.normal(size=(300, 3))
        if tied:
            X[:, 0] = rng.integers(-2, 3, 300)
        y = (rng.random(300) < 1.0 / (1.0 + np.exp(-(X @ [1.0, -0.5, 0.25])))).astype(float)
        order = np.lexsort([y, X[:, 2], X[:, 1], X[:, 0]])
        X, y = X[order], y[order]
        model = fit_binary_logistic(X, y, ridge=ridge)
        assert model.converged and model.iterations >= 3
        w = model.coefficients
        assert model.log_likelihood_path[-1] == bernoulli_log_likelihood(X, y, w, ridge)
        g = bernoulli_gradient(X, y, w, ridge)
        assert model.final_gradient_norm == math.sqrt(g.dot(g))

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -np.inf, -1e-3])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            fit_binary_logistic(POINTS_X, POINTS_Y, ridge=ridge)
        with pytest.raises(ValueError, match="ridge"):
            bernoulli_log_likelihood(POINTS_X, POINTS_Y, [0.0, 0.0], ridge=ridge)
        with pytest.raises(ValueError, match="ridge"):
            bernoulli_gradient(POINTS_X, POINTS_Y, [0.0, 0.0], ridge=ridge)
        with pytest.raises(ValueError, match="ridge"):
            model_csps(points_dataset(), Contrast((1, -1)), ridge=ridge)

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


class TestPredictBinary:
    # predictions of a fitted model, as model_csps makes them for every unit

    def test_zero_coefficients_give_half(self, monkeypatch):
        monkeypatch.setattr(csps.estimation, "MAX_ITER", 0)
        model = fit_binary_logistic(POINTS_X, POINTS_Y)
        assert model.iterations == 0 and not model.converged
        assert model.coefficients.tolist() == [0.0, 0.0]
        # every unit predicted at 1/2
        assert model.log_likelihood_path == pytest.approx((8 * math.log(0.5),))
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


class TestEmpiricalScores:
    def test_worked_example_first_contrast(self, example):
        scores = empirical_csps(example, FIRST_CONTRAST)
        per_cell = {
            key: scores.values[idx[0]] for key, idx in build_cell_index(example)
        }
        assert per_cell == {
            (1.0, 1.0, 1.0): Fraction(1, 3),
            (1.0, 0.0, 1.0): Fraction(2, 3),
            (0.0, 1.0, 1.0): Fraction(5, 6),
            (0.0, 0.0, 0.0): Fraction(2, 3),
        }
        assert scores.is_exact
        assert scores.undefined_units.size == 0

    def test_worked_example_second_contrast(self, example):
        scores = empirical_csps(example, SECOND_CONTRAST)
        per_cell = {
            key: scores.values[idx[0]] for key, idx in build_cell_index(example)
        }
        assert per_cell == {
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
            dummies[index.groups[c], c - 1] = 1.0
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
    def test_first_treatment_probability(self):
        c = Contrast((1, "-1/2", "-1/2"))
        assert csps_from_treatment_probs((0.2, 0.3, 0.5), c) == pytest.approx(0.2)
        assert csps_from_treatment_probs(("1/5", "3/10", "1/2"), c) == Fraction(1, 5)

    def test_restrict_and_renormalise(self):
        c = Contrast((1, -1, 0))
        assert csps_from_treatment_probs((0.2, 0.3, 0.5), c) == pytest.approx(0.4)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            csps_from_treatment_probs((0, 0, 1), Contrast((1, -1, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            csps_from_treatment_probs((0.5, 0.5), Contrast((1, -1, 0)))

    def test_agrees_with_empirical_scores_in_expectation(self):
        # three covariate cells with fixed assignment probabilities; sampled
        # cell frequencies must approach the formula value
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
        index = build_cell_index(dataset)
        for key, idx in index:
            want = csps_from_treatment_probs(cell_probs[key], contrast)
            got = float(scores.values[idx[0]])
            assert got == pytest.approx(want, abs=0.01)


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
        assert not sv.is_exact
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
        assert sv.is_exact
        assert sv.values == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), None)
        assert sv.undefined_units.tolist() == [3]
        assert sv.dense_ranks([0, 1, 2]).tolist() == [0, 1, 1]

    def test_dense_ranks_order_exact_values(self):
        # 2/3, 1/3, undefined, 2/3 (unreduced), 0
        sv = ScoreVector.from_ratios([2, 1, 0, 4, 0], [3, 3, 0, 6, 5], index=np.arange(5))
        ranks = sv.dense_ranks().tolist()
        assert ranks[4] < ranks[1] < ranks[0] == ranks[3] < ranks[2]

    def test_mask_matches_none_entries(self):
        sv = ScoreVector.from_ratios([1, 0, 1], [2, 0, 3], index=[0, 1, 2])
        assert sv.values == (Fraction(1, 2), None, Fraction(1, 3))
        assert sv.undefined_units.tolist() == [1]
        floats = sv.as_floats()
        assert np.isnan(floats[1])
        assert floats[2] == 1 / 3
