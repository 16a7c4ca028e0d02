import copy
import hashlib
import pickle
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import csps.estimation
from csps.balancing import AlgorithmConfig, run_algorithm
from csps.contrasts import Contrast
from csps.errors import InvalidArgument, NotAContrast
from csps.reporting import format_experiment_table
from csps.simulation import (
    SimulationConfig,
    _draw,
    mechanism_i,
    mechanism_ii,
    oracle_group_means,
    run_experiment,
    sample_dataset,
    simulation_contrasts,
)


def draw_oracle(rng, n, coefficients):
    """``simulation._draw`` by its row formulas: a row max, a row softmax and
    a count of the cumulative thresholds that each unit's uniform passes."""
    B = np.array(coefficients, dtype=float)
    X = rng.standard_normal((n, B.shape[1]))
    eta = X @ B.T
    eta -= eta.max(axis=1, keepdims=True)
    P = np.exp(eta)
    P /= P.sum(axis=1, keepdims=True)
    u = rng.random(n)
    W = 1 + (u[:, None] > np.cumsum(P, axis=1)[:, :-1]).sum(axis=1)
    return X, W.astype(int)


# recorded when _draw reduced its rows with eta.max, np.cumsum and a row sum
DRAWS_DIGEST = "93346a3d50090546e9382ee55e9a2d6ad7c454fbe758d6fb0a40549f24d3b195"


class TestSampleDataset:
    def test_draws_are_unchanged(self):
        digest = hashlib.sha256()
        for mechanism in (mechanism_i, mechanism_ii):
            for seed in (0, 7):
                cfg = mechanism(seed=seed)
                for r in range(3):
                    dataset = sample_dataset(cfg, r)
                    digest.update(dataset.covariates.tobytes())
                    digest.update(dataset.treatments.tobytes())
        assert digest.hexdigest() == DRAWS_DIGEST

    @given(
        st.integers(2, 12).flatmap(
            lambda T: st.integers(1, 4).flatmap(
                lambda K: st.lists(
                    st.lists(st.floats(-30, 30), min_size=K, max_size=K),
                    min_size=T, max_size=T,
                )
            )
        ),
        st.integers(0, 60),
        st.integers(0, 2 ** 32 - 1),
    )
    def test_draw_matches_the_row_formulas(self, coefficients, n, seed):
        # from 8 columns on numpy sums a row pairwise, so the row total is
        # the one reduction that must stay a row reduction
        X, W = _draw(np.random.default_rng(seed), n, coefficients)
        X_want, W_want = draw_oracle(np.random.default_rng(seed), n, coefficients)
        assert X.tobytes() == X_want.tobytes()
        assert W.dtype == W_want.dtype and W.tobytes() == W_want.tobytes()
    def test_deterministic_per_stream(self):
        cfg = mechanism_ii(num_units=500, seed=7)
        a = sample_dataset(cfg, 3)
        b = sample_dataset(cfg, 3)
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.treatments, b.treatments)

    def test_streams_differ_across_replications(self):
        cfg = mechanism_ii(num_units=500, seed=7)
        a = sample_dataset(cfg, 0)
        b = sample_dataset(cfg, 1)
        assert not np.array_equal(a.covariates, b.covariates)

    def test_randomized_mechanism_shares(self):
        cfg = mechanism_i(num_units=100_000, seed=1)
        d = sample_dataset(cfg, 0)
        for t in (1, 2, 3):
            share = float(np.mean(d.treatments == t))
            assert share == pytest.approx(1 / 3, abs=0.01)

    @pytest.mark.parametrize("index", [True, np.False_, 1.5, -1, np.nan, "1"])
    def test_replication_index_must_be_a_whole_count(self, index):
        # True used to draw replication 1, and 1.5 failed inside numpy
        with pytest.raises(ValueError, match="replication_index must be at least 0 and a whole"):
            sample_dataset(mechanism_ii(num_units=30), index)

    def test_whole_replication_indices_draw_their_stream(self):
        cfg = mechanism_ii(num_units=30, seed=2)
        expected = sample_dataset(cfg, 3).covariates
        for index in (3.0, np.int64(3), np.uint8(3)):
            assert np.array_equal(sample_dataset(cfg, index).covariates, expected)
        huge = sample_dataset(cfg, 2 ** 70)
        assert huge.n_units == 30

    def test_standard_normal_covariates(self):
        cfg = mechanism_ii(num_units=100_000, seed=1)
        d = sample_dataset(cfg, 0)
        assert np.abs(d.covariates.mean(axis=0)).max() < 0.02
        assert np.abs(d.covariates.std(axis=0) - 1).max() < 0.02


class TestConfigValidation:
    def test_replications_positive(self):
        with pytest.raises(ValueError):
            mechanism_i(replications=0)

    def test_units_at_least_treatments(self):
        with pytest.raises(ValueError):
            mechanism_i(num_units=2)

    @pytest.mark.parametrize("field, value", [
        ("num_units", 30.5), ("replications", 1.5), ("seed", 1.5), ("seed", -1),
        ("num_units", "30"), ("replications", np.nan),
    ])
    def test_counts_must_be_whole_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*a whole number"):
            mechanism_ii(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("replications", True), ("seed", False), ("seed", np.True_), ("num_units", True),
    ])
    def test_bool_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*a whole number"):
            mechanism_ii(**{field: value})

    def test_whole_counts_are_kept_as_ints(self):
        cfg = mechanism_ii(num_units=30.0, replications=np.int64(2), seed=2.0 ** 70)
        assert (cfg.num_units, cfg.replications, cfg.seed) == (30, 2, 2 ** 70)
        assert all(type(v) is int for v in (cfg.num_units, cfg.replications, cfg.seed))
        assert run_experiment(cfg).before.shape[0] == 2

    def test_contrast_length_must_match(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                coefficients=((0, 0), (1, 0)),
                balancing=(Contrast((1, -1, 0)),),
                targets=(Contrast((1, -1, 0)),),
            )

    def test_ragged_coefficients_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(coefficients=((0, 0, 0), (1, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SimulationConfig(coefficients=((0, 0), (1, bad), (0, 1)))

    @pytest.mark.parametrize("kwargs, message", [
        ({"coefficients": ((0, 0),)}, "at least two treatments"),
        ({"coefficients": ((0, 0, 0), (1, 0))}, "common length"),
        ({"coefficients": ((0, 0), (1, np.nan))}, "coefficients must be finite"),
        ({"coefficients": ((0, 0, 0),) * 3, "balancing": ()}, "at least one balancing"),
        (
            {"coefficients": ((0, 0), (1, 0)), "targets": (Contrast((1, -1, 0)),)},
            "has 3 treatments, the mechanism has 2",
        ),
        ({"coefficients": ((None, 1), (1, 1))}, "rows of numbers"),
        ({"coefficients": (("a", 1), (1, 1))}, "rows of numbers"),
        ({"coefficients": 5}, "rows of numbers"),
        (
            {"coefficients": ((0, 0), (1, 0), (0, 1)), "algorithm": {"estimator": "empirical"}},
            "config must be an AlgorithmConfig",
        ),
    ], ids=[
        "one treatment", "ragged", "not finite", "no balancing", "contrast width",
        "None", "text", "not rows", "algorithm not a config",
    ])
    def test_malformed_config_is_an_invalid_argument(self, kwargs, message):
        # each was a bare ValueError or TypeError, or was accepted and failed
        # run_experiment with a bare AttributeError (an algorithm not a config)
        with pytest.raises(InvalidArgument, match=message):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("coefficients", [
        "12",
        b"12",
        (("1e3", "0"), (True, " 2 ")),
        (("1", "0"), ("0", "1")),
        ((0, 0), "12"),
        ((0, 0), b"12"),
        ((0, 0), bytearray(b"12")),
        ((0, 1), (True, 0)),
        ((0, 1), (np.True_, 0)),
        np.array([[0, 1], [1, 0]], dtype=bool),
        np.array([["0", "1"], ["1", "0"]]),
    ], ids=[
        "str", "bytes", "text and bools", "text rows", "str row", "bytes row",
        "bytearray row", "bool", "numpy bool", "bool array", "str array",
    ])
    def test_text_and_bools_are_not_coefficients(self, coefficients):
        # float() reads "12", b"12" and True, and a text row iterates into
        # characters or bytes: "12" was read as ((1.0,), (2.0,))
        with pytest.raises(InvalidArgument, match="rows of numbers"):
            SimulationConfig(coefficients=coefficients)

    def test_numbers_of_any_kind_are_coefficients(self):
        cfg = SimulationConfig(coefficients=(
            (np.float32(0.5), Fraction(1, 4), np.int64(1)), (Decimal("2.5"), 0, -1.0),
        ), balancing=(Contrast((1, -1)),), targets=(Contrast((1, -1)),))
        assert cfg.coefficients == ((0.5, 0.25, 1.0), (2.5, 0.0, -1.0))
        array = SimulationConfig(coefficients=np.zeros((3, 2))).coefficients
        assert array == ((0.0, 0.0),) * 3
        assert all(type(v) is float for row in cfg.coefficients + array for v in row)

    @pytest.mark.parametrize("kwargs, message", [
        ({"balancing": ("x",)}, "expected a Contrast, got 'x'"),
        ({"targets": ("x",)}, "expected a Contrast, got 'x'"),
        ({"balancing": 5}, "must be sequences of Contrasts"),
        ({"targets": None}, "must be sequences of Contrasts"),
        ({"balancing": np.array([1, 2])}, "expected a Contrast, got np.int64"),
    ], ids=["balancing entry", "target entry", "balancing", "targets", "array"])
    def test_contrasts_that_are_no_contrasts_are_refused(self, kwargs, message):
        # a bare AttributeError, TypeError or (the truth of an array)
        # ValueError before, where run_algorithm gives NotAContrast
        with pytest.raises(NotAContrast, match=message):
            SimulationConfig(coefficients=((0, 0, 0),) * 3, **kwargs)

    def test_overflowing_predictors_are_an_invalid_argument(self):
        cfg = SimulationConfig(coefficients=((0, 0, 0), (1e308, 1e308, 1e308), (0, 0, 0)))
        with pytest.raises(InvalidArgument, match="overflow float64"):
            sample_dataset(cfg, 0)


class TestRunExperiment:
    def test_single_replication_means_are_that_replication(self):
        cfg = mechanism_ii(num_units=300, replications=1, seed=9)
        result = run_experiment(cfg)
        assert np.array_equal(result.mean_before, result.before[0])
        assert np.array_equal(result.mean_after, result.after[0])

    def test_bit_identical_reruns(self):
        cfg = mechanism_ii(num_units=200, replications=5, seed=31)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert np.array_equal(a.before, b.before, equal_nan=True)
        assert np.array_equal(a.after, b.after, equal_nan=True)
        assert a.errors == b.errors

    def test_unconverged_fits_are_counted_as_errors(self, monkeypatch):
        monkeypatch.setattr(csps.estimation, "MAX_ITER", 1)
        cfg = mechanism_ii(num_units=200, replications=3, seed=4)
        result = run_experiment(cfg)
        assert len(result.errors) == 3 * len(cfg.targets)
        assert all(message.startswith("NotConverged:") for _, _, message in result.errors)
        assert np.isnan(result.before).all()
        assert result.excluded_counts().tolist() == [3] * len(cfg.targets)

    def test_linearity_identity_per_replication(self):
        # group means telescope exactly: the 1-vs-3 difference equals the
        # 1-vs-2 plus the 2-vs-3 difference, replication by replication
        cfg = mechanism_ii(num_units=150, seed=17)
        targets = simulation_contrasts()
        for r in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dataset = sample_dataset(cfg, r)
            report = run_algorithm(dataset, cfg.balancing, targets, cfg.algorithm)
            one_two = report.entries[1].before_exact
            one_three = report.entries[2].before_exact
            two_three = report.entries[3].before_exact
            for k in range(3):
                assert one_three[k] == one_two[k] + two_three[k]

    def test_randomized_after_balance_shrinks_with_replications(self):
        small = run_experiment(mechanism_i(replications=10, seed=42))
        large = run_experiment(mechanism_i(replications=100, seed=42))
        assert (
            np.abs(large.mean_after).mean() <= np.abs(small.mean_after).mean()
        )

    def test_after_no_worse_than_before_in_most_replications(self):
        result = run_experiment(mechanism_ii(replications=50, seed=13))
        per_rep_before = np.nanmean(np.abs(result.before), axis=(1, 2))
        per_rep_after = np.nanmean(np.abs(result.after), axis=(1, 2))
        assert np.mean(per_rep_after <= per_rep_before) >= 0.95

    def test_failed_replications_are_recorded_and_excluded(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(mechanism_i(num_units=20, replications=30, seed=2))
        assert result.errors
        assert result.excluded_counts().sum() == len(result.errors)
        failed = {(r, j) for r, j, _ in result.errors}
        for r, j in failed:
            assert np.isnan(result.before[r, j]).all()
        assert np.isfinite(result.mean_before).all()

    @staticmethod
    def twelve_unit_study():
        # replication 0 separates in the balancing fit; replication 1 draws
        # no unit of treatment 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = mechanism_ii(
                num_units=12, replications=2, seed=3,
                balancing=(simulation_contrasts()[1],),
                algorithm=AlgorithmConfig(num_subclasses=2),
            )
            return cfg, sample_dataset(cfg, 1), run_experiment(cfg)

    def test_absent_target_group_is_an_exclusion(self):
        _, replication, result = self.twelve_unit_study()
        assert 3 not in replication.treatments
        failed = {j: message for r, j, message in result.errors if r == 1}
        # the targets against treatment 3 are excluded, 1-vs-2 is kept
        assert sorted(failed) == [0, 2, 3]
        assert all(m.startswith("OneClassOnly:") for m in failed.values())
        assert np.isfinite(result.before[1, 1]).all()
        assert np.isfinite(result.after[1, 1]).all()

    def test_table_counts_exclusions_by_cause(self):
        _, _, result = self.twelve_unit_study()
        causes = [message.split(":")[0] for _, _, message in result.errors]
        assert set(causes) == {"SeparationDetected", "OneClassOnly"}
        last = format_experiment_table(result).splitlines()[-1]
        assert last == (
            f"excluded (replication, target) pairs: {len(causes)} "
            f"(SeparationDetected {causes.count('SeparationDetected')}, "
            f"OneClassOnly {causes.count('OneClassOnly')})"
        )
        clean = run_experiment(mechanism_ii(num_units=200, replications=1, seed=1))
        assert not clean.errors
        assert "excluded" not in format_experiment_table(clean)

    def test_targets_without_a_kept_replication_average_to_nan(self):
        # only 1-vs-2 keeps a replication; the other targets lose both
        _, _, result = self.twelve_unit_study()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            means = result.mean_before, result.mean_after
            table = format_experiment_table(result)
        assert result.excluded_counts().tolist() == [2, 1, 2, 2]
        for mean in means:
            assert np.isnan(mean[[0, 2, 3]]).all()
            assert np.isfinite(mean[1]).all()
        rows = table.splitlines()[1:5]
        assert [row.split()[:2] for row in rows] == [
            ["both-vs-3", "0"], ["1-vs-2", "1"], ["1-vs-3", "0"], ["2-vs-3", "0"]
        ]
        assert all(row.split()[2:] == ["nan"] * 6 for row in (rows[0], rows[2], rows[3]))

    def test_means_equal_nanmean(self):
        # the same sums and quotients as np.nanmean, where a replication is kept
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(mechanism_i(num_units=20, replications=30, seed=2))
            assert result.errors
            for values, mean in [
                (result.before, result.mean_before), (result.after, result.mean_after)
            ]:
                assert np.array_equal(mean, np.nanmean(values, axis=0), equal_nan=True)

    def test_means_equal_average_of_retained_values(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_experiment(mechanism_i(num_units=20, replications=30, seed=2))
        for j in range(len(result.config.targets)):
            rows = result.before[:, j, :]
            kept = rows[~np.isnan(rows[:, 0])]
            assert np.abs(kept.mean(axis=0) - result.mean_before[j]).max() <= 1e-12


class TestOracle:
    def test_randomized_mechanism_near_zero(self):
        rows = oracle_group_means(mechanism_i(seed=3), oracle_n=200_000)
        assert np.abs(rows).max() < 0.01

    def test_covariate_swap_symmetry(self):
        # swapping the first two covariates relabels treatments 2 and 3, so
        # the 1-vs-3 row is the 1-vs-2 row with covariates 1, 2 exchanged and
        # the 2-vs-3 row is antisymmetric with a null third entry
        rows = oracle_group_means(mechanism_ii(seed=3), oracle_n=1_000_000)
        one_two, one_three, two_three = rows[1], rows[2], rows[3]
        assert one_three[0] == pytest.approx(one_two[1], abs=0.02)
        assert one_three[1] == pytest.approx(one_two[0], abs=0.02)
        assert one_three[2] == pytest.approx(one_two[2], abs=0.02)
        assert two_three[0] == pytest.approx(-two_three[1], abs=0.02)
        assert two_three[2] == pytest.approx(0.0, abs=0.02)

    def test_empty_group_gives_nan_rows(self):
        # one unit leaves a group of every target empty; no "Mean of empty slice"
        rows = oracle_group_means(mechanism_ii(seed=3), oracle_n=1)
        assert rows.shape == (4, 3) and np.isnan(rows).all()
        rows = oracle_group_means(mechanism_ii(seed=3), oracle_n=2)
        assert np.isnan(rows).any() and not np.isnan(rows).all()

    @pytest.mark.parametrize("oracle_n", [-1, 1.5, True, np.nan])
    def test_oracle_size_must_be_a_whole_count(self, oracle_n):
        # -1 used to fail inside numpy with a bare ValueError
        with pytest.raises(ValueError, match="oracle_n must be at least 0 and a whole"):
            oracle_group_means(mechanism_ii(seed=3), oracle_n=oracle_n)

    def test_oracle_of_no_units_gives_nan_rows(self):
        assert np.isnan(oracle_group_means(mechanism_ii(seed=3), oracle_n=0)).all()
        cfg = mechanism_ii(seed=3)
        whole = oracle_group_means(cfg, oracle_n=2.0)
        assert np.array_equal(whole, oracle_group_means(cfg, oracle_n=2), equal_nan=True)

    def test_oracle_deterministic(self):
        cfg = mechanism_ii(seed=3)
        a = oracle_group_means(cfg, oracle_n=50_000)
        b = oracle_group_means(cfg, oracle_n=50_000)
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "duplicate", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["deepcopy", "pickle"],
)
def test_config_copies_run_the_same_experiment(duplicate):
    cfg = mechanism_ii(num_units=60, replications=2, seed=4)
    copied = duplicate(cfg)
    assert copied == cfg
    assert copied.targets == cfg.targets and copied.balancing == cfg.balancing
    a, b = run_experiment(cfg), run_experiment(copied)
    assert np.array_equal(a.before, b.before, equal_nan=True)
    assert np.array_equal(a.after, b.after, equal_nan=True)
