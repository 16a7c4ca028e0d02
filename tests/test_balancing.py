import copy
import inspect
import pickle
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from csps import balancing, contrasts, data, estimation, example_data
from csps.balancing import (
    AlgorithmConfig,
    ContrastBalance,
    SubclassAssignment,
    chained_propensity,
    covariate_mean_difference,
    run_algorithm,
    subclassify,
)
from csps.contrasts import Contrast, assignment_indicators
from csps.data import Dataset, build_cell_index
from csps.errors import (
    CspsError,
    DimensionMismatch,
    EmptyGroup,
    InvalidArgument,
    NotAContrast,
    OneClassOnly,
    TooFewUnits,
    UndefinedScores,
)
from csps.estimation import ScoreVector, empirical_csps, fit_binary_logistic
from csps.example_data import (
    EXPECTED_CHAINED_SCORE,
    FIRST_CONTRAST,
    SECOND_CONTRAST,
    TARGET_CONTRAST,
)
from csps.simulation import (
    default_balancing,
    mechanism_ii,
    run_experiment,
    sample_dataset,
    simulation_contrasts,
)


def indicators(contrast, dataset):
    return assignment_indicators(contrast, dataset.treatments)


def count_calls(monkeypatch, module, name) -> list:
    """Record one item per call of ``module.name`` while the test runs."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestChainedPropensity:
    def test_worked_example_values(self, example):
        chained = chained_propensity(
            example, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST,
            estimator="empirical",
        )
        cells = build_cell_index(example)
        per_cell = {
            tuple(row): chained.values[np.flatnonzero(cells.cell_of_unit == c)[0]]
            for c, row in enumerate(cells.rows.tolist())
        }
        assert per_cell == EXPECTED_CHAINED_SCORE
        assert {type(v) for v in chained.values} == {Fraction}

    def test_self_chaining_reproduces_own_score(self, example):
        own = empirical_csps(example, TARGET_CONTRAST)
        chained = chained_propensity(
            example, [TARGET_CONTRAST], TARGET_CONTRAST, estimator="empirical"
        )
        assert chained.values == own.values

    def test_logistic_scores_monotone_in_linear_predictor(self):
        cfg = mechanism_ii(num_units=600, seed=21)
        dataset = sample_dataset(cfg, 0)
        balancing = list(cfg.balancing)
        target = simulation_contrasts()[3]
        chained = chained_propensity(dataset, balancing, target, estimator="logistic")
        values = chained.as_floats()
        assert ((values > 0) & (values < 1)).all()
        # reproduce the internal fit; scores must be its sigmoid exactly
        from csps.estimation import model_csps

        features = np.column_stack(
            [model_csps(dataset, c).as_floats() for c in balancing]
        )
        d = indicators(target, dataset)
        model = fit_binary_logistic(features[d != 0], d[d != 0] == 1)
        z = np.column_stack([np.ones(len(features)), features]) @ model.coefficients
        assert np.array_equal(values, 0.5 * (1.0 + np.tanh(0.5 * z)))

    def test_undefined_balancing_score_raises(self):
        # last cell holds only the balancing contrast's zero treatment, but
        # the target still needs it
        d = Dataset([[0.0], [0.0], [1.0], [1.0]], [1, 2, 3, 3])
        with pytest.raises(UndefinedScores):
            chained_propensity(
                d, [Contrast((1, -1, 0))], Contrast((0, 1, -1)),
                estimator="empirical",
            )

    def test_needs_balancing_contrast(self, example):
        with pytest.raises(ValueError):
            chained_propensity(example, [], TARGET_CONTRAST)

    @pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf, "abc", True])
    def test_ridge_is_checked_as_the_config_checks_it(self, example, ridge):
        # the empirical estimator fits no ridge, and used to take any value
        with pytest.raises(ValueError) as refused:
            AlgorithmConfig(estimator="empirical", ridge=ridge)
        with pytest.raises(ValueError) as raised:
            chained_propensity(
                example, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST, "empirical",
                ridge=ridge,
            )
        assert str(raised.value) == str(refused.value)

    def test_estimator_is_checked_as_the_config_checks_it(self, example):
        with pytest.raises(ValueError, match="^unknown estimator 'bogus'$"):
            chained_propensity(example, [FIRST_CONTRAST], TARGET_CONTRAST, "bogus")

    def test_defaults_are_the_config_fields(self):
        # one definition of each setting: the per-step functions read it
        config = AlgorithmConfig()
        chain = inspect.signature(chained_propensity).parameters
        assert (chain["estimator"].default, chain["ridge"].default) == (
            config.estimator, config.ridge
        )
        steps = inspect.signature(subclassify).parameters
        assert (steps["method"].default, steps["num_subclasses"].default) == (
            config.subclass_method, config.num_subclasses
        )
        assert balancing.ESTIMATORS == ("empirical", "logistic")
        assert balancing.SUBCLASS_METHODS == ("exact", "quantile")


class TestSubclassify:
    def test_worked_example_exact_values(self, example):
        chained = chained_propensity(
            example, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST,
            estimator="empirical",
        )
        d = indicators(TARGET_CONTRAST, example)
        assignment = subclassify(chained, d, method="exact")
        assert assignment.num_subclasses == 4
        # subclasses coincide with the covariate cells
        index = build_cell_index(example)
        for c in range(index.num_cells):
            labels = set(assignment.labels[(index.cell_of_unit == c) & (d != 0)].tolist())
            assert len(labels) == 1
        assert (assignment.labels[d == 0] == 0).all()

    def test_constant_scores_collapse_to_one_subclass(self):
        scores = ScoreVector.from_floats([0.5] * 10)
        d = np.array([1, -1] * 5)
        for method in ("quantile", "exact"):
            assignment = subclassify(scores, d, method=method, num_subclasses=5)
            assert assignment.num_subclasses == 1

    def test_hundred_distinct_scores_make_even_quintiles(self):
        scores = ScoreVector.from_floats([i / 100 for i in range(100)])
        d = np.array([1, -1] * 50)
        assignment = subclassify(scores, d, method="quantile", num_subclasses=5)
        assert assignment.num_subclasses == 5
        counts = [int((assignment.labels == s).sum()) for s in range(1, 6)]
        assert counts == [20, 20, 20, 20, 20]
        # ascending score order
        assert assignment.labels[0] == 1 and assignment.labels[99] == 5

    def test_subclass_counts_up_to_int64(self):
        # the cuts come from at most about 2n points, not from S - 1 of them;
        # so many cuts put each distinct score in a group of its own
        scores = ScoreVector.from_floats([i / 100 for i in range(100)])
        d = np.array([1, -1] * 50)
        assignment = subclassify(scores, d, method="quantile", num_subclasses=2 ** 63 - 1)
        exact = subclassify(scores, d, method="exact")
        assert assignment.labels.tolist() == exact.labels.tolist()
        with pytest.raises(ValueError, match="num_subclasses must be below 2"):
            subclassify(scores, d, method="quantile", num_subclasses=2 ** 63)

    @pytest.mark.parametrize("count", [2.5, 2 ** 63, 0, np.nan, "5"])
    def test_subclass_count_is_one_check(self, count):
        # the config and the function refuse the same counts, before any work
        scores = ScoreVector.from_floats([0.1, 0.2, 0.3, 0.4])
        d = np.array([1, -1, 1, -1])
        with pytest.raises(ValueError, match="num_subclasses must be below 2"):
            AlgorithmConfig(num_subclasses=count)
        for method in ("quantile", "exact"):
            with pytest.raises(ValueError, match="num_subclasses must be below 2"):
                subclassify(scores, d, method=method, num_subclasses=count)

    @pytest.mark.parametrize("count", [True, np.True_])
    def test_bool_subclass_count_is_refused(self, count):
        scores = ScoreVector.from_floats([0.1, 0.2, 0.3, 0.4])
        d = np.array([1, -1, 1, -1])
        with pytest.raises(ValueError, match="num_subclasses must be below 2"):
            AlgorithmConfig(num_subclasses=count)
        with pytest.raises(ValueError, match="num_subclasses must be below 2"):
            subclassify(scores, d, num_subclasses=count)
        with pytest.raises(ValueError, match="num_subclasses must be below 2"):
            SubclassAssignment([1, 1, 0, 0], count)

    def test_whole_float_subclass_count_is_kept(self):
        scores = ScoreVector.from_floats([0.1, 0.2, 0.3, 0.4])
        d = np.array([1, -1, 1, -1])
        AlgorithmConfig(num_subclasses=2.0)
        assert subclassify(scores, d, num_subclasses=2.0).labels.tolist() == [1, 1, 2, 2]

    @pytest.mark.parametrize("estimator", ["logistic", "empirical"])
    def test_config_keeps_the_subclass_count_as_an_int(self, estimator):
        # a float count above 2**53 would never end the halving of the cut
        # steps, so the type is checked before any pass runs
        for count in (5.0, np.int64(5), 2.0 ** 60):
            assert type(AlgorithmConfig(num_subclasses=count).num_subclasses) is int
        dataset = sample_dataset(mechanism_ii(num_units=200, seed=3), 0)
        if estimator == "empirical":
            dataset = Dataset(
                (dataset.covariates > 0).astype(float), dataset.treatments,
                num_treatments=3,
            )
        cfg = mechanism_ii()
        outcomes = []
        for count in (2 ** 60, 2.0 ** 60):
            config = AlgorithmConfig(estimator=estimator, num_subclasses=count)
            report = run_algorithm(dataset, cfg.balancing, cfg.targets, config)
            assert all(e.error is None for e in report)
            outcomes.append([
                (e.assignment.labels.tobytes(), e._totals.counts, e._totals.after)
                for e in report
            ])
        assert outcomes[0] == outcomes[1]

    def test_boundary_ties_go_to_lower_subclass(self):
        # the 0.5-quantile of these scores is 0.2, so both 0.2 units stay low
        scores = ScoreVector.from_floats([0.1, 0.2, 0.2, 0.4, 0.5])
        d = np.array([1, -1, 1, 1, -1])
        assignment = subclassify(scores, d, method="quantile", num_subclasses=2)
        assert assignment.labels.tolist() == [1, 1, 1, 2, 2]

    def test_one_class_subclass_merges_toward_median(self):
        scores = ScoreVector.from_floats([0.1, 0.1, 0.5, 0.5, 0.9, 0.9])
        d = np.array([1, 1, 1, -1, 1, -1])  # leftmost group has no -1
        assignment = subclassify(scores, d, method="exact")
        assert assignment.num_subclasses == 2
        assert assignment.labels.tolist() == [1, 1, 1, 1, 2, 2]

    def test_single_group_raises(self):
        scores = ScoreVector.from_floats([0.5, 0.6])
        with pytest.raises(TooFewUnits):
            subclassify(scores, np.array([1, 1]))
        with pytest.raises(TooFewUnits):
            subclassify(scores, np.array([0, 0]))

    @pytest.mark.parametrize("d", [[0, 0], [1, 1], [-1, 0]])
    def test_unknown_method_is_named_whatever_the_groups(self, d):
        # the method is checked first, as AlgorithmConfig checks it, not after
        # the groups
        scores = ScoreVector.from_floats([0.5, 0.6])
        with pytest.raises(ValueError, match="^unknown subclass method 'bogus'$"):
            subclassify(scores, np.array(d), "bogus")

    def test_keeps_what_it_was_made_from(self):
        scores = ScoreVector.from_floats([0.2, 0.4, 0.6, 0.8, 0.5])
        d = np.array([1, -1, 1, -1, 0])
        assignment = subclassify(scores, d, method="quantile", num_subclasses=2)
        assert assignment.scores is scores
        assert SubclassAssignment([0, 1], 1).scores is None

    @pytest.mark.parametrize("d", [1, np.array(-1), [[1, -1]], [1, -1, 1]])
    def test_indicators_must_be_a_vector_with_one_entry_per_score(self, d):
        # a 0-d indicator used to fail with a bare TypeError from len()
        scores = ScoreVector.from_floats([0.2, 0.4])
        with pytest.raises(ValueError, match="group indicators must be a vector"):
            subclassify(scores, d)

    def test_indicator_outside_signs_raises(self):
        scores = ScoreVector.from_floats([0.5, 0.6, 0.7])
        with pytest.raises(ValueError, match="group indicators must be 1, -1 or 0"):
            subclassify(scores, np.array([1, -1, 2]))

    @pytest.mark.parametrize("first", [0.5, np.nan])
    def test_non_integer_indicator_raises(self, first):
        # not cast to int, which would drop the first unit silently
        scores = ScoreVector.from_floats([0.5, 0.6, 0.7, 0.8])
        with pytest.raises(ValueError, match="group indicators must be 1, -1 or 0"):
            subclassify(scores, np.array([first, 1, -1, 1]))

    @pytest.mark.parametrize("d", [
        [True, False, True, False], np.array(["1", "-1", "1", "-1"]),
        np.array([1, -1, 1, 2 ** 63], dtype=object),
    ])
    def test_indicators_that_are_not_whole_numbers_raise(self, d):
        # a bool or a string is not a group indicator, and neither is a whole
        # number beyond int64
        scores = ScoreVector.from_floats([0.5, 0.6, 0.7, 0.8])
        with pytest.raises(ValueError, match="group indicators must be 1, -1 or 0"):
            subclassify(scores, d)

    def test_whole_float_and_object_indicators_are_kept(self):
        scores = ScoreVector.from_floats([0.2, 0.4, 0.6, 0.8])
        expected = subclassify(scores, np.array([1, -1, 1, -1]), "quantile", 2).labels
        for d in ([1.0, -1.0, 1.0, -1.0], [Fraction(1), Decimal(-1), 1, -1]):
            assert subclassify(scores, d, "quantile", 2).labels.tolist() == expected.tolist()

    def test_labels_beyond_num_subclasses_raise(self):
        with pytest.raises(ValueError, match="must not exceed num_subclasses"):
            SubclassAssignment([0, 1, 3], 2)

    @pytest.mark.parametrize("labels", [
        [0, 0.5, 1], [0, 1.5, 2], [0, np.nan, 1],
        [Fraction(3, 2), 1], [Decimal("0.5"), 1], np.array([1.5, 1], dtype=object),
        ["0", "1"], [True, False],
    ])
    def test_labels_must_be_whole_numbers(self, labels):
        # a cast would truncate 0.5 to 0 and 1.5 to 1; strings used to fail
        # inside numpy with a bare UFuncTypeError, and bools read as 1 and 0
        with pytest.raises(ValueError, match="subclass labels must be whole numbers"):
            SubclassAssignment(labels, 2)

    @pytest.mark.parametrize("labels", [[[0, 1]], np.array(1), np.zeros((2, 2), dtype=int)])
    def test_labels_must_be_a_vector(self, labels):
        # [[0, 1]] used to be kept as a 2-D label array, and np.array(1) as 0-d
        with pytest.raises(ValueError, match="subclass labels must be a vector"):
            SubclassAssignment(labels, 1)

    def test_whole_float_labels_are_kept(self):
        assert SubclassAssignment([0.0, 1.0, 2.0], 2).labels.tolist() == [0, 1, 2]
        assert SubclassAssignment([Fraction(2), Decimal(1)], 2).labels.tolist() == [2, 1]

    @pytest.mark.parametrize("count", [2.5, 2 ** 70, -1, np.nan, "2"])
    def test_subclass_count_must_be_whole_and_below_2_63(self, count):
        # 2.5 would be truncated to 2, and 2**70 would hold the labels as objects
        with pytest.raises(ValueError, match=r"must be below 2\*\*63, at least 0 and"):
            SubclassAssignment([1, 2, 1, 2], count)

    def test_whole_subclass_counts_from_zero_are_kept(self):
        assert SubclassAssignment([0, 0], 0).num_subclasses == 0
        kept = SubclassAssignment([1, 2], 2.0)
        assert kept.num_subclasses == 2
        assert kept.labels.dtype == np.uint8

    def test_undefined_eligible_score_raises(self):
        scores = ScoreVector.from_ratios([1, 0], [2, 0], index=[0, 1])
        with pytest.raises(UndefinedScores):
            subclassify(scores, np.array([1, -1]))

    def test_many_one_unit_groups_merge_in_one_pass(self):
        # every distinct score is a one-unit group lacking a sign; rescanning
        # from the first group after each merge took about 16 s here
        n = 4000
        scores = ScoreVector.from_floats(np.arange(n) / n)
        d = np.array([1, -1] * (n // 2))
        start = time.perf_counter()
        assignment = subclassify(scores, d, method="exact")
        assert time.perf_counter() - start < 0.5
        for sid in range(1, assignment.num_subclasses + 1):
            signs = set(d[assignment.labels == sid].tolist())
            assert signs == {1, -1}


class TestCovariateMeanDifference:
    def test_exact_balance_within_subclasses(self, example):
        chained = chained_propensity(
            example, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST,
            estimator="empirical",
        )
        d = indicators(TARGET_CONTRAST, example)
        assignment = subclassify(chained, d, method="exact")
        balance = covariate_mean_difference(example, TARGET_CONTRAST, assignment)
        for row in balance.subclass_rows:
            assert row.difference_exact == (Fraction(0),) * 3
        assert balance.after_exact == (Fraction(0),) * 3

    def test_counterexample_group_means(self, example):
        # balancing only on the first-vs-second score leaves the pooled
        # contrast unbalanced in its middle subclass
        counter = chained_propensity(
            example, [SECOND_CONTRAST], FIRST_CONTRAST, estimator="empirical"
        )
        d = indicators(FIRST_CONTRAST, example)
        assignment = subclassify(counter, d, method="exact")
        balance = covariate_mean_difference(example, FIRST_CONTRAST, assignment)
        middle = balance.subclass_rows[0]
        assert middle.mean_positive_exact == (Fraction(1, 3),) * 3
        assert middle.mean_negative_exact == (Fraction(2, 3),) * 3
        assert middle.difference_exact == (Fraction(-1, 3),) * 3

    def test_empty_group(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = Dataset([[0.0], [1.0]], [2, 2], num_treatments=3)
        with pytest.raises(EmptyGroup):
            covariate_mean_difference(d, Contrast((1, -1, 0)))

    def test_more_subclasses_than_units_is_an_empty_group(self):
        # each subclass needs a unit of both groups; the check comes before
        # any allocation sized by the subclass count
        dataset = Dataset([[0.0], [1.0], [2.0], [3.0]], [1, 2, 1, 2], num_treatments=2)
        for S in (3, 10 ** 12):
            with pytest.raises(EmptyGroup, match="comparison group is empty"):
                covariate_mean_difference(
                    dataset, Contrast((1, -1)), SubclassAssignment([1, 1, 1, 1], S)
                )

    def test_labels_must_cover_the_dataset(self, example):
        labels = SubclassAssignment([1] * (example.n_units - 1), 1)
        with pytest.raises(ValueError, match="cover every unit"):
            covariate_mean_difference(example, TARGET_CONTRAST, labels)

    def test_after_equals_weighted_subclass_average(self, rng):
        X = rng.integers(0, 3, size=(60, 2)).astype(float)
        w = rng.integers(1, 4, size=60)
        dataset = Dataset(X, w, num_treatments=3)
        target = Contrast((1, -1, 0))
        scores = empirical_csps(dataset, target)
        assignment = subclassify(scores, indicators(target, dataset), method="exact")
        balance = covariate_mean_difference(dataset, target, assignment)
        for k in range(2):
            recomputed = sum(
                row.weight * row.difference_exact[k]
                for row in balance.subclass_rows
            )
            assert recomputed == balance.after_exact[k]
            assert abs(float(recomputed) - balance.after[k]) <= 1e-12

    def test_linearity_identity_exact(self, rng):
        # pooled group means telescope: diff(1,0,-1) = diff(1,-1,0) + diff(0,1,-1)
        for _ in range(5):
            X = rng.normal(size=(45, 3))
            w = rng.integers(1, 4, size=45)
            dataset = Dataset(X, w, num_treatments=3)
            d12 = covariate_mean_difference(dataset, Contrast((1, -1, 0)))
            d23 = covariate_mean_difference(dataset, Contrast((0, 1, -1)))
            d13 = covariate_mean_difference(dataset, Contrast((1, 0, -1)))
            for k in range(3):
                assert (
                    d13.before_exact[k]
                    == d12.before_exact[k] + d23.before_exact[k]
                )

    @pytest.mark.parametrize("name", ["before", "after"])
    def test_replaced_fractions_are_kept(self, example, name):
        # a passed tuple is returned as given; the floats always come from
        # the pass's integers
        counter = chained_propensity(
            example, [SECOND_CONTRAST], FIRST_CONTRAST, estimator="empirical"
        )
        assignment = subclassify(counter, indicators(FIRST_CONTRAST, example), method="exact")
        entry = covariate_mean_difference(example, FIRST_CONTRAST, assignment)
        built = getattr(entry, name + "_exact")
        nudged = (built[0] + Fraction(1, 3),) + built[1:]
        changed = replace(entry, **{name + "_exact": nudged})
        assert getattr(changed, name + "_exact") is nudged
        floats = [float(v) for v in built]
        assert getattr(changed, name).tolist() == floats
        assert getattr(entry, name).tolist() == floats
        other = "after" if name == "before" else "before"
        assert getattr(changed, other).tolist() == getattr(entry, other).tolist()
        assert getattr(changed, other + "_exact") == getattr(entry, other + "_exact")

    def test_rows_are_built_whole_on_first_read(self, example):
        chained = chained_propensity(
            example, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST,
            estimator="empirical",
        )
        assignment = subclassify(chained, indicators(TARGET_CONTRAST, example), method="exact")
        entry = covariate_mean_difference(example, TARGET_CONTRAST, assignment)
        assert "subclass_rows" not in vars(entry)
        rows = entry.subclass_rows
        assert entry.subclass_rows is rows
        assert [r.subclass_id for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row.difference.tolist() == [float(v) for v in row.difference_exact]
            assert not row.difference.flags.writeable
        assert covariate_mean_difference(example, TARGET_CONTRAST).subclass_rows is None

    def test_differences_beyond_float64_are_infinite(self, example):
        # float64 arithmetic would give these infinities; the Fractions stay exact
        big = np.finfo(float).max
        dataset = Dataset([[big, -big], [-big, big], [big, -big], [-big, big]], [1, 2, 1, 2])
        entry = covariate_mean_difference(dataset, Contrast((1, -1)))
        assert entry.before.tolist() == [np.inf, -np.inf]
        assert entry.before_exact == (2 * Fraction(big), -2 * Fraction(big))

    def test_error_entry_reads_none(self):
        entry = ContrastBalance(contrast=FIRST_CONTRAST, error="OneClassOnly: empty")
        for _ in range(2):
            assert entry.before_exact is None and entry.after_exact is None
            assert entry.before is None and entry.after is None
        assert replace(entry).before_exact is None

    def test_by_hand_assignment_gives_the_pass_entry(self):
        # the public function, with the pass's labels passed by hand, finds
        # the same groups and the same differences
        dataset = sample_dataset(mechanism_ii(num_units=300, seed=4), 0)
        targets = simulation_contrasts()
        report = run_algorithm(dataset, targets[:2], targets)
        assert all(e.error is None for e in report.entries)
        for entry in report.entries:
            by_hand = SubclassAssignment(
                entry.assignment.labels, entry.assignment.num_subclasses
            )
            again = covariate_mean_difference(dataset, entry.contrast, by_hand)
            assert again.before.tobytes() == entry.before.tobytes()
            assert again.after.tobytes() == entry.after.tobytes()

    def test_subclasses_of_another_target_use_the_measured_groups(self, example):
        # subclasses made for the target, measured on the second contrast:
        # its exact subclasses do not all hold both of that contrast's groups
        chained = chained_propensity(
            example, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST,
            estimator="empirical",
        )
        assignment = subclassify(chained, indicators(TARGET_CONTRAST, example), method="exact")
        by_hand = SubclassAssignment(assignment.labels, assignment.num_subclasses)
        for subclasses in (assignment, by_hand):
            with pytest.raises(EmptyGroup):
                covariate_mean_difference(example, SECOND_CONTRAST, subclasses)

    def test_units_outside_the_groups_do_not_weigh(self):
        # the four treatment-3 units carry label 1 by hand; only the target's
        # units size a subclass, so each weighs 1/2
        X = [[0.0], [1.0], [0.0], [3.0], [5.0], [5.0], [5.0], [5.0]]
        dataset = Dataset(X, [1, 2, 1, 2, 3, 3, 3, 3])
        labels = SubclassAssignment([1, 1, 2, 2, 1, 1, 1, 1], 2)
        entry = covariate_mean_difference(dataset, Contrast((1, -1, 0)), labels)
        assert [row.weight for row in entry.subclass_rows] == [Fraction(1, 2)] * 2
        assert [row.difference_exact for row in entry.subclass_rows] == [
            (Fraction(-1),), (Fraction(-3),)
        ]
        assert entry.after_exact == (Fraction(-2),)
        assert entry.num_subclasses == 2

    @pytest.mark.parametrize("coefficients", [(1, -1), (1, -1, 0, 0)])
    def test_target_width_must_match(self, example, coefficients):
        with pytest.raises(DimensionMismatch):
            covariate_mean_difference(example, Contrast(coefficients))

    def test_permutation_invariance(self, example, rng):
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        base = run_algorithm(
            example, [FIRST_CONTRAST, SECOND_CONTRAST],
            [TARGET_CONTRAST, FIRST_CONTRAST], config,
        )
        perm = rng.permutation(example.n_units)
        shuffled = Dataset(
            example.covariates[perm], example.treatments[perm], num_treatments=3
        )
        other = run_algorithm(
            shuffled, [FIRST_CONTRAST, SECOND_CONTRAST],
            [TARGET_CONTRAST, FIRST_CONTRAST], config,
        )
        for a, b in zip(base.entries, other.entries):
            assert a.before_exact == b.before_exact
            assert a.after_exact == b.after_exact
            assert np.array_equal(a.before, b.before)
            assert len(a.subclass_rows) == len(b.subclass_rows)
            for ra, rb in zip(a.subclass_rows, b.subclass_rows):
                assert ra.difference_exact == rb.difference_exact
                assert (ra.n_positive, ra.n_negative) == (rb.n_positive, rb.n_negative)
                assert ra.weight == rb.weight


class TestRunAlgorithm:
    def test_worked_example_end_to_end(self, example):
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        report = run_algorithm(
            example, [FIRST_CONTRAST, SECOND_CONTRAST], [TARGET_CONTRAST], config
        )
        entry = report.entries[0]
        assert entry.error is None
        assert entry.num_subclasses == 4
        assert entry.after_exact == (Fraction(0),) * 3
        assert entry.n_positive == 7 and entry.n_negative == 9

    @pytest.mark.parametrize("cap", [1, 200, 10 ** 9])
    def test_stacked_sums_give_each_target_its_own_entry(self, monkeypatch, cap):
        # 60 units of treatments 1 and 2 and two covariates: a target holds
        # 120 values, so a cap of 200 stacks two targets and 1 none; the
        # failed target in between keeps its place
        import warnings

        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # treatment 3 is absent
            dataset = Dataset(rng.normal(size=(60, 2)), np.tile([1, 2], 30), num_treatments=3)
        targets = [
            Contrast((1, -1, 0)), Contrast((1, 1, -2)), Contrast((-1, 1, 0)), Contrast((2, -2, 0)),
        ]
        config = AlgorithmConfig(num_subclasses=3)
        expected = [
            covariate_mean_difference(
                dataset, target, subclassify(
                    chained_propensity(dataset, [Contrast((1, -1, 0))], target),
                    indicators(target, dataset), num_subclasses=3,
                ),
            )
            for target in targets[::2] + targets[3:]
        ]
        stacked = []
        real = balancing._mean_differences

        def watched(dataset, comparisons):
            stacked.append(len(comparisons))
            return real(dataset, comparisons)

        monkeypatch.setattr(balancing, "_VALUES_PER_CALL", cap)
        monkeypatch.setattr(balancing, "_mean_differences", watched)
        report = run_algorithm(dataset, [Contrast((1, -1, 0))], targets, config)
        assert [n for n in stacked if n] == {1: [1, 1, 1], 200: [2, 1]}.get(cap, [3])
        assert [e.error is None for e in report] == [True, False, True, True]
        assert "OneClassOnly" in report.entries[1].error
        for entry, alone in zip(report.entries[::2] + report.entries[3:], expected):
            assert entry.contrast == alone.contrast
            assert entry.before_exact == alone.before_exact
            assert entry.after_exact == alone.after_exact
            assert entry.assignment.labels.tolist() == alone.assignment.labels.tolist()

    def test_simulation_builds_no_fraction(self, monkeypatch):
        # the simulation reads only the floats, which come from integers
        def no_fraction(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(balancing, "Fraction", no_fraction)
        result = run_experiment(mechanism_ii(num_units=300, replications=3, seed=3))
        assert result.errors == () and np.isfinite(result.after).all()
        dataset = sample_dataset(mechanism_ii(num_units=300, seed=3), 0)
        report = run_algorithm(dataset, simulation_contrasts()[:2], simulation_contrasts()[:1])
        with pytest.raises(AssertionError, match="a Fraction was built"):
            report.entries[0].after_exact
        # a subclass row's sizes and floats are built with it, its Fractions
        # only when read
        rows = report.entries[0].subclass_rows
        assert sum(r.n_positive + r.n_negative for r in rows) > 0
        assert all(np.isfinite(r.difference).all() for r in rows)
        with pytest.raises(AssertionError, match="a Fraction was built"):
            rows[0].difference_exact

    def test_balancing_shrinks_differences_on_average(self):
        cfg = mechanism_ii(num_units=800, seed=5)
        dataset = sample_dataset(cfg, 0)
        report = run_algorithm(
            dataset, list(cfg.balancing), list(cfg.targets), AlgorithmConfig()
        )
        before = np.mean([np.abs(e.before).mean() for e in report.entries])
        after = np.mean([np.abs(e.after).mean() for e in report.entries])
        assert after < before

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("estimator", ["logistic", "empirical"])
    def test_ridge_must_be_finite_and_nonnegative(self, estimator, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            AlgorithmConfig(estimator=estimator, ridge=ridge)

    @pytest.mark.parametrize("ridge", [True, False, "1", None])
    def test_ridge_must_be_a_real_number(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            AlgorithmConfig(ridge=ridge)

    def test_empty_targets(self, example):
        report = run_algorithm(example, [FIRST_CONTRAST], [])
        assert len(report) == 0

    @pytest.mark.parametrize("estimator", ["logistic", "empirical"])
    def test_no_targets_fit_nothing(self, example, monkeypatch, estimator):
        fits = count_calls(monkeypatch, estimation, "fit_binary_logistic")
        cells = count_calls(monkeypatch, balancing, "empirical_csps")
        config = AlgorithmConfig(estimator=estimator)
        assert len(run_algorithm(example, [FIRST_CONTRAST], [], config)) == 0
        assert len(run_algorithm(example, [], [], config)) == 0
        assert fits == [] and cells == []
        # the counters do see the fits of a pass with a target
        run_algorithm(example, [FIRST_CONTRAST], [TARGET_CONTRAST], config)
        assert (len(fits), len(cells)) == ((2, 0) if estimator == "logistic" else (0, 1))

    @pytest.mark.parametrize("estimator", ["logistic", "empirical"])
    def test_contrast_width_checked_before_any_fit(self, example, monkeypatch, estimator):
        # unchecked, a target one treatment wider than the data would be
        # balanced as the contrast of its first three coefficients
        fits = count_calls(monkeypatch, estimation, "fit_binary_logistic")
        cells = count_calls(monkeypatch, balancing, "empirical_csps")
        config = AlgorithmConfig(estimator=estimator)
        narrow, wide = Contrast((1, -1)), Contrast((0, 1, -1, 0))
        cases = [
            ([narrow], [TARGET_CONTRAST]),
            ([FIRST_CONTRAST, wide], [TARGET_CONTRAST]),
            ([FIRST_CONTRAST], [TARGET_CONTRAST, wide]),
            ([FIRST_CONTRAST], [narrow]),
        ]
        for balancing_set, targets in cases:
            with pytest.raises(DimensionMismatch, match="treatments, dataset has 3"):
                run_algorithm(example, balancing_set, targets, config)
            with pytest.raises(DimensionMismatch, match="treatments, dataset has 3"):
                chained_propensity(example, balancing_set, targets[-1], estimator=estimator)
        with pytest.raises(DimensionMismatch, match=r"contrast \(1, -1\) has 2"):
            run_algorithm(example, [narrow], [], config)
        assert fits == [] and cells == []

    @pytest.mark.parametrize("estimator", ["logistic", "empirical"])
    def test_entry_that_is_not_a_contrast_is_an_input_error(self, example, monkeypatch, estimator):
        # a contrast's text is not a contrast: it used to fail with a bare
        # AttributeError from the width check
        fits = count_calls(monkeypatch, estimation, "fit_binary_logistic")
        cells = count_calls(monkeypatch, balancing, "empirical_csps")
        config = AlgorithmConfig(estimator=estimator)
        for balancing_set, targets in [
            (["1/2 1/2 -1"], [TARGET_CONTRAST]),
            ([FIRST_CONTRAST], [TARGET_CONTRAST, (0, 1, -1)]),
            ([FIRST_CONTRAST, None], []),
        ]:
            with pytest.raises(NotAContrast, match="expected a Contrast"):
                run_algorithm(example, balancing_set, targets, config)
        with pytest.raises(NotAContrast, match="expected a Contrast"):
            chained_propensity(example, [FIRST_CONTRAST], "0 1 -1", estimator=estimator)
        assert fits == [] and cells == []

    @pytest.mark.parametrize("config", [None, {"estimator": "empirical"}], ids=["None", "dict"])
    def test_config_that_is_not_a_config_is_an_input_error(self, example, monkeypatch, config):
        # each was a bare AttributeError, raised on the config's first read
        fits = count_calls(monkeypatch, estimation, "fit_binary_logistic")
        cells = count_calls(monkeypatch, balancing, "empirical_csps")
        with pytest.raises(InvalidArgument, match="config must be an AlgorithmConfig"):
            run_algorithm(example, [FIRST_CONTRAST], [TARGET_CONTRAST], config)
        assert fits == [] and cells == []

    def test_empty_balancing_set_raises_with_targets(self, example):
        with pytest.raises(ValueError, match="balancing contrast"):
            run_algorithm(example, [], [TARGET_CONTRAST])

    def test_balancing_scores_fitted_once_per_dataset(self, monkeypatch):
        fits = count_calls(monkeypatch, estimation, "fit_binary_logistic")
        dataset = sample_dataset(mechanism_ii(num_units=400, seed=3), 0)
        balancing_set = simulation_contrasts()[:2]
        report = run_algorithm(dataset, balancing_set, simulation_contrasts())
        assert all(e.error is None for e in report.entries)
        assert len(fits) == len(balancing_set) + 4

    @pytest.mark.parametrize("estimator", ["logistic", "empirical"])
    def test_entries_equal_per_target_chained_scores(self, estimator):
        cfg = mechanism_ii(num_units=500, seed=11)
        dataset = sample_dataset(cfg, 0)
        if estimator == "empirical":
            dataset = Dataset(
                (dataset.covariates > 0).astype(float), dataset.treatments,
                num_treatments=3,
            )
        config = AlgorithmConfig(estimator=estimator, subclass_method="exact")
        report = run_algorithm(dataset, cfg.balancing, cfg.targets, config)
        for entry in report.entries:
            assert entry.error is None
            alone = chained_propensity(
                dataset, cfg.balancing, entry.contrast, estimator=estimator
            )
            assert [type(v) for v in entry.scores.values] == [type(v) for v in alone.values]
            assert entry.scores.as_floats().tobytes() == alone.as_floats().tobytes()
            assert np.array_equal(entry.scores.undefined_units, alone.undefined_units)
            if estimator == "empirical":
                assert entry.scores.values == alone.values

    def test_empirical_entries_share_one_index(self, example):
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        targets = [FIRST_CONTRAST, SECOND_CONTRAST, TARGET_CONTRAST]
        report = run_algorithm(example, [FIRST_CONTRAST, SECOND_CONTRAST], targets, config)
        indices = [e.scores._index for e in report.entries]
        assert all(e.error is None for e in report.entries)
        assert all(index is indices[0] for index in indices)
        assert not indices[0].flags.writeable

    def test_failed_balancing_fit_recorded_on_every_target(self, monkeypatch):
        dataset = sample_dataset(mechanism_ii(num_units=300, seed=5), 0)
        balancing_set = simulation_contrasts()[:2]
        monkeypatch.setattr(estimation, "MAX_ITER", 1)
        with pytest.raises(CspsError) as raised:
            chained_propensity(dataset, balancing_set, simulation_contrasts()[2])
        report = run_algorithm(dataset, balancing_set, simulation_contrasts())
        want = f"{type(raised.value).__name__}: {raised.value}"
        assert want.startswith("NotConverged:")
        assert [e.error for e in report.entries] == [want] * 4

    def test_identical_rows_tie_every_score(self):
        # one covariate row for all units: every score is tied, so exact
        # subclassing keeps one subclass and balancing changes nothing; the
        # logistic fit has no identified slope and fails typed
        rng = np.random.default_rng(8)
        dataset = Dataset(np.ones((60, 2)), rng.integers(1, 4, 60), num_treatments=3)
        balancing_set = simulation_contrasts()[:2]
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        for entry in run_algorithm(dataset, balancing_set, simulation_contrasts(), config):
            assert entry.error is None
            assert entry.num_subclasses == 1
            assert entry.after_exact == entry.before_exact
        report = run_algorithm(dataset, balancing_set, simulation_contrasts())
        assert all(e.error.startswith("SingularHessian:") for e in report.entries)

    def test_constant_covariate(self):
        base = sample_dataset(mechanism_ii(num_units=400, seed=7), 0)
        X = np.column_stack([base.covariates[:, :2], np.full(400, 2.5)])
        targets = simulation_contrasts()
        balancing_set = targets[:2]
        # without a ridge the constant column duplicates the intercept
        report = run_algorithm(Dataset(X, base.treatments, num_treatments=3), balancing_set, targets)
        assert all(e.error.startswith("SingularHessian:") for e in report.entries)
        cases = [
            (X, AlgorithmConfig(ridge=1e-3)),
            (
                np.column_stack([X[:, :2] > 0, X[:, 2:]]).astype(float),
                AlgorithmConfig(estimator="empirical", subclass_method="exact"),
            ),
        ]
        for covariates, config in cases:
            dataset = Dataset(covariates, base.treatments, num_treatments=3)
            for entry in run_algorithm(dataset, balancing_set, targets, config):
                assert entry.error is None
                assert entry.before_exact[2] == 0 and entry.after_exact[2] == 0

    def test_entries_keep_scores_and_subclasses(self, example):
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        report = run_algorithm(
            example, [FIRST_CONTRAST, SECOND_CONTRAST], [TARGET_CONTRAST], config
        )
        entry = report.entries[0]
        chained = chained_propensity(
            example, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST,
            estimator="empirical",
        )
        assert entry.scores.values == chained.values
        assert entry.assignment.num_subclasses == entry.num_subclasses
        assert np.array_equal(
            entry.assignment.labels,
            subclassify(chained, indicators(TARGET_CONTRAST, example), method="exact").labels,
        )

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_keep_the_exact_values(self, example, duplicate):
        def exact_values(report):
            return [
                (e.contrast, e.before_exact, e.after_exact,
                 [(r.weight, r.mean_positive_exact, r.mean_negative_exact,
                   r.difference_exact) for r in e.subclass_rows])
                for e in report.entries
            ]

        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        targets = [TARGET_CONTRAST, FIRST_CONTRAST, SECOND_CONTRAST]
        report = run_algorithm(example, [FIRST_CONTRAST, SECOND_CONTRAST], targets, config)
        unbuilt = duplicate(report)  # before any exact value is built
        want = exact_values(report)
        assert exact_values(unbuilt) == want
        assert exact_values(duplicate(report)) == want

    def test_unconverged_fit_recorded_per_target(self, monkeypatch):
        dataset = sample_dataset(mechanism_ii(num_units=300, seed=5), 0)
        monkeypatch.setattr(estimation, "MAX_ITER", 1)
        report = run_algorithm(dataset, simulation_contrasts()[:2], simulation_contrasts())
        assert all(e.error.startswith("NotConverged:") for e in report.entries)
        assert all(e.scores is None for e in report.entries)

    @pytest.mark.parametrize("estimator", ["logistic", "empirical"])
    def test_dataset_without_units_fails_typed(self, estimator):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # no treatment occurs
            dataset = Dataset(np.empty((0, 2)), np.empty(0, dtype=int), num_treatments=3)
        report = run_algorithm(
            dataset, [FIRST_CONTRAST], [TARGET_CONTRAST, SECOND_CONTRAST],
            AlgorithmConfig(estimator=estimator),
        )
        assert [e.error for e in report] == ["TooFewUnits: the dataset has no units"] * 2
        with pytest.raises(TooFewUnits, match="^the dataset has no units$"):
            chained_propensity(dataset, [FIRST_CONTRAST], TARGET_CONTRAST, estimator=estimator)

    def test_balancing_contrast_without_units_fails_typed(self):
        # only treatment 2 occurs, so the logistic score of 1-vs-3 has no unit
        # to fit on: a recorded failure on every target, not a bare ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # treatments 1 and 3 never occur
            dataset = Dataset([[0.5], [1.5]], [2, 2], num_treatments=3)
        report = run_algorithm(dataset, [Contrast((1, 0, -1))], [TARGET_CONTRAST])
        assert [e.error for e in report] == ["OneClassOnly: the bifurcation has no units"]
        with pytest.raises(OneClassOnly, match="^the bifurcation has no units$"):
            estimation.model_csps(dataset, Contrast((1, 0, -1)))

    def test_undefined_balancing_cell_names_the_first_score(self):
        # cell x=1 holds only treatment 2 and cell x=2 only treatment 3, so
        # 1-vs-3 is undefined on the first and 1-vs-2 on the second; 2-vs-3
        # touches both, and the error names the first in the balancing order
        dataset = Dataset([[0.0]] * 3 + [[1.0]] * 2 + [[2.0]] * 2, [1, 2, 3, 2, 2, 3, 3])
        one_two, one_three = Contrast((1, -1, 0)), Contrast((1, 0, -1))
        target = Contrast((0, 1, -1))
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        for balancing_set in ([one_two, one_three], [one_three, one_two]):
            text = (
                f"balancing score {balancing_set[0].describe()} "
                "is undefined on units of the target bifurcation"
            )
            report = run_algorithm(dataset, balancing_set, [target], config)
            assert report.entries[0].error == f"UndefinedScores: {text}"
            with pytest.raises(UndefinedScores) as raised:
                chained_propensity(dataset, balancing_set, target, estimator="empirical")
            assert str(raised.value) == text

    @pytest.mark.parametrize("method", ["exact", "quantile"])
    def test_empirical_sums_per_cell_only_on_few_cells(self, monkeypatch, method):
        # each target's sums go per (cell, treatment) row of the cell table:
        # binary covariates make few cells, so few rows; continuous ones make
        # a cell per unit, and a row per unit; both equal
        # covariate_mean_difference on a fresh Dataset over the same arrays,
        # which always sums per unit.  The balancing contrast uses every
        # treatment, so no cell is undefined
        rng = np.random.default_rng(8)
        balancing_set = [Contrast((1, 1, -2))]
        config = AlgorithmConfig(estimator="empirical", subclass_method=method)
        for X, want in (
            ((rng.random((2000, 3)) < 0.5).astype(float), True),
            (rng.standard_normal((2000, 3)), False),
        ):
            w = rng.integers(1, 4, len(X))
            comparisons = []
            real = balancing._target_comparison

            def watched(*args):
                comparisons.append(real(*args))
                return comparisons[-1]

            monkeypatch.setattr(balancing, "_target_comparison", watched)
            report = run_algorithm(Dataset(X, w), balancing_set, simulation_contrasts(), config)
            monkeypatch.setattr(balancing, "_target_comparison", real)
            assert all(c.multiplicity is not None for c in comparisons)
            few_rows = [len(c.groups) <= 8 * 3 for c in comparisons]
            per_unit = [len(c.groups) == sum(c.counts) for c in comparisons]
            assert (few_rows, per_unit) == (([want] * 4, [not want] * 4))
            for entry in report:
                fresh = Dataset(X, w)
                alone = covariate_mean_difference(fresh, entry.contrast, subclassify(
                    chained_propensity(fresh, balancing_set, entry.contrast, "empirical"),
                    indicators(entry.contrast, fresh), method,
                ))
                assert entry.before_exact == alone.before_exact
                assert entry.after_exact == alone.after_exact
                assert entry._totals.counts == alone._totals.counts
                assert entry._totals.sums == alone._totals.sums
                assert entry.assignment.labels.tolist() == alone.assignment.labels.tolist()

    @pytest.mark.parametrize("method", ["exact", "quantile"])
    def test_empirical_pass_scores_only_table_rows(self, monkeypatch, method):
        # the chained cells need equal balancing scores, not their order, so
        # the design ranks none, and exact subclasses rank each target's
        # score once; every exact score counts the cell table's rows, far
        # fewer than the units here, and it is only carried to the units
        rng = np.random.default_rng(4)
        X = (rng.random((20000, 3)) < 0.5).astype(float)
        dataset = Dataset(X, rng.integers(1, 4, len(X)))
        num_rows = len(dataset.cell_index._table.cell)
        targets = simulation_contrasts()
        ranks = count_calls(monkeypatch, ScoreVector, "dense_ranks")
        real = estimation._cell_scores
        counted = []  # the rows each exact score counts: its cells per row

        def watched(cells, *args, **kwargs):
            counted.append(len(cells))
            return real(cells, *args, **kwargs)

        # the balancing scores are empirical_csps's, the chained ones the pass's own
        monkeypatch.setattr(estimation, "_cell_scores", watched)
        monkeypatch.setattr(balancing, "_cell_scores", watched)
        config = AlgorithmConfig(estimator="empirical", subclass_method=method)
        report = run_algorithm(dataset, targets[:2], targets, config)
        assert [len(entry.scores) for entry in report] == [len(X)] * len(targets)
        assert len(ranks) == (len(targets) if method == "exact" else 0)
        assert len(counted) == 2 + len(targets)
        assert num_rows <= 8 * 3 and max(counted) <= num_rows

    @pytest.mark.parametrize("method", ["exact", "quantile"])
    def test_labels_are_gathered_on_first_read(self, method):
        # a report holds each target's labels per chained cell, and gathers
        # them per unit, one byte each, when first read
        rng = np.random.default_rng(6)
        n = 200_000
        X = (rng.random((n, 3)) < 0.5).astype(float)
        dataset = Dataset(X, rng.integers(1, 4, n))
        targets = simulation_contrasts()
        config = AlgorithmConfig(estimator="empirical", subclass_method=method)
        report = run_algorithm(dataset, targets[:2], targets, config)
        tracemalloc.start()
        try:
            labels = [entry.assignment.labels for entry in report]
            gathered = tracemalloc.get_traced_memory()[0]
            again = [entry.assignment.labels for entry in report]
            read_twice = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert gathered >= len(targets) * n
        assert read_twice - gathered < 1024
        assert all(a is b for a, b in zip(labels, again))
        reference = [
            subclassify(
                chained_propensity(dataset, targets[:2], t, "empirical"),
                assignment_indicators(t, dataset.treatments), method,
            ).labels.tobytes()
            for t in targets
        ]
        assert [a.tobytes() for a in labels] == reference

    def test_labels_read_from_many_threads_at_once(self):
        # the first read gathers and keeps the labels; readers racing it
        # must each get the same labels, never a half-made state
        rng = np.random.default_rng(8)
        X = (rng.random((400, 3)) < 0.5).astype(float)
        dataset = Dataset(X, rng.integers(1, 4, len(X)))
        targets = simulation_contrasts()
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        want = run_algorithm(dataset, targets[:2], targets, config).entries[0]
        want = want.assignment.labels.tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                assignment = run_algorithm(dataset, targets[:2], targets, config)
                assignment = assignment.entries[0].assignment
                start = threading.Barrier(8)

                def read():
                    start.wait(timeout=60)
                    return assignment.labels

                with ThreadPoolExecutor(max_workers=8) as pool:
                    reads = [pool.submit(read) for _ in range(8)]
                    got = [future.result(timeout=60).tobytes() for future in reads]
                assert got == [want] * 8
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("method", ["exact", "quantile"])
    def test_pass_on_a_cell_per_unit_holds_only_chained_cells(self, method):
        # continuous covariates: one cell per unit, so the table has about a
        # row per unit.  Each target's score has one entry per chained cell
        # (at most 3**J: a one-unit cell scores 0, 1 or undefined), read
        # through the dataset's cell of each unit and the chained cell of
        # each cell, which every target shares; its labels are held per
        # chained cell, so before they are read the report holds that map
        # and less than a byte per unit besides; each target's first read
        # gathers a byte per unit, a second read gathers nothing, and
        # nothing of the pass stays on the dataset
        rng = np.random.default_rng(7)
        n = 50_000
        dataset = Dataset(rng.standard_normal((n, 2)), rng.integers(1, 4, n))
        cell_of_unit = dataset.cell_index.cell_of_unit
        targets = simulation_contrasts()
        # every unit in both balancing contrasts' groups, so no score is undefined
        balancing_set = [targets[0], Contrast((1, -2, 1))]
        config = AlgorithmConfig(estimator="empirical", subclass_method=method)
        tracemalloc.start()
        try:
            report = run_algorithm(dataset, balancing_set, targets, config)
            held = tracemalloc.get_traced_memory()[0]
            map_bytes = report.entries[0].scores._entry_of_cell.nbytes
            for entry in report:
                entry.assignment.labels
            read = tracemalloc.get_traced_memory()[0]
            for entry in report:
                entry.assignment.labels
            read_twice = tracemalloc.get_traced_memory()[0]
            del report, entry
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert map_bytes == 8 * n
        assert held - map_bytes < n
        assert len(targets) * n <= read - held < len(targets) * n + 1024
        assert read_twice - read < 1024
        assert left < 64 * 1024
        report = run_algorithm(dataset, balancing_set, targets, config)
        chain_of_cell = report.entries[0].scores._entry_of_cell
        assert len(report.entries[0].scores) == n and not chain_of_cell.flags.writeable
        for entry in report:
            assert entry.error is None
            assert entry.scores._index is cell_of_unit
            assert entry.scores._entry_of_cell is chain_of_cell
            assert len(entry.scores._numerators) <= 3 ** len(balancing_set)
            assert len(entry.scores._denominators) <= 3 ** len(balancing_set)

    def test_warm_pass_on_few_cells_holds_no_array_per_unit(self):
        # 80k units in 8 cells: the first pass builds the dataset's cell
        # index, which counts the units by (cell, treatment), so a second
        # pass reads no unit, and what its report keeps is per cell and per
        # chained cell
        rng = np.random.default_rng(11)
        n = 80_000
        X = (rng.random((n, 3)) < 0.5).astype(float)
        dataset = Dataset(X, rng.integers(1, 4, n), num_treatments=3)
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        balancing_set, targets = default_balancing(), simulation_contrasts()
        run_algorithm(dataset, balancing_set, targets, config)
        tracemalloc.start()
        try:
            report = run_algorithm(dataset, balancing_set, targets, config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dataset.cell_index.num_cells == 8
        assert all(entry.error is None for entry in report)
        assert held < 64 * 1024
        assert peak <= 8 * n + 64 * 1024

    @pytest.mark.parametrize("method, n", [
        ("exact", 80_000), ("quantile", 80_000), ("exact", 200_000), ("quantile", 200_000),
    ], ids=["exact", "quantile", "exact-200k", "quantile-200k"])
    def test_warm_exact_cell_calls_make_no_array_per_unit(self, method, n):
        # n units in 8 cells: the cell index keeps the units counted by
        # (cell, treatment), so once it is built neither a pass nor
        # empirical_csps reads the units, and what the report keeps is per
        # cell and per chained cell; a key or an indicator per unit would
        # take 8n bytes, 640 kB at 80k
        rng = np.random.default_rng(11)
        X = (rng.random((n, 3)) < 0.5).astype(float)
        dataset = Dataset(X, rng.integers(1, 4, n), num_treatments=3)
        dataset.cell_index
        config = AlgorithmConfig(estimator="empirical", subclass_method=method)
        balancing_set, targets = default_balancing(), simulation_contrasts()
        tracemalloc.start()
        try:
            report = run_algorithm(dataset, balancing_set, targets, config)
            held, pass_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            scores = [empirical_csps(dataset, target) for target in targets]
            scores_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset.cell_index.num_cells == 8
        assert all(entry.error is None for entry in report)
        assert all(len(s) == n for s in scores)
        assert held < 64 * 1024
        assert pass_peak < 64 * 1024
        assert scores_peak < 64 * 1024

    def test_warm_exact_cell_pass_checks_no_labels(self, monkeypatch):
        # the dataset checked its labels when it was built, and the pass
        # checks each contrast's width, so a pass on a built cell index
        # gathers every indicator without checking a label again
        rng = np.random.default_rng(11)
        X = (rng.random((400, 3)) < 0.5).astype(float)
        dataset = Dataset(X, rng.integers(1, 4, 400), num_treatments=3)
        dataset.cell_index
        checks, real = [], data._whole_labels

        def checked(*args, **kwargs):
            checks.append(args)
            return real(*args, **kwargs)

        for module in (data, contrasts, balancing, estimation):
            if hasattr(module, "_whole_labels"):
                monkeypatch.setattr(module, "_whole_labels", checked)
        config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
        report = run_algorithm(dataset, default_balancing(), simulation_contrasts(), config)
        assert all(entry.error is None for entry in report)
        assert checks == []

    @pytest.mark.parametrize("run", [
        lambda d: run_algorithm(d, default_balancing(), simulation_contrasts()),
        lambda d: chained_propensity(d, default_balancing(), simulation_contrasts()[0]),
        lambda d: estimation.model_csps(d, simulation_contrasts()[0]),
    ], ids=["run_algorithm", "chained_propensity", "model_csps"])
    def test_logistic_calls_build_no_cell_index(self, run):
        # the index and its counts serve the exact-cell path only, so the
        # logistic path pays nothing for them
        dataset = sample_dataset(mechanism_ii(num_units=400), 0)
        run(dataset)
        assert "cell_index" not in vars(dataset)

    @pytest.mark.parametrize("method", ["exact", "quantile"])
    def test_empirical_pass_memory_is_bounded_by_the_units(self, method):
        # a cell per unit and thousands of treatments: a cells x T count table
        # would take 2000 times the units' bytes, and the pass counts only
        # the (cell, treatment) pairs that hold units
        rng = np.random.default_rng(5)
        n, T = 300, 4000
        X = rng.standard_normal((n, 1))
        w = rng.integers(1, T + 1, n)
        quarter = T // 4
        balancing_set = [Contrast(tuple((-1) ** t for t in range(T)))]
        targets = [
            Contrast((1,) * (2 * quarter) + (-1,) * (2 * quarter)),
            Contrast((1,) * quarter + (-1,) * quarter + (0,) * (2 * quarter)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # absent treatments only warn
            dataset = Dataset(X, w, num_treatments=T)
        config = AlgorithmConfig(estimator="empirical", subclass_method=method)
        tracemalloc.start()
        try:
            report = run_algorithm(dataset, balancing_set, targets, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.error for e in report] == [None, None]
        units_bytes = X.nbytes + w.nbytes
        assert n * T * 8 > 1000 * units_bytes
        assert peak < 20 * units_bytes

    def test_per_target_errors_recorded(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dataset = Dataset(
                [[0.0], [1.0], [0.5], [1.5]], [1, 2, 1, 2], num_treatments=3
            )
        report = run_algorithm(
            dataset,
            [Contrast((1, -1, 0))],
            [Contrast((1, -1, 0)), Contrast((0, 1, -1))],
            AlgorithmConfig(estimator="empirical", subclass_method="exact"),
        )
        assert report.entries[0].error is None
        assert report.entries[1].error is not None
        assert "OneClassOnly" in report.entries[1].error


class TestWorkedExample:
    def test_checks_the_balance_pass_itself(self, monkeypatch):
        # the chained scores, subclasses and differences checked are those of
        # run_algorithm, one call for the target and one for the counterexample
        runs = count_calls(monkeypatch, example_data, "run_algorithm")
        means = count_calls(monkeypatch, balancing, "covariate_mean_difference")
        assert example_data.verify_worked_example() == []
        assert (len(runs), len(means)) == (2, 0)


class TestTrueScoreStratification:
    def test_stratifying_on_true_score_balances_covariates(self):
        # known discrete mechanism; two covariate cells share the same true
        # score, so the stratum mixes them and balance is not trivial
        rng = np.random.default_rng(2024)
        cells = {
            (0.0, 0.0): (0.2, 0.2, 0.6),
            (1.0, 1.0): (0.3, 0.3, 0.4),
            (1.0, 0.0): (0.4, 0.2, 0.4),
            (0.0, 1.0): (0.1, 0.3, 0.6),
        }
        true_score = {
            cell: Fraction(
                Fraction(str(p[0])), Fraction(str(p[0])) + Fraction(str(p[1]))
            )
            for cell, p in cells.items()
        }
        assert true_score[(0.0, 0.0)] == true_score[(1.0, 1.0)] == Fraction(1, 2)
        n_per_cell = 12_500  # 50,000 units in total
        rows, labels = [], []
        for cell, probs in cells.items():
            rows += [cell] * n_per_cell
            labels += list(rng.choice([1, 2, 3], size=n_per_cell, p=probs))
        dataset = Dataset(rows, labels, num_treatments=3)
        contrast = Contrast((1, -1, 0))
        d = assignment_indicators(contrast, dataset.treatments)
        # one entry per cell; the rows were drawn cell by cell
        scores = ScoreVector.from_ratios(
            [s.numerator for s in true_score.values()],
            [s.denominator for s in true_score.values()],
            index=np.repeat(np.arange(len(cells)), n_per_cell),
        )
        assignment = subclassify(scores, d, method="exact")
        assert assignment.num_subclasses == 3
        balance = covariate_mean_difference(dataset, contrast, assignment)
        for row in balance.subclass_rows:
            assert np.abs(row.difference).max() < 0.02
        assert np.abs(balance.after).max() < 0.02


# each argument check of the balancing module, called as a caller would
# trip it, and the refusal's text
ARGUMENT_REFUSALS = {
    "estimator name": (lambda ds: AlgorithmConfig(estimator="bogus"), "unknown estimator"),
    "subclass method name": (
        lambda ds: AlgorithmConfig(subclass_method="bogus"), "unknown subclass method"
    ),
    "labels of another length": (
        lambda ds: covariate_mean_difference(ds, TARGET_CONTRAST, SubclassAssignment([1], 1)),
        "cover every unit",
    ),
    "no balancing contrast": (
        lambda ds: run_algorithm(ds, [], [TARGET_CONTRAST]), "at least one balancing contrast"
    ),
    "subclass label value": (lambda ds: SubclassAssignment([2], 1), "must not exceed"),
    "subclass label shape": (lambda ds: SubclassAssignment([[0, 1]], 1), "must be a vector"),
    "indicator value": (
        lambda ds: subclassify(ScoreVector.from_floats([0.2, 0.4]), [1, 2]), "1, -1 or 0"
    ),
    "indicator shape": (
        lambda ds: subclassify(ScoreVector.from_floats([0.2, 0.4]), [1]), "one entry per score"
    ),
}


@pytest.mark.parametrize("site", ARGUMENT_REFUSALS)
def test_argument_refusals_are_typed_value_errors(site, example):
    call, message = ARGUMENT_REFUSALS[site]
    with pytest.raises(InvalidArgument, match=message) as refused:
        call(example)
    assert isinstance(refused.value, CspsError) and isinstance(refused.value, ValueError)
