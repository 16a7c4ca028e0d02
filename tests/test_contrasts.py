from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from csps.contrasts import (
    Bifurcation,
    Contrast,
    assignment_indicator,
    assignment_indicators,
    bifurcation_span_contains,
    bounded_bifurcate,
    is_orthogonal,
    linear_combination,
    matrix_rank,
    parse_contrast,
    read_contrast_file,
    sgn_bifurcate,
)
from csps.errors import (
    AllZero,
    DegenerateBifurcation,
    DimensionMismatch,
    EmptyFile,
    InvalidBounds,
    NotAContrast,
    OutOfRangeTreatment,
    ParseError,
    TooShort,
)


def random_contrast(rng, T=3, exact=False):
    """A valid random contrast: iid entries recentred to sum to zero."""
    while True:
        if exact:
            vals = [Fraction(int(v), 12) for v in rng.integers(-24, 25, size=T)]
            vals = [v - sum(vals) / T for v in vals]
        else:
            raw = rng.normal(size=T)
            vals = list(raw - raw.mean())
        has_pos = any(v > 0 for v in vals)
        has_neg = any(v < 0 for v in vals)
        if has_pos and has_neg:
            return Contrast(vals)


class TestValidateContrast:
    def test_two_treatment_convention(self):
        c = Contrast((1, -1))
        assert c.coefficients == (Fraction(1), Fraction(-1))

    def test_one_active_two_controls(self):
        c = Contrast(("1", "-1/2", "-1/2"))
        assert c.is_exact
        assert sum(c.coefficients) == 0

    def test_nonzero_sum_rejected(self):
        with pytest.raises(NotAContrast):
            Contrast((1, 1, -1))

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            Contrast((0, 0, 0))

    def test_too_short(self):
        with pytest.raises(TooShort):
            Contrast((0,))
        with pytest.raises(TooShort):
            Contrast(())

    def test_float_mode_tolerance(self):
        Contrast((0.5 + 4e-13, 0.5, -1.0))
        with pytest.raises(NotAContrast):
            Contrast((0.5 + 1e-9, 0.5, -1.0))

    def test_mixed_entries_fall_back_to_float(self):
        c = Contrast((Fraction(1, 2), 0.5, -1.0))
        assert not c.is_exact

    def test_immutable(self):
        c = Contrast((1, -1))
        with pytest.raises(AttributeError):
            c.label = "x"

    @pytest.mark.parametrize("coefficients, text", [
        (5, "coefficients must be a sequence of numbers, got 5"),
        (np.array(1), "coefficients must be a sequence of numbers"),
        ((1, None, -1), "coefficients must be numbers, got None"),
        ((1, [1], -2), r"coefficients must be numbers, got \[1\]"),
        ((1, Decimal(1), -2), "coefficients must be numbers"),
        ([[1, -1]], "coefficients must be numbers"),
    ], ids=["int", "0-d array", "None", "list entry", "Decimal", "nested"])
    def test_entries_that_are_not_numbers_rejected(self, coefficients, text):
        # each used to fail with a bare TypeError, which the command line
        # did not take for an input error
        with pytest.raises(NotAContrast, match=text):
            Contrast(coefficients)


class TestSgnBifurcate:
    def test_pooled_pair_versus_third(self):
        b = sgn_bifurcate(Contrast(("1/2", "1/2", "-1")))
        assert b.positive_part == (1, 1, 0)
        assert b.negative_part == (0, 0, -1)

    def test_two_treatments(self):
        b = sgn_bifurcate(Contrast((1, -1)))
        assert (b.positive_part, b.negative_part) == ((1, 0), (0, -1))

    def test_zero_coefficient_excluded(self):
        b = sgn_bifurcate(Contrast((0, 1, -1)))
        assert (b.positive_part, b.negative_part) == ((0, 1, 0), (0, 0, -1))

    def test_parts_sum_to_sign_vector(self, rng):
        for _ in range(100):
            c = random_contrast(rng, T=int(rng.integers(2, 7)))
            b = sgn_bifurcate(c)
            assert b.sign() == c.sign()

    def test_group_labels(self):
        b = sgn_bifurcate(Contrast(("1/2", "1/2", "-1")))
        assert b.positive_treatments == (1, 2)
        assert b.negative_treatments == (3,)


class TestBoundedBifurcate:
    def test_linear_contrast_keeps_extremes(self):
        c = Contrast((-3, -1, 1, 3))
        b = bounded_bifurcate(c, (-1, -1, -1, -1), (1, 1, 1, 1))
        assert b.positive_part == (0, 0, 0, 1)
        assert b.negative_part == (-1, 0, 0, 0)

    def test_zero_bounds_reduce_to_sgn(self, rng):
        for _ in range(50):
            T = int(rng.integers(2, 6))
            c = random_contrast(rng, T=T, exact=bool(rng.integers(0, 2)))
            zero = (0,) * T
            assert bounded_bifurcate(c, zero, zero) == sgn_bifurcate(c)

    def test_boundary_value_maps_to_zero(self):
        # 3 is not strictly above the upper bound 3, so the positive side dies
        c = Contrast((-3, -1, 1, 3))
        with pytest.raises(DegenerateBifurcation):
            bounded_bifurcate(c, (-1, -1, -1, -1), (3, 3, 3, 3))

    def test_invalid_bounds(self):
        c = Contrast((1, -1))
        with pytest.raises(InvalidBounds):
            bounded_bifurcate(c, (1, 0), (0, 0))

    def test_bounds_length_checked(self):
        with pytest.raises(DimensionMismatch):
            bounded_bifurcate(Contrast((1, -1)), (0,), (0,))

    @pytest.mark.parametrize(
        "lower, upper", [(None, (0, 0)), ((0, 0), 0), ((0, None), (0, 0))],
        ids=["None lower", "int upper", "None entry"],
    )
    def test_bounds_that_are_not_numbers_rejected(self, lower, upper):
        with pytest.raises(InvalidBounds, match="bounds must be"):
            bounded_bifurcate(Contrast((1, -1)), lower, upper)


class TestOrthogonality:
    def test_one_active_two_controls_pair(self):
        a = Contrast((1, "-1/2", "-1/2"))
        b = Contrast((0, 1, -1))
        assert is_orthogonal(a, b)

    def test_factorial_main_effects(self):
        # first two main-effect rows of a 2x2x2 factorial layout
        a = Contrast((-1, -1, -1, -1, 1, 1, 1, 1))
        b = Contrast((-1, 1, -1, 1, -1, 1, -1, 1))
        dot = sum(x * y for x, y in zip(a.coefficients, b.coefficients))
        assert dot == 0
        assert is_orthogonal(a, b)

    def test_not_orthogonal(self):
        assert not is_orthogonal(Contrast((1, -1, 0)), Contrast((1, 0, -1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_orthogonal(Contrast((1, -1)), Contrast((1, 0, -1)))


class TestLinearCombination:
    def test_derived_third_contrast(self):
        first = Contrast(("1/2", "1/2", "-1"))
        second = Contrast((1, -1, 0))
        combo = linear_combination([(1, first), (Fraction(-1, 2), second)])
        assert combo.coefficients == (Fraction(0), Fraction(1), Fraction(-1))

    def test_identity(self):
        c = Contrast((1, -1))
        d = Contrast(("1/2", "-1/2"))
        assert linear_combination([(1, c), (0, d)]).coefficients == c.coefficients

    def test_cancellation_rejected(self):
        c = Contrast((1, -1))
        with pytest.raises(AllZero):
            linear_combination([(1, c), (-1, c)])

    def test_bilinear_scaling_exact(self, rng):
        for _ in range(50):
            c = random_contrast(rng, exact=True)
            d = random_contrast(rng, exact=True)
            a, b, s = (Fraction(int(v), 7) for v in rng.integers(1, 20, size=3))
            scaled_after = linear_combination(
                [(s, linear_combination([(a, c), (b, d)]))]
            )
            scaled_inside = linear_combination([(s * a, c), (s * b, d)])
            assert scaled_after.coefficients == scaled_inside.coefficients

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linear_combination([(1, Contrast((1, -1))), (1, Contrast((1, 0, -1)))])

    @pytest.mark.parametrize("weight", [None, [1], "1", Decimal(1)], ids=repr)
    def test_weight_that_is_not_a_number_rejected(self, weight):
        # None and [1] used to fail with a bare TypeError; "1" parses
        c = Contrast((1, -1))
        if weight == "1":
            assert linear_combination([(weight, c)]) == c
            return
        with pytest.raises(NotAContrast, match="weights must be numbers"):
            linear_combination([(weight, c)])

    def test_term_that_is_not_a_contrast_rejected(self):
        with pytest.raises(NotAContrast, match="expected a Contrast, got '1 -1'"):
            linear_combination([(1, Contrast((1, -1))), (1, "1 -1")])


class TestAssignmentIndicator:
    def test_positive_group(self):
        assert assignment_indicator(Contrast(("1/2", "1/2", "-1")), 2) == 1

    def test_negative_group(self):
        assert assignment_indicator(Contrast(("1/2", "1/2", "-1")), 3) == -1

    def test_zero_coefficient(self):
        assert assignment_indicator(Contrast((1, -1, 0)), 3) == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeTreatment):
            assignment_indicator(Contrast((1, -1)), 3)
        with pytest.raises(OutOfRangeTreatment):
            assignment_indicator(Contrast((1, -1)), 0)

    @pytest.mark.parametrize("label", [
        1.5, 2.5, np.nan, np.inf, True, np.True_, "2", Fraction(3, 2), Decimal("1.5"), 2 ** 63,
    ])
    def test_label_that_is_not_a_whole_number_raises(self, label):
        # 1.5 used to fail with a bare TypeError, and True read treatment 1
        with pytest.raises(OutOfRangeTreatment, match="is not a whole number|int64"):
            assignment_indicator(Contrast((1, 0, -1)), label)

    @pytest.mark.parametrize("label", [2.0, np.int8(2), np.uint64(2), Fraction(2), Decimal(2)])
    def test_whole_labels_of_any_type_are_read(self, label):
        assert assignment_indicator(Contrast((1, 0, -1)), label) == 0

    @pytest.mark.parametrize("label", [[1, 2], [1], np.array([[2]])])
    def test_more_than_one_label_raises(self, label):
        # [1, 2] used to fail with numpy's bare TypeError from int()
        with pytest.raises(OutOfRangeTreatment, match="expected one treatment label"):
            assignment_indicator(Contrast((1, 0, -1)), label)

    @pytest.mark.parametrize("labels", [
        [2.7, 1.0], [1.0, np.nan], ["1", "2"], [True, False], np.array([1, 2.5], dtype=object),
    ])
    def test_vector_labels_that_are_not_whole_numbers_raise(self, labels):
        # [2.7, 1.0] used to read 2.7 as treatment 2 and give [-1, 1]
        with pytest.raises(OutOfRangeTreatment, match="is not a whole number"):
            assignment_indicators(Contrast((1, -1)), labels)

    def test_vector_labels_beyond_int64_raise(self):
        with pytest.raises(OutOfRangeTreatment, match="int64"):
            assignment_indicators(Contrast((1, -1)), np.array([1.0, 2.0 ** 63]))

    def test_zero_indicator_iff_zero_coefficient(self, rng):
        for _ in range(50):
            c = random_contrast(rng, T=4)
            for t in range(1, 5):
                ind = assignment_indicator(c, t)
                assert (ind == 0) == (c.coefficients[t - 1] == 0)

    def test_vectorised_matches_scalar(self, rng):
        c = random_contrast(rng, T=3)
        w = rng.integers(1, 4, size=40)
        vec = assignment_indicators(c, w)
        assert [assignment_indicator(c, int(t)) for t in w] == vec.tolist()


class TestSpanMembership:
    def test_linear_combination_is_contained(self):
        basis = [
            sgn_bifurcate(Contrast(("1/2", "1/2", "-1"))),
            sgn_bifurcate(Contrast((1, -1, 0))),
        ]
        target = sgn_bifurcate(Contrast((0, 1, -1)))
        assert bifurcation_span_contains(basis, target)

    def test_single_bifurcation_does_not_span(self):
        basis = [sgn_bifurcate(Contrast((1, -1, 0)))]
        target = sgn_bifurcate(Contrast(("1/2", "1/2", "-1")))
        assert not bifurcation_span_contains(basis, target)

    def test_self_membership(self):
        b = sgn_bifurcate(Contrast((1, -1, 0)))
        assert bifurcation_span_contains([b], b)

    def test_two_independent_bifurcations_span_all_three_treatment_contrasts(self, rng):
        basis = [
            sgn_bifurcate(Contrast(("1/2", "1/2", "-1"))),
            sgn_bifurcate(Contrast((1, -1, 0))),
        ]
        for _ in range(200):
            c = random_contrast(rng, T=3, exact=bool(rng.integers(0, 2)))
            assert bifurcation_span_contains(basis, sgn_bifurcate(c))

    def test_rank_is_exact(self):
        # float entries are eliminated exactly too: no pivot tolerance
        assert matrix_rank([[1, 0], [1, 1e-12]]) == 2
        assert matrix_rank([[Fraction(1, 3), 1], [1, 3]]) == 1
        assert matrix_rank([]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bifurcation_span_contains(
                [sgn_bifurcate(Contrast((1, -1)))],
                sgn_bifurcate(Contrast((1, -1, 0))),
            )


class TestBifurcationType:
    def test_slot_consistency_checked(self):
        with pytest.raises(ValueError):
            Bifurcation((1, 0), (-1, 0))
        with pytest.raises(ValueError):
            Bifurcation((1, 2), (0, -1))

    def test_empty_side_rejected(self):
        with pytest.raises(DegenerateBifurcation):
            Bifurcation((1, 0), (0, 0))
        with pytest.raises(DegenerateBifurcation):
            Bifurcation((0, 0), (0, -1))


class TestContrastFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "contrasts.txt"
        path.write_text(
            "# balancing set\n"
            "1/2 1/2 -1   # pooled pair\n"
            "1 -1 0\n"
            "\n"
            "0.25 0.75 -1 # mixed decimals\n"
        )
        contrasts = read_contrast_file(path)
        assert [c.label for c in contrasts] == ["pooled pair", None, "mixed decimals"]
        assert contrasts[0].coefficients == (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(-1),
        )
        assert contrasts[2].coefficients == (
            Fraction(1, 4),
            Fraction(3, 4),
            Fraction(-1),
        )

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 frog -1\n")
        with pytest.raises(ParseError, match="line 1"):
            read_contrast_file(path)

    def test_bad_sum_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 -1 0\n1 1 -1\n")
        with pytest.raises(NotAContrast, match="line 2"):
            read_contrast_file(path)

    def test_no_contrasts(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(EmptyFile):
            read_contrast_file(path)

    def test_parse_contrast_empty(self):
        with pytest.raises(ParseError):
            parse_contrast("   ")
