import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from csps.contrasts import (
    Bifurcation,
    Contrast,
    assignment_indicators,
    bifurcation_span_contains,
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
    InvalidArgument,
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

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy bool"])
    def test_bool_coefficient_rejected(self, flag):
        # (True, -1) used to read as (1, -1); the label rule refuses bools too
        with pytest.raises(NotAContrast, match="coefficients must be numbers, got"):
            Contrast((flag, -1))

    @pytest.mark.parametrize("coefficients", [
        (np.nan, -np.nan), (np.inf, -np.inf), (1, np.nan, -1),
    ], ids=["NaN", "infinities", "NaN entry"])
    def test_non_finite_coefficients_rejected(self, coefficients):
        # a NaN passes neither a sign test nor a sum test of its own accord
        with pytest.raises(NotAContrast, match="coefficients must be finite"):
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

    def test_scale_keeps_the_bifurcation_and_sign_swaps_it(self, rng):
        # the score of a contrast depends only on its bifurcation
        for _ in range(50):
            c = random_contrast(rng, T=int(rng.integers(2, 6)), exact=True)
            k = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 20)))
            b = sgn_bifurcate(c)
            assert sgn_bifurcate(Contrast([k * v for v in c.coefficients])) == b
            flipped = sgn_bifurcate(Contrast([-k * v for v in c.coefficients]))
            assert flipped.positive_treatments == b.negative_treatments
            assert flipped.negative_treatments == b.positive_treatments

    def test_negative_zero_coefficient_is_excluded(self):
        b = sgn_bifurcate(Contrast((1.0, -1.0, -0.0)))
        assert (b.positive_part, b.negative_part) == ((1, 0, 0), (0, -1, 0))


class TestAssignmentIndicator:
    def test_positive_group(self):
        assert assignment_indicators(Contrast(("1/2", "1/2", "-1")), [2]).tolist() == [1]

    def test_negative_group(self):
        assert assignment_indicators(Contrast(("1/2", "1/2", "-1")), [3]).tolist() == [-1]

    def test_zero_coefficient(self):
        assert assignment_indicators(Contrast((1, -1, 0)), [3]).tolist() == [0]

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeTreatment):
            assignment_indicators(Contrast((1, -1)), [3])
        with pytest.raises(OutOfRangeTreatment):
            assignment_indicators(Contrast((1, -1)), [0])

    @pytest.mark.parametrize("label", [
        1.5, 2.5, np.nan, np.inf, True, np.True_, "2", Fraction(3, 2), Decimal("1.5"), 2 ** 63,
    ])
    def test_label_that_is_not_a_whole_number_raises(self, label):
        # 1.5 used to fail with a bare TypeError, and True read treatment 1
        with pytest.raises(OutOfRangeTreatment, match="is not a whole number|int64"):
            assignment_indicators(Contrast((1, 0, -1)), [label])

    @pytest.mark.parametrize("label", [2.0, np.int8(2), np.uint64(2), Fraction(2), Decimal(2)])
    def test_whole_labels_of_any_type_are_read(self, label):
        assert assignment_indicators(Contrast((1, 0, -1)), [label]).tolist() == [0]

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
                (ind,) = assignment_indicators(c, [t])
                assert (ind == 0) == (c.coefficients[t - 1] == 0)

    def test_vectorised_matches_scalar(self, rng):
        # each unit's indicator is the sign of its own treatment's coefficient
        c = random_contrast(rng, T=3)
        w = rng.integers(1, 4, size=40)
        signs = [(v > 0) - (v < 0) for v in c.coefficients]
        assert assignment_indicators(c, w).tolist() == [signs[t - 1] for t in w]

    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32, np.uint64, np.float32,
    ])
    def test_integer_labels_of_any_width_are_read(self, dtype):
        c = Contrast((1, 0, -1))
        got = assignment_indicators(c, np.array([3, 1, 2, 1], dtype=dtype))
        assert got.tolist() == [-1, 1, 0, 1]
        assert got.tolist() == assignment_indicators(c, np.array([3, 1, 2, 1])).tolist()

    def test_unsigned_labels_beyond_int64_raise(self):
        with pytest.raises(OutOfRangeTreatment, match="int64"):
            assignment_indicators(Contrast((1, -1)), np.array([1, 2 ** 63], dtype=np.uint64))

    @pytest.mark.parametrize("labels", [np.array([[1, 2]]), 2, np.array(2)],
                             ids=["2-D", "bare label", "0-d array"])
    def test_labels_that_are_not_a_vector_raise(self, labels):
        # a 2-D array gave 2-D indicators and a bare label a numpy scalar
        with pytest.raises(OutOfRangeTreatment, match="treatment labels must be a vector"):
            assignment_indicators(Contrast((1, -1)), labels)

    def test_no_units_give_no_indicators(self):
        for labels in ([], np.empty(0), np.empty(0, dtype=np.int64)):
            got = assignment_indicators(Contrast((1, -1)), labels)
            assert got.shape == (0,)


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

    def test_main_effects_do_not_span_their_interaction(self):
        # 2x2 factorial, treatments (a, b) = 11, 12, 21, 22: balancing on
        # both main effects does not balance their interaction
        a = sgn_bifurcate(Contrast((-1, -1, 1, 1)))
        b = sgn_bifurcate(Contrast((-1, 1, -1, 1)))
        ab = sgn_bifurcate(Contrast((1, -1, -1, 1)))
        assert not bifurcation_span_contains([a, b], ab)
        assert bifurcation_span_contains([a, b, ab], ab)

    def test_factorial_effects_together_span_every_contrast(self, rng):
        basis = [
            sgn_bifurcate(Contrast(c))
            for c in ((-1, -1, 1, 1), (-1, 1, -1, 1), (1, -1, -1, 1))
        ]
        for _ in range(100):
            c = random_contrast(rng, T=4, exact=bool(rng.integers(0, 2)))
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

    @pytest.mark.parametrize("positive, negative", [
        ((1.5, 0), (0, -1)), ((True, False), (0, -1)), ((None, 0), (0, -1)),
        (("1", "0"), (0, -1)), (5, 5), ((1, 0), (0, -0.5)), ((1, 0), (0, None)),
    ], ids=repr)
    def test_part_outside_the_label_rule_raises(self, positive, negative):
        # (1.5, 0) used to read as (1, 0), and True as 1; None and a number
        # that is no vector failed with a bare TypeError
        with pytest.raises(ValueError, match="part"):
            Bifurcation(positive, negative)

    @pytest.mark.parametrize("positive, negative, message", [
        ((1, 0), (-1, 0), "cannot sit in both groups"),
        ((1.5, 0), (0, -1), "positive part value"),
        ((1, 0), 0, "the negative part must be a vector"),
    ], ids=["both groups", "label rule", "shape"])
    def test_malformed_bifurcation_is_an_invalid_argument(self, positive, negative, message):
        # each was a bare ValueError
        with pytest.raises(InvalidArgument, match=message):
            Bifurcation(positive, negative)

    def test_equal_parts_compare_and_hash_equal(self):
        built = Bifurcation((1, 0, 0), (0, -1, 0))
        derived = sgn_bifurcate(Contrast((2, -2, 0)))
        assert derived == built and hash(derived) == hash(built)
        assert len({built, derived, sgn_bifurcate(Contrast((1, 0, -1)))}) == 2

    def test_whole_float_parts_are_read(self):
        assert Bifurcation((1.0, 0.0), (0.0, -1.0)) == Bifurcation((1, 0), (0, -1))

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

    @pytest.mark.parametrize("text, coefficients", [
        ("1 -1", (1, -1)),
        ("+1 -1", (1, -1)),
        ("1/2 1/2 -1", (Fraction(1, 2), Fraction(1, 2), -1)),
        ("0.25 0.75 -1", (Fraction(1, 4), Fraction(3, 4), -1)),
        ("1e0 -1e0", (1, -1)),
        ("\t-3  -1 1\t3 ", (-3, -1, 1, 3)),
    ], ids=["whole", "plus sign", "fractions", "decimals", "exponent", "whitespace"])
    def test_parse_contrast_reads_each_number_form(self, text, coefficients):
        c = parse_contrast(text)
        assert c.is_exact
        assert c.coefficients == tuple(Fraction(v) for v in coefficients)

    @pytest.mark.parametrize("text, token", [
        ("1/0 -1", "1/0"), ("nan -nan", "nan"), ("inf -inf", "inf"), ("1,-1", "1,-1"),
        ("0x1 -1", "0x1"), ("1 - 1", "-"), ("\u00bd -\u00bd", "\u00bd"),
        ("1_0 -10", "1_0"), ("\u0661 -1", "\u0661"),
    ], ids=["zero denominator", "NaN", "infinity", "comma", "hex", "bare sign", "vulgar fraction",
            "digit separator", "non-ASCII digit"])
    def test_parse_contrast_refuses_tokens_that_are_not_numbers(self, text, token):
        with pytest.raises(ParseError, match=f"cannot parse coefficient '{token}'"):
            parse_contrast(text)

    def test_long_token_is_refused_in_linear_time(self):
        # a pattern whose digit runs could split two ways takes quadratic
        # time on a long run before a bad byte: seconds at 20,000 digits
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_contrast("1" * 20000 + "x -1")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text", [
        "1e4300 -1e4300", "1e-4300 -1e-4300", "1" * 5000 + " -1", "1/" + "3" * 4301 + " -1",
        "1e" + "0" * 5000 + "1 -10", "0e3000000 1 -1",
    ], ids=["numerator", "denominator", "digits", "p/q digits", "exponent digits", "zero"])
    def test_parse_contrast_refuses_numbers_too_long_to_describe(self, text):
        # Python reads and writes ints of at most 4300 digits; past that a
        # parsed contrast could not be described, or even built
        with pytest.raises(ParseError, match="needs more than 4300 digits"):
            parse_contrast(text)

    @pytest.mark.parametrize("text", [
        "1e4299 -1e4299", "1e-4299 -1e-4299", "1" * 4300 + " -" + "1" * 4300,
        "0." + "0" * 4290 + "1e4300 -1e9",
    ], ids=["numerator", "denominator", "digits", "leading zeros"])
    def test_parse_contrast_describes_numbers_at_the_digit_limit(self, text):
        assert parse_contrast(text).describe()

    @pytest.mark.parametrize("coefficients", [
        (10 ** 5000, -(10 ** 5000)), (10 ** 4300, -(10 ** 4300)),
        (Fraction(1, 10 ** 5000), Fraction(-1, 10 ** 5000)),
        (Fraction(1, 10 ** 4300), Fraction(-1, 10 ** 4300)),
        (1, Fraction(-(10 ** 4300), 3), Fraction(10 ** 4300, 3) - 1),
    ], ids=["int", "int at the bound", "fraction", "fraction at the bound", "third"])
    def test_exact_coefficients_too_long_to_describe_are_refused(self, coefficients):
        # str() of an int past 4300 digits raises a bare ValueError, which
        # describe() and repr() used to pass on
        with pytest.raises(NotAContrast, match="coefficient [0-9] needs more than 4300 digits"):
            Contrast(coefficients)

    def test_exact_coefficients_below_the_digit_limit_describe(self):
        for big in (10 ** 4299, Fraction(1, 10 ** 4299), Fraction(10 ** 4300 - 1, 7)):
            c = Contrast((big, -big))
            assert c.describe() == f"({big}, {-big})"
            assert repr(c) == f"Contrast(({big}, {-big}))"

    def test_exact_coefficient_beyond_floats_is_refused_typed(self):
        # one float puts the contrast in float mode, where 10**400 overflows
        with pytest.raises(NotAContrast, match="coefficients must be finite"):
            Contrast((10 ** 400, -(10 ** 400), 0.0))

    def test_huge_exponent_is_refused_before_its_power_is_built(self):
        # 10**3000000 alone took about 2 s
        start = time.perf_counter()
        for text in ("1e3000000 -1e3000000", "1" * 1000000 + " -1"):
            with pytest.raises(ParseError):
                parse_contrast(text)
        assert time.perf_counter() - start < 0.5

    def test_sum_too_long_to_write_is_refused_typed(self):
        with pytest.raises(NotAContrast, match="a number of more than 4300 digits"):
            parse_contrast("1e-4299 -1e4299")
