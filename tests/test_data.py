import csv
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import csps
from csps.cli import main
from csps.data import Dataset, build_cell_index, load_dataset, write_dataset_csv
from csps.errors import (
    CspsError,
    EmptyFile,
    InvalidArgument,
    MissingValue,
    OutOfRangeTreatment,
    ParseError,
)


def write_example_csv(dataset, path):
    write_dataset_csv(dataset, path)
    return path


class TestLoadDataset:
    def test_worked_example_file(self, example, tmp_path):
        path = write_example_csv(example, tmp_path / "units.csv")
        loaded = load_dataset(path)
        assert loaded.n_units == 24
        assert loaded.num_covariates == 3
        assert loaded.num_treatments == 3
        assert loaded.covariate_names == ("x1", "x2", "x3")

    def test_blank_covariate(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,x2,w\n1,,2\n")
        with pytest.raises(MissingValue):
            load_dataset(path)

    def test_non_numeric_covariate(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,w\nfoo,1\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_non_integer_treatment(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,w\n0.5,1.5\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_treatment_only_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("w\n1\n2\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,w\n")
        with pytest.raises(EmptyFile):
            load_dataset(path)

    def test_last_column_is_the_treatment_without_w(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("age,height,arm\n30,1.8,2\n40,1.7,1\n")
        d = load_dataset(path)
        assert d.covariate_names == ("age", "height")
        assert d.treatments.tolist() == [2, 1]
        # written back, the treatments are the column w, wherever extras follow
        write_dataset_csv(d, path, {"arm": np.array([0.5, 1.5])})
        assert path.read_text().splitlines()[0] == "age,height,w,arm"
        again = load_dataset(path)
        assert again.covariate_names == ("age", "height", "arm")
        assert again.treatments.tolist() == [2, 1]


class TestRoundTrip:
    def test_bit_exact_covariates_and_labels(self, rng, tmp_path):
        X = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-8, 9, size=(50, 4))
        w = rng.integers(1, 4, size=50)
        original = Dataset(X, w)
        path = tmp_path / "round.csv"
        write_dataset_csv(original, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.covariates, original.covariates)
        assert np.array_equal(loaded.treatments, original.treatments)

    def test_extra_columns(self, example, tmp_path):
        path = tmp_path / "extra.csv"
        write_dataset_csv(
            example,
            path,
            extra_columns={
                "score": np.ma.masked_array(np.full(24, 0.5), mask=np.arange(24) == 23),
                "sub": np.arange(24),
            },
        )
        text = path.read_text().splitlines()
        assert text[0] == "x1,x2,x3,w,score,sub"
        assert text[-1].endswith(",,23")

    def test_masked_and_typed_extra_columns(self, tmp_path):
        d = Dataset([[0.1], [-0.0], [1e300]], [1, 2, 3])
        path = tmp_path / "typed.csv"
        write_dataset_csv(
            d,
            path,
            extra_columns={
                "score": np.ma.masked_array([0.25, 0.5, 0.75], mask=[False, True, False]),
                "sub": np.ma.masked_array(
                    np.array([0, 2, 1], dtype=np.uint8), mask=[True, False, False]
                ),
                "d": np.array([-1, 0, 1], dtype=np.int8),
                "big": np.array([2 ** 63 - 1, -(2 ** 63), 7]),
            },
        )
        assert path.read_bytes().decode().split("\r\n") == [
            "x1,w,score,sub,d,big",
            "0.10000000000000001,1,0.25,,-1,9223372036854775807",
            "-0,2,,2,0,-9223372036854775808",
            "1.0000000000000001e+300,3,0.75,1,1,7",
            "",
        ]

    def test_wrong_length_extra_rejected(self, example, tmp_path):
        with pytest.raises(ValueError, match="wrong length"):
            write_dataset_csv(example, tmp_path / "x.csv", {"short": np.zeros(3)})

    @pytest.mark.parametrize(
        "column", [[0.5, 1.5, 2.5], np.array([True, False, True])], ids=["list", "bool"]
    )
    def test_column_that_is_not_a_number_array_rejected(self, column, tmp_path):
        d = Dataset([[0.1], [0.2], [0.3]], [1, 2, 1])
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="'extra' is not an integer or float array"):
            write_dataset_csv(d, path, {"extra": column})
        assert not path.exists()


    @pytest.mark.parametrize("name, repeated", [
        ("x1", "x1"), ("w", "w"), (" x1 ", "x1"), ("w\t", "w"), (" extra", "extra"),
    ], ids=["covariate", "treatment", "spaced covariate", "treatment and tab", "spaced extra"])
    def test_extra_named_as_another_column_rejected(self, name, repeated, tmp_path):
        # the file used to be written, and reading it back raised
        # "ParseError: column 'x1' is named 2 times"
        d = Dataset([[0.1], [0.2], [0.3]], [1, 2, 1])
        path = tmp_path / "x.csv"
        extras = {"extra": np.zeros(3), name: np.ones(3)}
        with pytest.raises(ValueError, match=f"column {repeated!r} would be named 2 times"):
            write_dataset_csv(d, path, extras)
        assert not path.exists()

    def test_covariate_named_as_the_treatment_rejected(self, tmp_path):
        d = Dataset([[0.1], [0.2]], [1, 2], covariate_names=["w "])
        with pytest.raises(ValueError, match="column 'w' would be named 2 times"):
            write_dataset_csv(d, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_dataset_of_no_units_rejected(self, tmp_path):
        # the header-only file it wrote, load_dataset refused as EmptyFile
        with pytest.warns(UserWarning, match="never occur"):
            d = Dataset(np.empty((0, 1)), np.empty(0, dtype=int), num_treatments=2)
        with pytest.raises(ValueError, match="no units"):
            write_dataset_csv(d, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()


class TestFastIngest:
    def test_clean_file_skips_the_row_parser(self, tmp_path, monkeypatch):
        from csps import data

        path = tmp_path / "m.csv"
        path.write_text("x1,w,x2\n1.5,2,7\n-0.0,1, 1e3 \n")

        def refuse(*args):
            raise AssertionError("the row parser ran on a clean file")

        monkeypatch.setattr(data, "_parse_rows", refuse)
        d = load_dataset(path)
        assert d.covariate_names == ("x1", "x2")
        assert d.covariates.tolist() == [[1.5, 7.0], [-0.0, 1000.0]]
        assert math.copysign(1.0, d.covariates[1, 0]) == -1.0
        assert d.treatments.tolist() == [2, 1]

    @pytest.mark.parametrize("text", [
        "x1,w,x2\r\n1.5,2,7\r\n-0.0,1, 1e3 \r\n",
        '"x\n1",w,x2\n1.5,2,7\n-0.0,1, 1e3 \n',
        '"x\r\n1",w,x2\r\n1.5,2,7\r\n-0.0,1, 1e3 \r\n',
        "\ufeffx1,w,x2\n1.5,2,7\n-0.0,1, 1e3 \n",
    ], ids=["crlf", "quoted line break", "quoted crlf", "byte order mark"])
    def test_body_read_from_the_path_equals_the_row_parser(self, text, tmp_path, monkeypatch):
        from csps import data

        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        with monkeypatch.context() as patched:
            patched.setattr(data, "_parse_body", lambda *args: None)
            by_rows = load_dataset(path)
        sources = []
        real = data._parse_body

        def watched(source, *args):
            sources.append(source)
            return real(source, *args)

        def refuse(*args):
            raise AssertionError("the row parser ran on a clean file")

        monkeypatch.setattr(data, "_parse_body", watched)
        monkeypatch.setattr(data, "_parse_rows", refuse)
        by_path = load_dataset(path)
        assert sources == [os.path.abspath(path)]
        assert by_path.covariate_names == by_rows.covariate_names
        assert by_path.covariates.tobytes() == by_rows.covariates.tobytes()
        assert by_path.treatments.tolist() == by_rows.treatments.tolist() == [2, 1]

    @pytest.mark.parametrize("how", ["bytes path", "file descriptor", "compressed suffix"])
    def test_other_sources_are_read_through_the_open_file(self, how, tmp_path, monkeypatch):
        # np.loadtxt would iterate a bytes path as ints, cannot reopen a file
        # descriptor, and decompresses a path ending in .gz
        from csps import data

        path = tmp_path / ("m.csv.gz" if how == "compressed suffix" else "m.csv")
        path.write_text("x1,w\n1.5,2\n-2,1\n")
        source = {"bytes path": os.fsencode(path), "compressed suffix": path}.get(how)
        if source is None:
            source = os.open(path, os.O_RDONLY)  # load_dataset's open() closes it
        sources = []
        real = data._parse_body

        def watched(source, *args):
            sources.append(source)
            return real(source, *args)

        monkeypatch.setattr(data, "_parse_body", watched)
        d = load_dataset(source)
        assert len(sources) == 1 and not isinstance(sources[0], (str, bytes))
        assert d.covariates.tolist() == [[1.5], [-2.0]]
        assert d.treatments.tolist() == [2, 1]

    def test_row_parser_names_the_bad_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,w\n1,1\n\n2,2\n3,x\n")
        with pytest.raises(ParseError, match=r"non-integer treatment 'x' at .*m.csv, line 5$"):
            load_dataset(path)

    def test_row_parser_accepts_what_the_array_parser_refuses(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('x1,w\r\n"1_000",1\r\n,,\r\n\r\n 2.5 ,"2"\r\n')
        d = load_dataset(path)
        assert d.covariates.tolist() == [[1000.0], [2.5]]
        assert d.treatments.tolist() == [1, 2]

    def test_field_longer_than_the_csv_limit(self, tmp_path, monkeypatch):
        # csv.reader refuses such a field; a clean body is read without it
        from csps import data

        def refuse(*args):
            raise AssertionError("the row parser ran on a clean file")

        monkeypatch.setattr(data, "_parse_rows", refuse)
        path = tmp_path / "m.csv"
        long_one = "1." + "0" * csv.field_size_limit()
        path.write_text(f"x1,w\n{long_one},1\n2,2\n")
        d = load_dataset(path)
        assert d.covariates.tolist() == [[1.0], [2.0]]
        assert d.treatments.tolist() == [1, 2]

    def test_file_that_cannot_be_reread(self):
        # a pipe is read once: it goes to the row parser, which accepts quotes
        out = run_python(
            "from csps.data import load_dataset; "
            "print(load_dataset('/dev/stdin').covariates.tolist())",
            stdin='x1,w\n"1.5",1\n2,2\n',
        )
        assert out == "[[1.5], [2.0]]"


LONG_FIELD = b"a" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize(
    "content, error, message",
    [
        (b"\nx1,w\n0.5,1\n", ParseError, "line 1: blank header line"),
        (b"x1," + LONG_FIELD + b",w\n1,2,1\n", ParseError, "line 1: field larger"),
        # the quoted field sends the body to the row parser
        (b'x1,w\n"1",1\n' + LONG_FIELD + b",2\n", ParseError, "line 3: field larger"),
        (b"x1,w\n0.5,1\n0.7,99999999999999999999999\n", OutOfRangeTreatment, "int64"),
        (b"x1,w\n0.5,1\n0.7,2\xe9\n", ParseError, "not UTF-8"),
        # read by position, one of the two columns would be lost
        (b"x,x,w\n1,abc,1\n2,7,2\n", ParseError, "line 1: column 'x' is named 2 times"),
        (b"x,w,w\n1,abc,1\n2,7,2\n", ParseError, "line 1: column 'w' is named 2 times"),
    ],
    ids=["blank_first_line", "long_header_field", "long_body_field",
         "label_beyond_int64", "not_utf8", "covariate_named_twice", "treatment_named_twice"],
)
def test_unreadable_input_fails_typed(content, error, message, tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_bytes(content)
    with pytest.raises(error, match=message):
        load_dataset(path)
    contrasts = tmp_path / "c.txt"
    contrasts.write_text("1 -1\n")
    code = main([
        "balance", "--data", str(path), "--contrasts", str(contrasts),
        "--output-dir", str(tmp_path),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: ")


def run_python(code: str, stdin: str = "") -> str:
    """Standard output of ``code`` in a fresh interpreter that imports this csps."""
    src = os.path.dirname(os.path.dirname(csps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip()


def test_import_does_no_work():
    """Importing csps loads no optional numpy module, such as numpy.ma."""
    assert run_python("import sys, csps; print('numpy.ma' in sys.modules)") == "False"


class TestDatasetType:
    def test_missing_entries_rejected(self):
        with pytest.raises(MissingValue):
            Dataset([[1.0], [np.nan]], [1, 2])

    def test_out_of_range_labels(self):
        with pytest.raises(OutOfRangeTreatment):
            Dataset([[1.0], [1.0]], [0, 1])

    @pytest.mark.parametrize("labels, bad", [
        ([1.5, 2.0, 2.9], "1.5"),
        ([1.0, 2.0, 2.9], "2.9"),
        ([1.0, np.nan, 2.0], "nan"),
        (np.array([1.0, 2.0, -np.inf]), "-inf"),
        pytest.param([Fraction(3, 2), 2, 2], r"Fraction\(3, 2\)", id="fraction"),
        pytest.param([Decimal("1.5"), 2, 2], r"Decimal\('1.5'\)", id="decimal"),
        pytest.param(np.array([1, 2, 2.5], dtype=object), "2.5", id="object-float"),
        pytest.param(["1", "2", "2"], "'1'", id="strings"),
        pytest.param([True, False, True], "True", id="bools"),
        pytest.param(np.array([1, 2, True], dtype=object), "True", id="object-bool"),
    ])
    def test_labels_that_are_not_whole_numbers_rejected(self, labels, bad):
        # a float or object label is not truncated, and strings and bools are
        # not labels: the first entry that is not a finite whole number is named
        with pytest.raises(OutOfRangeTreatment, match=f"treatment label {bad} is not a whole"):
            Dataset([[0.0], [1.0], [2.0]], labels)

    def test_labels_are_copied_from_the_caller(self):
        labels = np.array([1, 2])
        dataset = Dataset([[0.0], [1.0]], labels)
        labels[0] = 2
        assert dataset.treatments.tolist() == [1, 2]
        assert labels.flags.writeable and not dataset.treatments.flags.writeable

    def test_whole_float_labels_kept_as_ints(self):
        dataset = Dataset([[0.0], [1.0], [2.0]], np.array([1.0, 2.0, 2.0]))
        assert dataset.treatments.dtype == int
        assert dataset.treatments.tolist() == [1, 2, 2]
        dataset = Dataset([[0.0], [1.0]], [Fraction(2), Decimal(1)])
        assert dataset.treatments.dtype == int
        assert dataset.treatments.tolist() == [2, 1]

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_float_labels_of_any_width_follow_the_rule(self, dtype):
        # float16 holds no 2**63, so its int64 range is checked in float64
        dataset = Dataset([[0.0], [1.0]], np.array([2, 1], dtype=dtype))
        assert dataset.treatments.tolist() == [2, 1]
        with pytest.raises(OutOfRangeTreatment, match="is not a whole number"):
            Dataset([[0.0], [1.0]], np.array([1.5, 1], dtype=dtype))

    @pytest.mark.parametrize("label", [1e30, 2.0 ** 63, -1e30])
    def test_whole_float_label_beyond_int64_rejected(self, label):
        with pytest.raises(OutOfRangeTreatment, match="int64"):
            Dataset([[0.0], [1.0]], np.array([1.0, label]))

    @pytest.mark.parametrize("rows, labels, T", [
        ([[0.0], [1.0]], [1, 2], 2.5),
        (np.zeros((0, 1)), [], 0),
        (np.zeros((0, 1)), [], -5),
        ([[0.0], [1.0]], [1, 2], "3"),
    ])
    def test_num_treatments_not_a_whole_count_rejected(self, rows, labels, T):
        with pytest.raises(ValueError, match=f"num_treatments must be .* not {T!r}"):
            Dataset(rows, labels, num_treatments=T)

    @pytest.mark.parametrize("T", [True, np.True_])
    def test_bool_num_treatments_rejected(self, T):
        with pytest.raises(ValueError, match="num_treatments must be .* not"):
            Dataset([[0.0], [1.0]], [1, 1], num_treatments=T)

    @pytest.mark.parametrize("T", [3, 3.0, np.int64(3)])
    def test_whole_num_treatments_kept_as_an_int(self, T):
        with pytest.warns(UserWarning, match=r"treatments \(3,\) never occur"):
            dataset = Dataset([[0.0], [1.0]], [1, 2], num_treatments=T)
        assert type(dataset.num_treatments) is int
        assert dataset.num_treatments == 3

    def test_absent_treatment_warns(self):
        with pytest.warns(UserWarning, match="never occur"):
            Dataset([[1.0], [1.0]], [1, 3])

    def test_large_label_costs_no_more_than_its_rows(self, tmp_path):
        # the warning names 5 absent labels and counts the rest
        path = tmp_path / "m.csv"
        path.write_text("x1,w\n0.5,1\n0.7,1000000\n")
        with pytest.warns(UserWarning, match="never occur") as caught:
            load_dataset(path)
        text = str(caught[0].message)
        assert len(text.encode()) < 1024
        assert text == (
            "treatments (2, 3, 4, 5, 6) never occur in the data (999998 absent in all)"
        )

    def test_arrays_read_only(self, example):
        with pytest.raises(ValueError):
            example.covariates[0, 0] = 9.0


class TestCellIndex:
    def test_worked_example_cells(self, example):
        index = build_cell_index(example)
        assert index.num_cells == 4
        assert np.bincount(index.cell_of_unit).tolist() == [6, 6, 6, 6]
        assert index.rows.tolist() == [
            [0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
        ]

    def test_distinct_rows_give_singletons(self, rng):
        X = rng.normal(size=(30, 2))
        d = Dataset(X, rng.integers(1, 3, size=30), num_treatments=2)
        index = build_cell_index(d)
        assert index.num_cells == 30
        assert sorted(index.cell_of_unit.tolist()) == list(range(30))

    def test_empty_dataset(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = Dataset(np.empty((0, 2)), np.empty(0, dtype=int), num_treatments=2)
        assert build_cell_index(d).num_cells == 0

    def test_signed_zeros_stay_separate_cells(self):
        # rows equal in value but not in bytes are distinct cells; equal-valued
        # cells follow the order of their bytes, which puts +0.0 before -0.0
        X = [[-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]]
        index = build_cell_index(Dataset(X, [1, 2, 1, 2]))
        signs = [tuple(math.copysign(1.0, v) for v in row) for row in index.rows.tolist()]
        assert index.rows.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        assert signs == [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        assert index.cell_of_unit.tolist() == [2, 1, 2, 0]

    def test_single_cell(self):
        d = Dataset([[2.5, -1.0]] * 7, [1, 2, 1, 2, 2, 1, 1])
        index = build_cell_index(d)
        assert index.num_cells == 1
        assert index.rows.tolist() == [[2.5, -1.0]]
        assert index.cell_of_unit.tolist() == [0] * 7
        assert index.cell_of_unit.dtype == np.intp  # gathers take it without a cast

    def test_all_distinct_rows_in_value_order(self, rng):
        X = rng.permutation(np.arange(25.0))[:, None] * np.array([[1.0, -1.0]])
        d = Dataset(X, rng.integers(1, 3, size=25), num_treatments=2)
        index = build_cell_index(d)
        assert index.num_cells == 25
        assert index.rows.tolist() == sorted(X.tolist())
        assert (index.rows[index.cell_of_unit] == X).all()

    def test_built_once_per_dataset(self, example):
        assert example.cell_index is example.cell_index
        fresh = build_cell_index(example)
        assert np.array_equal(example.cell_index.rows, fresh.rows)
        assert np.array_equal(example.cell_index.cell_of_unit, fresh.cell_of_unit)

    def test_partition(self, rng):
        X = rng.integers(0, 2, size=(40, 3)).astype(float)
        d = Dataset(X, rng.integers(1, 4, size=40))
        index = build_cell_index(d)
        # every unit in one cell, every cell nonempty, and a cell's units share its row
        assert index.cell_of_unit.shape == (40,)
        sizes = np.bincount(index.cell_of_unit)
        assert len(sizes) == index.num_cells and sizes.min() >= 1
        assert (index.rows[index.cell_of_unit] == X).all()


# each argument check of the data module, called as a caller would trip it,
# and the start of its message
ARGUMENT_CHECKS = {
    "covariate rank": (lambda path: Dataset(np.zeros(3), [1, 2, 1]), "covariates must be 2-D"),
    "no covariate": (lambda path: Dataset(np.zeros((3, 0)), [1, 2, 1]), "at least one"),
    "treatment shape": (lambda path: Dataset(np.zeros((3, 1)), [1, 2]), "treatments must be"),
    "no units, no T": (lambda path: Dataset(np.zeros((0, 1)), []), "num_treatments is required"),
    "name count": (
        lambda path: Dataset(np.zeros((2, 1)), [1, 2], covariate_names=["a", "b"]),
        "covariate_names length",
    ),
    "T not whole": (
        lambda path: Dataset(np.zeros((2, 1)), [1, 2], num_treatments=0), "num_treatments must"
    ),
    "no units written": (
        lambda path: write_dataset_csv(Dataset(np.zeros((0, 1)), [], num_treatments=2), path),
        "a dataset of no units",
    ),
    "name repeated": (
        lambda path: write_dataset_csv(
            Dataset(np.zeros((2, 1)), [1, 2]), path, {"x1": np.zeros(2)}
        ),
        "column 'x1' would be named 2 times",
    ),
    "name padded": (
        lambda path: write_dataset_csv(
            Dataset(np.zeros((2, 1)), [1, 2]), path, {" y": np.zeros(2)}
        ),
        "column ' y' would be read back",
    ),
}


@pytest.mark.filterwarnings("ignore:treatments .* never occur")
@pytest.mark.parametrize("check", ARGUMENT_CHECKS)
def test_argument_errors_are_typed_and_still_value_errors(check, tmp_path):
    # a caller may catch the family as a CspsError, or as the ValueError it was
    call, message = ARGUMENT_CHECKS[check]
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidArgument, match=f"^{message}") as caught:
        call(path)
    assert isinstance(caught.value, CspsError) and isinstance(caught.value, ValueError)
    assert not path.exists()


def test_argument_error_of_a_command_is_an_input_error(capsys):
    # too few units for the treatments: a count check, exit code 2
    assert main(["simulate", "--mechanism", "I", "--units", "2", "--reps", "1"]) == 2
    assert capsys.readouterr().err.startswith("input error: num_units must be")
