import math

import numpy as np
import pytest

from csps.data import Dataset, build_cell_index, load_dataset, write_dataset_csv
from csps.errors import EmptyFile, MissingValue, OutOfRangeTreatment, ParseError


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

    def test_explicit_schema(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("arm,age,height\n2,30,1.8\n1,40,1.7\n")
        d = load_dataset(path, treatment_column="arm")
        assert d.covariate_names == ("age", "height")
        assert d.treatments.tolist() == [2, 1]

    def test_num_treatments_override(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,w\n0,1\n1,2\n")
        with pytest.warns(UserWarning):
            d = load_dataset(path, num_treatments=4)
        assert d.num_treatments == 4
        assert d.absent_treatments == (3, 4)

    def test_label_above_override_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,w\n0,5\n1,1\n")
        with pytest.raises(OutOfRangeTreatment):
            load_dataset(path, num_treatments=3)


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
            extra_columns={"score": [0.5] * 23 + [None], "sub": list(range(24))},
        )
        text = path.read_text().splitlines()
        assert text[0] == "x1,x2,x3,w,score,sub"
        assert text[-1].endswith(",,23")


class TestDatasetType:
    def test_missing_entries_rejected(self):
        with pytest.raises(MissingValue):
            Dataset([[1.0], [np.nan]], [1, 2])

    def test_out_of_range_labels(self):
        with pytest.raises(OutOfRangeTreatment):
            Dataset([[1.0], [1.0]], [0, 1])

    def test_absent_treatment_warns(self):
        with pytest.warns(UserWarning, match="never occur"):
            Dataset([[1.0], [1.0]], [1, 3])

    def test_arrays_read_only(self, example):
        with pytest.raises(ValueError):
            example.covariates[0, 0] = 9.0


class TestCellIndex:
    def test_worked_example_cells(self, example):
        index = build_cell_index(example)
        assert index.num_cells == 4
        assert index.sizes() == [6, 6, 6, 6]
        assert index.keys == [
            (0.0, 0.0, 0.0),
            (0.0, 1.0, 1.0),
            (1.0, 0.0, 1.0),
            (1.0, 1.0, 1.0),
        ]

    def test_distinct_rows_give_singletons(self, rng):
        X = rng.normal(size=(30, 2))
        d = Dataset(X, rng.integers(1, 3, size=30), num_treatments=2)
        index = build_cell_index(d)
        assert index.num_cells == 30
        assert all(s == 1 for s in index.sizes())

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
        signs = [tuple(math.copysign(1.0, v) for v in key) for key in index.keys]
        assert index.keys == [(0.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
        assert signs == [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        assert index.cell_of_unit.tolist() == [2, 1, 2, 0]
        assert [g.tolist() for g in index.groups] == [[3], [1], [0, 2]]

    def test_single_cell(self):
        d = Dataset([[2.5, -1.0]] * 7, [1, 2, 1, 2, 2, 1, 1])
        index = build_cell_index(d)
        assert index.num_cells == 1
        assert index.keys == [(2.5, -1.0)]
        assert index.sizes() == [7]
        assert index.cell_of_unit.tolist() == [0] * 7
        assert [g.tolist() for g in index.groups] == [list(range(7))]

    def test_all_distinct_rows_in_value_order(self, rng):
        X = rng.permutation(np.arange(25.0))[:, None] * np.array([[1.0, -1.0]])
        d = Dataset(X, rng.integers(1, 3, size=25), num_treatments=2)
        index = build_cell_index(d)
        assert index.num_cells == 25
        assert index.keys == sorted(tuple(row) for row in X.tolist())
        for c, g in enumerate(index.groups):
            assert g.tolist() == [int(np.flatnonzero(X[:, 0] == index.keys[c][0])[0])]

    def test_built_once_per_dataset(self, example):
        assert example.cell_index is example.cell_index
        assert example.cell_index.keys == build_cell_index(example).keys

    def test_partition(self, rng):
        X = rng.integers(0, 2, size=(40, 3)).astype(float)
        d = Dataset(X, rng.integers(1, 4, size=40))
        index = build_cell_index(d)
        assert sum(index.sizes()) == 40
        seen = np.concatenate(index.groups)
        assert sorted(seen.tolist()) == list(range(40))
        for c, g in enumerate(index.groups):
            assert (index.cell_of_unit[g] == c).all()
