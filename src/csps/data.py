"""Study data: covariate matrix, treatment labels, and exact-cell indexing."""

from __future__ import annotations

import csv
import warnings
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyFile, MissingValue, OutOfRangeTreatment, ParseError

__all__ = ["Dataset", "CellIndex", "load_dataset", "build_cell_index", "write_dataset_csv"]


class Dataset:
    """Immutable container for N units with K covariates and a treatment label.

    Treatment labels are 1-based integers in ``1..num_treatments``.  Covariates
    must be finite; missing data is rejected at ingestion rather than handled.
    A label in 1..T that never occurs is recorded as a warning, not an error.
    """

    def __init__(
        self,
        covariates,
        treatments,
        num_treatments: int | None = None,
        covariate_names: Iterable[str] | None = None,
        treatment_name: str = "w",
    ):
        X = np.array(covariates, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"covariates must be 2-D, got ndim={X.ndim}")
        if X.shape[1] < 1:
            raise ValueError("at least one covariate column is required")
        if not np.all(np.isfinite(X)):
            raise MissingValue("covariates contain NaN or infinite entries")
        w = np.array(treatments, dtype=int)
        if w.ndim != 1 or w.shape[0] != X.shape[0]:
            raise ValueError("treatments must be a vector with one entry per unit")
        if num_treatments is None:
            if w.size == 0:
                raise ValueError("num_treatments is required for an empty dataset")
            num_treatments = int(w.max())
        if w.size and (w.min() < 1 or w.max() > num_treatments):
            raise OutOfRangeTreatment(
                f"treatment labels must lie in 1..{num_treatments}"
            )
        if covariate_names is None:
            covariate_names = tuple(f"x{k + 1}" for k in range(X.shape[1]))
        else:
            covariate_names = tuple(str(n) for n in covariate_names)
            if len(covariate_names) != X.shape[1]:
                raise ValueError("covariate_names length must match columns")
        X.setflags(write=False)
        w.setflags(write=False)
        self.covariates = X
        self.treatments = w
        self.num_treatments = int(num_treatments)
        self.covariate_names = covariate_names
        self.treatment_name = treatment_name
        self._cell_index = None
        present = set(np.unique(w).tolist())
        absent = tuple(t for t in range(1, num_treatments + 1) if t not in present)
        self.absent_treatments = absent
        if absent:
            warnings.warn(
                f"treatments {absent} never occur in the data", stacklevel=2
            )

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def num_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def cell_index(self) -> "CellIndex":
        """The exact-cell index of the covariate rows, built on first use."""
        if self._cell_index is None:
            self._cell_index = build_cell_index(self)
        return self._cell_index

    def __len__(self) -> int:
        return self.n_units

    def __repr__(self):
        return (
            f"Dataset(n_units={self.n_units}, num_covariates={self.num_covariates}, "
            f"num_treatments={self.num_treatments})"
        )


def _index_dtype(n: int):
    """int32 when it can index ``n`` entries (halving per-unit index arrays), else intp."""
    return np.int32 if n < 2 ** 31 else np.intp


class CellIndex:
    """Partition of units into cells of byte-identical covariate rows.

    Cells are ordered canonically (ascending covariate values), so everything
    derived from the index is invariant to the unit order in the dataset.
    ``rows[c]`` is the covariate row of cell ``c`` and ``cell_of_unit[i]`` the
    cell of unit ``i``; ``keys`` and ``groups`` spell the same partition out
    as one tuple and one index array per cell.
    """

    def __init__(self, rows: np.ndarray, cell_of_unit: np.ndarray):
        self.rows = rows  # (num_cells, K) covariate rows, one per cell
        self.cell_of_unit = cell_of_unit  # (N,) int array

    @property
    def num_cells(self) -> int:
        return self.rows.shape[0]

    @property
    def keys(self) -> list[tuple]:
        """Covariate rows as tuples, one per cell."""
        return [tuple(row) for row in self.rows.tolist()]

    @property
    def groups(self) -> list[np.ndarray]:
        """Ascending unit indices of each cell, aligned with ``keys``."""
        order = np.argsort(self.cell_of_unit, kind="stable")
        return np.split(order, np.cumsum(self.sizes()))[:-1]

    def __len__(self) -> int:
        return self.num_cells

    def __iter__(self):
        return iter(zip(self.keys, self.groups))

    def sizes(self) -> list[int]:
        return np.bincount(self.cell_of_unit, minlength=self.num_cells).tolist()


def build_cell_index(dataset: Dataset) -> CellIndex:
    """Group units by exact (byte-level) equality of their covariate rows.

    Rows that differ only in the sign of a zero are separate cells.  Cells
    are ordered by their covariate values, first column first; cells with
    equal values (such rows) follow the order of their bytes.
    """
    X = np.ascontiguousarray(dataset.covariates)
    as_bytes = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()
    # np.unique orders the distinct rows by their bytes; the stable sort by
    # value keeps that order among rows of equal value
    _, first, inverse = np.unique(as_bytes, return_index=True, return_inverse=True)
    rows = X[first]
    order = np.lexsort(rows.T[::-1])
    rank = np.empty(len(order), dtype=_index_dtype(len(order)))
    rank[order] = np.arange(len(order))
    cell_of_unit = rank[inverse]
    cell_of_unit.setflags(write=False)
    return CellIndex(rows[order], cell_of_unit)


def _parse_float(token: str, where: str) -> float:
    token = token.strip()
    if token == "":
        raise MissingValue(f"blank covariate entry at {where}")
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"non-numeric covariate {token!r} at {where}") from exc


def _parse_treatment(token: str, where: str) -> int:
    token = token.strip()
    if token == "":
        raise MissingValue(f"blank treatment entry at {where}")
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"non-integer treatment {token!r} at {where}") from exc


def load_dataset(
    path,
    treatment_column: str | None = None,
    covariate_columns: list[str] | None = None,
    num_treatments: int | None = None,
) -> Dataset:
    """Read a dataset from CSV.

    The header names the columns.  By default the treatment column is ``"w"``
    when present, otherwise the last column; every other column is a
    covariate.  ``num_treatments`` overrides the inferred T (max label).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if treatment_column is None:
            treatment_column = "w" if "w" in header else header[-1]
        if treatment_column not in header:
            raise ParseError(f"{path}: no column named {treatment_column!r}")
        if covariate_columns is None:
            covariate_columns = [h for h in header if h != treatment_column]
        missing = [c for c in covariate_columns if c not in header]
        if missing:
            raise ParseError(f"{path}: unknown covariate columns {missing}")
        if not covariate_columns:
            raise ParseError(f"{path}: no covariate columns")
        cov_idx = [header.index(c) for c in covariate_columns]
        trt_idx = header.index(treatment_column)

        X_rows: list[list[float]] = []
        w_rows: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}, line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            where = f"{path}, line {lineno}"
            X_rows.append([_parse_float(row[j], where) for j in cov_idx])
            w_rows.append(_parse_treatment(row[trt_idx], where))

    if not X_rows:
        raise EmptyFile(f"{path}: no data rows")
    return Dataset(
        X_rows,
        w_rows,
        num_treatments=num_treatments,
        covariate_names=covariate_columns,
        treatment_name=treatment_column,
    )


# rows are formatted a block at a time: only one block's Python floats and
# strings exist at once
_ROWS_PER_BLOCK = 2048


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_dataset_csv(
    dataset: Dataset,
    path,
    extra_columns: Mapping[str, Iterable] | None = None,
) -> None:
    """Write the dataset (plus optional appended columns) as CSV.

    Covariates and any float extras are serialised with 17 significant
    digits, which round-trips float64 exactly.  ``None`` entries in extra
    columns become empty fields.
    """
    extras = {}
    for name, col in (extra_columns or {}).items():
        extras[name] = col if isinstance(col, (list, tuple)) else list(col)
        if len(extras[name]) != dataset.n_units:
            raise ValueError(f"extra column {name!r} has the wrong length")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(
            list(dataset.covariate_names) + [dataset.treatment_name] + list(extras)
        )
        # numbers and empty fields hold no delimiter, quote or line break, so
        # csv.writer would write them unquoted: the rows are joined directly
        for start in range(0, dataset.n_units, _ROWS_PER_BLOCK):
            block = slice(start, start + _ROWS_PER_BLOCK)
            columns = [
                [format(v, ".17g") for v in col]
                for col in dataset.covariates[block].T.tolist()
            ]
            columns.append([str(w) for w in dataset.treatments[block].tolist()])
            columns.extend([_csv_field(v) for v in col[block]] for col in extras.values())
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*columns)]))
