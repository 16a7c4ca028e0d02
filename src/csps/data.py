"""Study data: covariate matrix, treatment labels, and exact-cell indexing."""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyFile, MissingValue, OutOfRangeTreatment, ParseError

__all__ = ["Dataset", "CellIndex", "load_dataset", "build_cell_index", "write_dataset_csv"]


# the absent-treatment warning names at most this many labels
_NAMED_ABSENT = 5


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
        try:
            w = np.array(treatments, dtype=int)
        except OverflowError:
            raise OutOfRangeTreatment("a treatment label lies beyond the int64 range") from None
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
        # labels lie in 1..T, so the count and the first few absent labels
        # take time bounded by N, not by T
        present = np.unique(w)
        num_absent = self.num_treatments - len(present)
        if num_absent:
            first = np.arange(1, min(self.num_treatments, len(present) + _NAMED_ABSENT) + 1)
            absent = np.setdiff1d(first, present, assume_unique=True)
            named = tuple(absent[:_NAMED_ABSENT].tolist())
            total = f" ({num_absent} absent in all)" if num_absent > len(named) else ""
            warnings.warn(
                f"treatments {named} never occur in the data{total}", stacklevel=2
            )

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def num_covariates(self) -> int:
        return self.covariates.shape[1]

    @cached_property
    def cell_index(self) -> "CellIndex":
        """The exact-cell index of the covariate rows, built on first use."""
        return build_cell_index(self)

    @cached_property
    def row_order(self) -> np.ndarray | None:
        """Units in ascending order of the first covariate, built on first use.

        None when two units share its value (``-0.0 == 0.0`` counts).  Every
        logistic fit on the covariates takes its rows from this one order,
        so they come sorted (see :func:`~csps.estimation.fit_binary_logistic`).
        """
        return _tie_free_order(self.covariates[:, 0])

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


def _tie_free_order(column: np.ndarray) -> np.ndarray | None:
    """The read-only ascending order of ``column``, or None on a tie or a NaN.

    ``-0.0 == 0.0`` counts as a tie.  Without one, the order is the stable
    argsort's, and any subset of it ascends strictly.
    """
    order = np.argsort(column, kind="stable")
    ascending = column[order]
    if not (ascending[1:] > ascending[:-1]).all():
        return None
    order = order.astype(_index_dtype(len(order)), copy=False)
    order.setflags(write=False)
    return order


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


def _parse_body(fh, num_fields: int, cov_idx: list[int], trt_idx: int):
    """Covariates and labels of a plain numeric CSV body, or None.

    One ``np.loadtxt`` call parses every row: the treatment field as an
    integer and every other field as a covariate float, so a row with the
    wrong number of fields fails it.  None means loadtxt refused the body or
    warned (a quoted field, a blank entry, an empty body, ``1_000`` ...):
    the row parser then either accepts the body or says which line is wrong.
    """
    dtype = np.dtype([(f"f{j}", "i8" if j == trt_idx else "f8") for j in range(num_fields)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except (ValueError, Warning):
        return None
    X = np.empty((len(body), len(cov_idx)))
    for k, j in enumerate(cov_idx):
        X[:, k] = body[f"f{j}"]
    return X, body[f"f{trt_idx}"]


def _csv_rows(reader, path):
    """The rows of ``reader``; text it cannot read fails as a ParseError."""
    try:
        yield from reader
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise ParseError(f"{path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        # text is decoded a chunk ahead of the rows, so the line is not known
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_rows(reader, path, num_fields: int, cov_idx: list[int], trt_idx: int):
    """Covariates and labels of the CSV rows after the header, row by row."""
    X_rows: list[list[float]] = []
    w_rows: list[int] = []
    for lineno, row in enumerate(_csv_rows(reader, path), start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != num_fields:
            raise ParseError(
                f"{path}, line {lineno}: expected {num_fields} fields, got {len(row)}"
            )
        where = f"{path}, line {lineno}"
        X_rows.append([_parse_float(row[j], where) for j in cov_idx])
        w_rows.append(_parse_treatment(row[trt_idx], where))
    if not X_rows:
        raise EmptyFile(f"{path}: no data rows")
    return X_rows, w_rows


def load_dataset(path) -> Dataset:
    """Read a dataset from CSV.

    The header names the columns, and no two names (stripped of surrounding
    whitespace) may be the same.  The treatment column is ``"w"`` when
    present, otherwise the last column; every other column is a covariate.
    T is the largest label.

    Every row must have one field per header column.  Covariates are
    decimals as Python's ``float`` reads them and treatments integers as
    ``int`` reads them, with surrounding whitespace allowed.  Fields may be
    quoted, blank lines and rows of blank fields are skipped, and ``#``
    starts no comment.  A plain numeric body is parsed in one array pass;
    anything else, and any file that cannot be read twice (a pipe), goes row
    by row, which also names the line of the first bad entry.  Only the
    header and the row parser are bound by ``csv.field_size_limit()``: they
    refuse a longer field, the array pass reads it.  The file must be UTF-8
    text with a header on its first line.  Every refusal is a
    :class:`~csps.errors.CspsError`.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(_csv_rows(reader, path))
        except StopIteration:
            raise EmptyFile(f"{path}: file is empty") from None
        if not header:
            raise ParseError(f"{path}, line 1: blank header line")
        header = [h.strip() for h in header]
        name, count = Counter(header).most_common(1)[0]
        if count > 1:
            raise ParseError(f"{path}, line 1: column {name!r} is named {count} times")
        trt_idx = header.index("w") if "w" in header else len(header) - 1
        cov_idx = [j for j in range(len(header)) if j != trt_idx]
        if not cov_idx:
            raise ParseError(f"{path}: no covariate columns")

        parsed = None
        if fh.seekable():  # the row parser may have to read the body again
            parsed = _parse_body(fh, len(header), cov_idx, trt_idx)
            if parsed is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
        if parsed is None:
            parsed = _parse_rows(reader, path, len(header), cov_idx, trt_idx)

    X, w = parsed
    names = [header[j] for j in cov_idx]
    return Dataset(X, w, covariate_names=names, treatment_name=header[trt_idx])


# rows are formatted a block at a time: only one block's Python numbers and
# strings exist at once
_ROWS_PER_BLOCK = 2048


def _column_formatter(name: str, column, num_rows: int):
    """The function that gives ``(spec, values)`` for ``column`` in a block of rows.

    ``column`` is an integer, unsigned or float array of ``num_rows``
    entries, or a masked array of one; anything else is a ``ValueError``.
    ``spec`` is the ``%``-format that the row template applies to
    ``values``: ``%.17g`` for floats and ``%d`` for integers.  In a block
    where a masked array has a masked entry, that entry is an empty field:
    ``spec`` is then ``%s`` and the fields come formatted.
    """
    if not isinstance(column, np.ndarray) or column.dtype.kind not in "fiu":
        raise ValueError(f"column {name!r} is not an integer or float array")
    if len(column) != num_rows:
        raise ValueError(f"column {name!r} has the wrong length")
    values = np.ma.getdata(column)
    blank = np.ma.getmaskarray(column) if np.ma.isMaskedArray(column) else None
    spec = "%.17g" if values.dtype.kind == "f" else "%d"

    def fields(block: slice) -> tuple[str, list]:
        part = values[block]
        out = (part.astype(float, copy=False) if spec == "%.17g" else part).tolist()
        hidden = [] if blank is None else np.flatnonzero(blank[block]).tolist()
        if not hidden:
            return spec, out
        out = list(map(spec.__mod__, out))
        for i in hidden:
            out[i] = ""
        return "%s", out

    return fields


def _write_csv_columns(path, header: list[str], columns: list, num_rows: int) -> None:
    """Write a header row and ``num_rows`` rows of ``columns`` as CSV.

    Each block of rows is written with one row template joined from the
    columns' ``%``-formats (see ``_column_formatter``).  Numbers and empty
    fields hold no delimiter, quote or line break, so ``csv.writer`` would
    write them unquoted: the rows are formatted directly, with its ``\\r\\n``
    line ends.
    """
    formatters = [_column_formatter(*named, num_rows) for named in zip(header, columns)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, num_rows, _ROWS_PER_BLOCK):
            block = slice(start, start + _ROWS_PER_BLOCK)
            specs, values = zip(*[fields(block) for fields in formatters])
            template = ",".join(specs) + "\r\n"
            fh.write("".join(map(template.__mod__, zip(*values))))


def write_dataset_csv(
    dataset: Dataset,
    path,
    extra_columns: Mapping[str, np.ndarray] | None = None,
) -> None:
    """Write the dataset (plus optional appended columns) as CSV.

    Covariates and float extras are written with 17 significant digits,
    which round-trips float64 exactly, and integer extras as integers.  An
    extra column is an integer, unsigned or float array with one entry per
    unit, or a masked array of one (masked entries become empty fields);
    anything else is a ``ValueError``, raised before the file is opened.
    """
    extras = dict(extra_columns or {})
    _write_csv_columns(
        path,
        list(dataset.covariate_names) + [dataset.treatment_name] + list(extras),
        list(dataset.covariates.T) + [dataset.treatments] + list(extras.values()),
        dataset.n_units,
    )
