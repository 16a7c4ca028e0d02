"""Study data: covariate matrix, treatment labels, and exact-cell indexing.

Labels pass one checker (:func:`_whole_labels`, with :func:`_check_shape`
for their shape), and distinct rows of integer codes get one numbering
(:func:`_dense_ids`), which gives the exact cells of the covariate rows
and, in the estimators, the chained cells and the ranks of exact scores.
"""

from __future__ import annotations

import csv
import operator
import os
import warnings
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EmptyFile, InvalidArgument, MissingValue, OutOfRangeTreatment, ParseError

__all__ = ["Dataset", "CellIndex", "load_dataset", "build_cell_index", "write_dataset_csv"]


# the absent-treatment warning names at most this many labels
_NAMED_ABSENT = 5


class Dataset:
    """Immutable container for N units with K covariates and a treatment label.

    Treatment labels lie in ``1..num_treatments`` and follow the label rule
    of :func:`_whole_labels` (``2.0`` and ``Fraction(2)`` are kept as ``2``;
    ``1.5``, ``True`` and ``"2"`` are an OutOfRangeTreatment); a given
    ``num_treatments`` is whole and in [1, 2**63).  A malformed argument
    (covariates not 2-D or without a column, treatments not one per unit,
    a bad ``num_treatments``, names that are not an iterable or of another
    count, names given as one string, bytes or mapping, covariates that are
    not real numbers: a complex value, text that ``float`` cannot read, rows
    of unequal length) raises :class:`~csps.errors.InvalidArgument`, which
    is also a ``ValueError``.  Covariates must be finite; missing data is
    rejected at ingestion.  A label in 1..T that never occurs is recorded as
    a warning, not an error.  The labels are checked here once: the
    estimators and the balancing pass read a dataset's ``treatments`` as
    labels in 1..T without checking them again.  In a CSV file the
    treatments are the column ``w`` (see :func:`load_dataset`).
    """

    def __init__(
        self,
        covariates,
        treatments,
        num_treatments: int | None = None,
        covariate_names: Iterable[str] | None = None,
    ):
        X = _real_matrix(covariates)
        if X.ndim != 2:
            raise InvalidArgument(f"covariates must be 2-D, got ndim={X.ndim}")
        if X.shape[1] < 1:
            raise InvalidArgument("at least one covariate column is required")
        if not np.all(np.isfinite(X)):
            raise MissingValue("covariates contain NaN or infinite entries")
        if num_treatments is not None:
            num_treatments = _whole_count(num_treatments, "num_treatments")
        w = _whole_labels(treatments, 1, num_treatments, OutOfRangeTreatment, "treatment label")
        _check_shape(
            w, (X.shape[0],), InvalidArgument,
            "treatments must be a vector with one entry per unit",
        )
        if num_treatments is None:
            if w.size == 0:
                raise InvalidArgument("num_treatments is required for an empty dataset")
            num_treatments = int(w.max())
        w = w.copy()  # the caller's int64 array passes the checker as it is
        if covariate_names is None:
            covariate_names = tuple(f"x{k + 1}" for k in range(X.shape[1]))
        elif isinstance(covariate_names, (str, bytes, bytearray, Mapping)):
            # iterated, these would give characters, byte values or keys
            raise InvalidArgument(
                f"covariate_names must be an iterable of names, not {covariate_names!r}"
            )
        else:
            try:
                covariate_names = tuple(str(n) for n in covariate_names)
            except TypeError:
                raise InvalidArgument(
                    f"covariate_names must be an iterable of names, not {covariate_names!r}"
                ) from None
            if len(covariate_names) != X.shape[1]:
                raise InvalidArgument("covariate_names length must match columns")
        X.setflags(write=False)
        w.setflags(write=False)
        self.covariates = X
        self.treatments = w
        self.num_treatments = num_treatments
        self.covariate_names = covariate_names
        # labels lie in 1..T, so the count and the first few absent labels
        # take time bounded by N, not by T: a count per label up to about
        # twice the units, as _renumber and _count_pairs bound their tables,
        # else np.unique
        if num_treatments <= 2 * w.size + 1024:
            present = np.flatnonzero(np.bincount(w, minlength=num_treatments + 1))
        else:
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
    def row_order(self) -> np.ndarray:
        """The units in lexicographic order of their covariates, built on first use.

        A read-only intp index.  Every logistic fit on the covariates takes
        its units in this one order, so none of them runs a full sort (see
        :func:`_canonical_order`).
        """
        return _canonical_order(self.covariates)

    def __len__(self) -> int:
        return self.n_units

    def __repr__(self):
        return (
            f"Dataset(n_units={self.n_units}, num_covariates={self.num_covariates}, "
            f"num_treatments={self.num_treatments})"
        )


def _real_matrix(covariates) -> np.ndarray:
    """``covariates`` as a new float64 array, as ``np.array(..., dtype=float)``
    reads them; InvalidArgument where it cannot, or would drop an imaginary
    part (a complex value, even one whose imaginary part is 0, is not read)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            return np.array(covariates, dtype=float)
    except (TypeError, ValueError, OverflowError, np.exceptions.ComplexWarning) as exc:
        raise InvalidArgument(
            f"covariates must be real numbers that float64 holds ({exc})"
        ) from None


def _is_whole(value) -> bool:
    try:
        return not isinstance(value, (bool, np.bool_)) and bool(int(value) == value)
    except (TypeError, ValueError, OverflowError):
        return False


def _whole_count(value, name: str, least: int = 1, bounded: bool = True) -> int:
    """``value`` as an int; InvalidArgument naming ``name`` unless a whole number
    at least ``least`` (and below 2**63 when ``bounded``).  A bool is not a
    count."""
    count = int(value) if _is_whole(value) else None
    if count is None or not (least <= count and (count < 2 ** 63 or not bounded)):
        bound = "below 2**63, " if bounded else ""
        raise InvalidArgument(
            f"{name} must be {bound}at least {least} and a whole number, not {value!r}"
        )
    return count


_INT64 = np.dtype(np.int64)


def _whole_labels(values, least: int, most: int | None, error, noun: str, rule=None):
    """``values`` as an int64 array of labels in ``least..most`` (unbounded
    above when ``most`` is None), else ``error`` naming the first bad entry.

    Each entry must be a whole number that int64 holds: integer arrays pass
    as they are, floats must be finite and whole, objects equal to their
    ``int()``; strings and bools are not labels.  ``rule`` words the range
    in the refusal, with ``{least}`` and ``{most}`` filled in.
    """
    w = np.asarray(values)
    bad = None
    if w.dtype is not _INT64:
        flat, kind = w.ravel(), w.dtype.kind
        if kind == "O":
            held = np.array([_is_whole(v) and -(2 ** 63) <= int(v) < 2 ** 63
                             for v in flat.tolist()], dtype=bool)
        elif kind in "fiu":  # NaN and the infinities lie outside the int64 range
            edge = np.float64(2 ** 63) if kind == "f" else 2 ** 63  # beyond float16
            held = (flat >= -edge) & (flat < edge) & (kind != "f" or flat == np.trunc(flat))
        else:
            held = np.zeros(flat.shape, dtype=bool)
        if held.all():
            w = flat.astype(np.int64).reshape(w.shape)
        else:
            bad, problem = flat[~held], "is not a whole number that int64 holds"
    if bad is None and w.size and (w.min() < least or most is not None and w.max() > most):
        bad, problem = w[(w < least) | (most is not None and w > most)], "is out of range"
    if bad is not None:
        rule = rule or "whole numbers " + ("from {least}" if most is None else "in {least}..{most}")
        raise error(f"{noun} {bad.tolist()[0]!r} {problem}: {noun}s must be "
                    + rule.format(least=least, most=most))
    return w


def _check_shape(labels: np.ndarray, shape: tuple, error, message: str) -> None:
    """``error(message)`` unless ``labels`` has ``shape``, where a None length
    allows any."""
    if labels.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, labels.shape)):
        raise error(message)


def _canonical_order(features: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
    """The rows' order, lexicographic in (features, label), as ``np.lexsort``
    gives it (``-0.0 == 0.0``, NaN last, equal rows kept in place): a
    read-only intp index.  ``labels`` are 0/1 or booleans.  See
    :func:`_reordering`, which finds it.
    """
    order = _reordering(features, labels)
    if order is None:
        order = np.arange(len(features), dtype=np.intp)
    order.setflags(write=False)
    return order


def _reordering(features: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray | None:
    """The :func:`_canonical_order` of the rows, or None where it is the identity.

    Column 0 strictly ascending settles it at once; rows that ascend with
    ties have only their labels ordered, within runs of equal rows; other
    rows take an argsort of column 0 when that may have no tie (any sort
    then gives the one permutation, so it need not be stable), else the
    full ``np.lexsort``.  Column 0 is known to tie when two adjacent rows
    tie there, or when the rows descend past it, among rows that tie in
    it; those rows go straight to ``np.lexsort``.  So a design is sorted
    once, and a fit on its units, in its order, takes one of the first two
    steps.
    """
    n = len(features)
    if features.shape[1] and (features[1:, 0] > features[:-1, 0]).all():
        return None
    # equal[i]: rows i and i + 1 agree in every column read so far
    equal = np.ones(max(n - 1, 0), dtype=bool)
    for k, column in enumerate(features.T):
        ties = column[1:] == column[:-1]
        if (equal & ~(column[1:] >= column[:-1])).any():
            if k == 0 and not ties.any():
                order = np.argsort(column)
                first = column[order]
                if (first[1:] > first[:-1]).all():
                    return order
            keys = list(features.T[::-1])
            return np.lexsort(keys if labels is None else [labels, *keys])
        equal &= ties
    if labels is not None and (equal & (labels[1:] < labels[:-1])).any():
        run = np.concatenate(([0], np.cumsum(~equal)))
        return np.argsort(2 * run + labels, kind="stable")
    return None


# packed group keys stay below this, so one more multiply-add cannot
# overflow int64
_KEY_LIMIT = 2 ** 62


def _renumber(key: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Ids ``0..n-1`` of the distinct values of ``key`` (all below ``span``), and n.

    Ids ascend with the value, and are intp.  A span up to about twice the
    key length is renumbered through a lookup table, without sorting: the
    table then holds at most about two intp entries per key, while
    ``np.unique``, which renumbers larger spans, holds three or more (an
    argsort, a sorted copy and the ids).
    """
    if span > 2 * len(key) + 1024:
        distinct, ids = np.unique(key, return_inverse=True)
        return ids, len(distinct)
    table = np.zeros(span, dtype=np.intp)
    table[key] = 1
    np.cumsum(table, out=table)
    ids = table[key]
    ids -= 1
    return ids, int(table[-1])


def _dense_ids(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """Ids ``0..n-1`` of the distinct rows of equal-length nonnegative int columns.

    Equal rows share an id.  The columns are packed into one int64 key, and
    the key is renumbered before it could overflow and once at the end.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    span = 1
    for col in columns:
        width = int(col.max(initial=0)) + 1
        if span * width >= _KEY_LIMIT:
            key, span = _renumber(key, span)
            if span * width >= _KEY_LIMIT:
                col, width = _renumber(col, width)
        key = key * np.int64(width) + col
        span *= width
    return _renumber(key, span)


class _CellTable(NamedTuple):
    """The rows a balancing pass works on: units counted by (covariate cell,
    treatment), or the units themselves.

    Row r of a count table is covariate cell ``cell[r]``, whose row is
    ``values[cell[r]]``, with ``count[r] > 0`` units of label
    ``treatment[r]``; rows ascend by cell, then label, and every array is
    read-only.  With ``cell`` and ``count`` None, row r is unit r, whose
    covariate row is ``values[r]``.
    """

    cell: np.ndarray | None
    treatment: np.ndarray
    count: np.ndarray | None
    values: np.ndarray


class CellIndex:
    """Partition of units into cells of byte-identical covariate rows.

    Cells are ordered canonically (ascending covariate values, first column
    first, and ``+0.0`` before ``-0.0`` among rows of equal value), so
    everything derived from the index is invariant to the unit order in the
    dataset; :func:`build_cell_index` numbers them and is the one maker of
    an index.  ``rows[c]`` is the covariate row of cell ``c`` and
    ``cell_of_unit[i]`` the cell of unit ``i``, both read-only; the units of
    cell ``c`` are ``np.flatnonzero(cell_of_unit == c)``.  The index also
    keeps the units counted by (cell, treatment), as the count table
    ``_table`` whose ``values`` are ``rows``, from which the exact-cell
    estimators work, so that they read no array per unit once the index is
    built.
    """

    def __init__(self, table: _CellTable, cell_of_unit: np.ndarray):
        self._table = table
        self.rows = table.values  # (num_cells, K) covariate rows, one per cell
        self.cell_of_unit = cell_of_unit  # (N,) intp array

    @property
    def num_cells(self) -> int:
        return self.rows.shape[0]


def _check_dataset(dataset) -> None:
    """InvalidArgument unless ``dataset`` is a :class:`Dataset`, whose labels are checked."""
    if not isinstance(dataset, Dataset):
        raise InvalidArgument(f"expected a Dataset, got {type(dataset).__name__}")


def _check_path(path) -> None:
    """InvalidArgument unless ``open`` takes ``path`` as a path (a str, bytes
    or ``os.PathLike``) or a file descriptor (an integer from 0; a bool is
    neither), so a bad one is refused before anything is opened."""
    if isinstance(path, (str, bytes, os.PathLike)):
        return
    try:
        descriptor = not isinstance(path, (bool, np.bool_)) and operator.index(path) >= 0
    except TypeError:  # not an integer, or an array of more than one
        descriptor = False
    if not descriptor:
        raise InvalidArgument(f"path must be a file path or a descriptor from 0, not {path!r}")


def build_cell_index(dataset: Dataset) -> CellIndex:
    """Group units by exact (byte-level) equality of their covariate rows.

    Rows that differ only in the sign of a zero are separate cells.  Cells
    are ordered by their covariate values, first column first, then by the
    signs of their zeros, ``+0.0`` first: :func:`_dense_ids` numbers the
    rows of value codes, one per column, followed by a zero-sign code for
    each column that holds a ``-0.0``.

    The same call counts the units by (cell, treatment)
    (:func:`_count_pairs`) into the index's count table, whose values are
    the cells' rows, so the units are counted once per index, not once per
    exact-cell pass.  The counts hold three 8-byte entries per pair with
    units, so at most 24 bytes per unit, next to the index's own 8 bytes per
    unit and 8K bytes per cell.  Every array of the index is read-only.
    Anything but a :class:`Dataset` is an :class:`~csps.errors.InvalidArgument`.
    """
    _check_dataset(dataset)
    X = dataset.covariates
    codes = [np.unique(column, return_inverse=True)[1] for column in X.T]
    codes += [z.view(np.uint8) for z in ((X == 0) & np.signbit(X)).T if z.any()]
    cell_of_unit, num_cells = _dense_ids(codes)
    del codes  # else counting the units below peaks above the cells' build
    rows = np.empty((num_cells, X.shape[1]))
    rows[cell_of_unit] = X  # a cell's units share their bytes, so any one gives its row
    table = _CellTable(
        *_count_pairs(cell_of_unit, num_cells, dataset.treatments, dataset.num_treatments),
        rows,
    )
    for array in (*table, cell_of_unit):
        array.setflags(write=False)
    return CellIndex(table, cell_of_unit)


def _count_pairs(
    cell_of_unit: np.ndarray, num_cells: int, treatments: np.ndarray, num_treatments: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count the units by (cell, treatment), with one key per unit and one bincount.

    Unit i's key is ``cell * (T + 1) + treatment``.  Where more keys than
    about twice the units could occur, only the present ones are found (by
    ``np.unique``), so memory stays bounded by the units, not by cells x T.
    The keys are dropped on return, and the pairs with units, ascending, are
    returned as their cells, labels and counts.
    """
    width = num_treatments + 1
    key = cell_of_unit * np.intp(width)
    key += treatments
    num_keys = num_cells * width
    if num_keys > 2 * len(key) + 1024:
        pairs, count = np.unique(key, return_counts=True)
    else:
        count = np.bincount(key, minlength=num_keys)
        pairs = np.flatnonzero(count)
        count = count[pairs]
    return (*np.divmod(pairs, width), count)


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


# the suffixes of the files that np.loadtxt decompresses when given their path
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _body_path(path) -> str | None:
    """The path from which ``np.loadtxt`` reads the file at ``path`` as it is, or None.

    Given a path, loadtxt reads the file in chunks in C.  Only a path that
    ``os.fspath`` turns into a str qualifies: not a bytes path, which
    loadtxt would iterate as ints, nor a file descriptor, nor a name with a
    suffix that loadtxt decompresses.  It is made absolute, so loadtxt never
    takes it for a URL.
    """
    try:
        path = os.fspath(path)
    except TypeError:
        return None
    if not isinstance(path, str) or path.endswith(_COMPRESSED):
        return None
    return os.path.abspath(path)


def _parse_body(path: str, skiprows: int, num_fields: int, cov_idx: list[int], trt_idx: int):
    """Covariates and labels of a plain numeric CSV body, or None.

    ``path`` names a file whose first ``skiprows`` lines are the header
    (see :func:`_body_path`).  One ``np.loadtxt`` call parses every row:
    the treatment field as an integer and every other field as a covariate
    float, so a row with the wrong number of fields fails it.
    None means loadtxt refused the body or warned (a quoted field, a blank
    entry, an empty body, ``1_000`` ...), or could not read the path: the
    row parser then either accepts the body or says which line is wrong.
    """
    dtype = np.dtype([(f"f{j}", "i8" if j == trt_idx else "f8") for j in range(num_fields)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(
                path, delimiter=",", comments=None, ndmin=1, dtype=dtype,
                skiprows=skiprows, encoding="utf-8",
            )
    except (ValueError, OSError, Warning):
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
    whitespace) may be the same.  The treatment column is ``"w"``, the name
    :func:`write_dataset_csv` gives it, when present, otherwise the last
    column; every other column is a covariate.  T is the largest label.

    Every row must have one field per header column.  Covariates are
    decimals as Python's ``float`` reads them and treatments integers as
    ``int`` reads them, with surrounding whitespace allowed.  Fields may be
    quoted, blank lines and rows of blank fields are skipped, and ``#``
    starts no comment.  A plain numeric body is parsed in one array pass,
    by ``np.loadtxt`` from the path, when ``os.fspath`` gives a str and the
    file can be read twice (not a pipe): it skips the header's lines,
    ``csv.reader``'s count of them, and reads the file in chunks in C.  Any
    other source (a bytes path, a file descriptor, a compressed suffix), and
    any body that pass refuses, goes row by row from the open file, which
    also names the line of the first bad entry.  Only the
    header and the row parser are bound by ``csv.field_size_limit()``: they
    refuse a longer field, the array pass reads it.  The file must be UTF-8
    text with a header on its first line.  Every refusal is a
    :class:`~csps.errors.CspsError`; a ``path`` that is neither a path nor a
    file descriptor from 0 (None, -1, a bool) is an
    :class:`~csps.errors.InvalidArgument`, raised before anything is opened.
    """
    _check_path(path)
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

        # loadtxt reads the file again from its path, so the reader still
        # stands after the header when it refuses the body
        parsed = None
        body_path = _body_path(path)
        if body_path is not None and fh.seekable():
            parsed = _parse_body(body_path, reader.line_num, len(header), cov_idx, trt_idx)
        if parsed is None:
            parsed = _parse_rows(reader, path, len(header), cov_idx, trt_idx)

    X, w = parsed
    names = [header[j] for j in cov_idx]
    # a file read only up to its header still holds its read-ahead buffers
    del fh, reader
    return Dataset(X, w, covariate_names=names)


def write_dataset_csv(
    dataset: Dataset,
    path,
    extra_columns: Mapping[str, np.ndarray] | None = None,
) -> None:
    """Write the dataset as CSV, its treatments as the column ``w``, then any extras.

    Covariates and float extras are written exactly as ``'%.17g' % v``
    writes them (17 significant digits, which round-trip float64), and the
    treatments and integer extras as ``'%d' % v`` does.  An extra column is
    an integer, unsigned or float array with one entry per unit, or a
    masked array of one (masked entries become empty fields); anything else
    is an :class:`~csps.errors.InvalidArgument`, a ``ValueError``, raised
    before the file is opened.  So is a dataset of no units, whose
    header-only file :func:`load_dataset` would refuse, a column name with
    surrounding whitespace, which it strips, or one that, stripped, names
    another column, which it would refuse, a ``dataset`` that is not a
    :class:`Dataset`, or a ``path`` that is neither a path nor a file
    descriptor from 0 (as in :func:`load_dataset`).
    """
    from .csvwriter import write_csv_columns  # loaded on first write, not by ``import csps``

    _check_dataset(dataset)
    _check_path(path)
    if not dataset.n_units:
        raise InvalidArgument("a dataset of no units would be read back as an empty file")
    extras = dict(extra_columns or {})
    header = [str(h) for h in (*dataset.covariate_names, "w", *extras)]
    name, count = Counter(h.strip() for h in header).most_common(1)[0]
    if count > 1:
        raise InvalidArgument(f"column {name!r} would be named {count} times")
    padded = next((h for h in header if h != h.strip()), None)
    if padded is not None:
        raise InvalidArgument(f"column {padded!r} would be read back as {padded.strip()!r}")
    write_csv_columns(
        path,
        header,
        list(dataset.covariates.T) + [dataset.treatments] + list(extras.values()),
        dataset.n_units,
    )
