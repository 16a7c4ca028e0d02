"""Score estimation: exact-cell frequencies and logistic maximum likelihood.

The score of a bifurcation is the conditional probability, given covariates,
of landing in its positive group among units assigned to either group.  Two
estimators are provided: empirical frequencies over exact covariate cells
(kept exactly, as reduced integer numerator and denominator arrays), and
Newton maximum likelihood for a binary logistic model of the bifurcation.
Both return a :class:`ScoreVector`, which holds arrays rather than per-unit
Python objects; its ``undefined_units``, not a per-unit mask, says which
units have no score.  The Newton fit's only setting is an optional ridge
penalty, finite and nonnegative: its iteration limit (:data:`MAX_ITER`) and
gradient-norm tolerance (:data:`TOL`) are fixed constants.  The penalised
log-likelihood and its gradient are written once, as private kernels over
the intercept design and the penalty vector.  The log-likelihood kernel sums
``log(1 + e**z)`` as ``max(z, 0) + log1p(exp(-|z|))`` with numpy's
vectorised ``exp`` and ``log1p``; against ``np.logaddexp`` that moves only
the last bits of each log-likelihood, which the fit reads only through its
step acceptance test, so no coefficient changes.  That test allows for the
rounding of the two sums whose difference the log-likelihood is, not only
of the difference, so a fit that has converged in all but rounding stops
at :data:`TOL` instead of halving its steps until :data:`MAX_ITER`.  The
kernels write into output buffers when given them: the Newton loop does
its per-row work in two vectors made once per fit, and passes no penalty
at ridge 0, where every penalty term is zero.  A prediction whose linear
predictor is beyond float64 is the limit score, 0 or 1, without a numpy
warning.  An argument of the wrong shape, type or range raises
:class:`~csps.errors.InvalidArgument`, which is also a ``ValueError``.

Scores are predicted for every unit, including units outside the bifurcation:
the score is a function of the covariates alone, and downstream chaining uses
it as a covariate for other contrasts.  Conditioning on membership happens
where the estimand requires it, not here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import _umath_linalg

from .contrasts import Contrast, assignment_indicators
from .data import Dataset, _dense_ids, _reordering
from .errors import (
    DimensionMismatch,
    InvalidArgument,
    MissingValue,
    NotAContrast,
    NotConverged,
    OneClassOnly,
    SeparationDetected,
    SingularHessian,
    TooFewUnits,
)

__all__ = [
    "BinaryLogisticModel",
    "ScoreVector",
    "fit_binary_logistic",
    "empirical_csps",
    "model_csps",
]

MAX_ITER = 100  # Newton iterations before a fit counts as not converged
TOL = 1e-8  # convergence threshold on the (penalised) gradient norm
MAX_HALVINGS = 30
SEPARATION_RESIDUAL = 1e-6  # every unit fit this well means no finite optimum
SEPARATION_NORM = 1e6
_EPS = float(np.finfo(float).eps)


def _acceptance_slack(value: float, partition: float = 0.0) -> float:
    """How far a trial step's log-likelihood may fall below ``value`` and be taken.

    ``value`` is the log-likelihood of the current point, ``y @ z -
    partition``, with ``partition`` its log-partition (0 when not known: the
    slack of the total alone).  Near the optimum the true gain of a Newton
    step falls below the rounding of those two sums, which can be far larger
    than their difference.  So the slack is a few ulps of ``1 + |value| +
    partition``, which bounds both: ``y @ z`` is at most the log-partition,
    and when negative at most ``|value|`` in magnitude.  Each term is scaled
    before they are added, so the slack is finite whatever the sums are,
    and never below the slack of the total alone.
    """
    return 8.0 * _EPS * (1.0 + abs(value)) + 8.0 * _EPS * partition


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``0.5 * (1 + tanh(z / 2))``, overflow-safe for large ``|z|``, into ``out``
    (a new array when None; ``out`` may be ``z`` itself)."""
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    np.add(out, 1.0, out=out)
    return np.multiply(out, 0.5, out=out)


def _design(features: np.ndarray) -> np.ndarray:
    """The intercept design: a column of ones, then ``features``."""
    X = np.empty((features.shape[0], features.shape[1] + 1))
    X[:, 0] = 1.0
    X[:, 1:] = features
    return X


def _as_feature_matrix(features) -> np.ndarray:
    F = np.asarray(features, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    if F.ndim != 2:
        raise InvalidArgument("features must be a matrix (or a single column)")
    return F


def _check_ridge(ridge) -> None:
    """InvalidArgument unless ``ridge`` is a finite, nonnegative real number (not a bool)."""
    try:
        valid = not isinstance(ridge, (bool, np.bool_)) and math.isfinite(ridge) and ridge >= 0
    except TypeError:  # a str, a complex, None ...
        valid = False
    if not valid:
        raise InvalidArgument(f"ridge must be finite and nonnegative, got {ridge!r}")


def _penalty(ridge, size: int) -> np.ndarray:
    """Per-coefficient ridge weights: 0 for the intercept, ``ridge`` otherwise."""
    _check_ridge(ridge)
    pen = np.zeros(size)
    pen[1:] = ridge
    return pen


def _penalised_ll(X, y, w, pen, z=None, buf=None, partition=None) -> tuple[float, np.ndarray]:
    """Bernoulli log-likelihood of design ``X``, minus the penalty ``pen @ (w * w) / 2``.

    Also returns ``z = X @ w``, from which the gradient at ``w`` is computed.
    The log-partition ``sum(log(1 + e**z))`` is summed as ``sum(max(z, 0))``
    plus ``sum(log1p(exp(-|z|)))``, with numpy's vectorised ufuncs, in one
    buffer of ``len(z)`` floats; no element overflows.  Against
    ``np.logaddexp(0.0, z)`` the elements differ by at most a few ulps.  A
    NaN in ``z``, which ``exp`` and ``log1p`` pass on without numpy's invalid
    flag, raises ``FloatingPointError`` as that flag does under the fit's
    ``np.errstate``.

    ``z`` and ``buf``, when given, are vectors of ``len(y)`` floats that
    receive ``X @ w`` and the log-partition's scratch; otherwise both are
    new.  ``partition``, when given, is a list whose first item receives the
    log-partition, whose rounding :func:`_acceptance_slack` allows for.
    A ``pen`` of None is no penalty, without the terms that a zero penalty
    adds as zeros.
    """
    z = np.matmul(X, w, out=z)
    buf = np.maximum(z, 0.0, out=buf)
    positive = buf.sum()
    np.abs(z, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    np.log1p(buf, out=buf)
    log_partition = positive + buf.sum()
    ll = float(y @ z - log_partition)
    if math.isnan(ll):
        raise FloatingPointError("invalid value encountered in the log-likelihood")
    if partition is not None:
        partition[0] = float(log_partition)
    if pen is not None:
        ll -= 0.5 * float(pen @ (w * w))
    return ll, z


def _penalised_gradient(X, y, w, z, pen, p=None, residual=None):
    """Gradient of :func:`_penalised_ll` at ``w`` from its ``z``; also ``p`` and ``y - p``.

    ``p`` and ``residual``, when given, are vectors of ``len(y)`` floats
    that receive the probabilities and the residual; ``residual`` may be
    ``z`` itself, which is read first.  A ``pen`` of None is no penalty, as
    in :func:`_penalised_ll`.
    """
    p = _sigmoid(z, out=p)
    residual = np.subtract(y, p, out=residual)
    g = X.T @ residual
    if pen is not None:
        g -= pen * w
    return g, p, residual


def _binary_labels(labels, rows: int) -> np.ndarray:
    """``labels`` as ``rows`` bools or floats; InvalidArgument unless each is a bool, 0 or 1."""
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != rows:
        raise InvalidArgument("labels must be a vector matched to features")
    if y.dtype != bool:
        y = y.astype(float)
        if np.any((y != 0.0) & (y != 1.0)):
            raise InvalidArgument("labels must be boolean or 0/1")
    return y


@contextmanager
def _float64_failures(X: np.ndarray):
    """Run under numpy's raising errstate, and type what it raises.

    A ``FloatingPointError`` is a :class:`~csps.errors.MissingValue` when
    design ``X`` holds a NaN or infinite feature, which is checked only
    then, and otherwise :class:`SingularHessian`: the Newton system is
    beyond float64.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        if not np.isfinite(X).all():
            raise MissingValue("features contain NaN or infinite entries") from None
        raise SingularHessian(f"the Newton system is beyond float64 ({exc})") from None


@dataclass(frozen=True, eq=False)
class BinaryLogisticModel:
    """Fitted binary logistic coefficients (intercept first), and how the
    Newton fit that found them ended: whether it converged, after how many
    iterations, and at what gradient norm."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    final_gradient_norm: float


def fit_binary_logistic(features, labels, ridge: float = 0.0) -> BinaryLogisticModel:
    """Maximise the penalised Bernoulli log-likelihood by Newton steps with halving.

    The objective is the log-likelihood of the labels minus half the ridge
    times the sum of the squared non-intercept coefficients.

    The fit converges when the (penalised) gradient norm falls below the
    fixed :data:`TOL`; it stops unconverged after :data:`MAX_ITER` Newton
    iterations.  Features so large that the Newton system overflows float64
    raise :class:`SingularHessian`, and a NaN or infinite feature
    :class:`~csps.errors.MissingValue`, without a numpy warning; the
    features are checked only once the Newton system has failed.  Labels
    other than bools, 0 and 1 raise :class:`~csps.errors.InvalidArgument`,
    a ``ValueError``.

    The rows are summed in one canonical order, lexicographic in (features,
    label), so the result does not depend on their order.  Rows already in
    that order are copied into the design as they stand; rows in feature
    order need at most their labels ordered within runs of equal rows: a
    caller that fits many subsets of one design sorts it once.

    Parameters
    ----------
    features:
        M x P matrix (an intercept column is added internally).
    labels:
        M booleans or 0/1 values; both classes must occur.
    ridge:
        Optional penalty on non-intercept coefficients, finite and
        nonnegative.  With ridge 0 a perfectly separable dataset raises
        :class:`SeparationDetected`.
    """
    F = _as_feature_matrix(features)
    y = _binary_labels(labels, F.shape[0])
    if y.size == 0:
        raise InvalidArgument("empty dataset")
    if np.count_nonzero(y) in (0, y.size):
        raise OneClassOnly("labels contain a single class")
    pen = _penalty(ridge, F.shape[1] + 1)

    order = _reordering(F, y)
    if order is None:  # already in canonical order: the design copies F as it stands
        X, y = _design(F), y.astype(float, copy=False)
    else:
        X, y = _design(F.take(order, axis=0)), y[order].astype(float, copy=False)
    del order  # not held through the Newton loop, whose temporaries set peak memory
    with _float64_failures(X):
        return _newton(X, y, pen, ridge)


def _newton(X: np.ndarray, y: np.ndarray, pen: np.ndarray, ridge) -> BinaryLogisticModel:
    """The Newton iterations of :func:`fit_binary_logistic`, from w = 0.

    A result beyond float64, which numpy then reports as a
    ``FloatingPointError``, rejects a trial step and fails any other stage.

    The per-row work runs in two vectors of ``len(y)`` floats, made once per
    fit.  ``z`` holds the linear predictor, then the residual ``y - p``,
    then the Hessian weights ``p * (1 - p)``, then the next trial's
    predictor; ``p`` holds the probabilities, then the log-likelihood's
    scratch.  The weighted design is built once per iteration and not kept.
    At ridge 0 the kernels skip the penalty terms, which would add zeros.
    """
    w = np.zeros(X.shape[1])
    z, p = np.empty(len(y)), np.empty(len(y))
    kernel_pen = pen if ridge else None
    partition = [0.0]  # the log-partition of the point last evaluated
    ll = _penalised_ll(X, y, w, kernel_pen, z, p, partition)[0]
    slack = _acceptance_slack(ll, partition[0])
    pen_matrix = np.diag(pen)

    # one pass per point w: the gradient there, then a Newton step from it
    # unless w is the optimum or the MAX_ITER-th step's result
    for iterations in range(MAX_ITER + 1):
        g, _, residual = _penalised_gradient(X, y, w, z, kernel_pen, p, z)
        if (
            ridge == 0.0
            and iterations < MAX_ITER
            and residual.max() < SEPARATION_RESIDUAL
            and residual.min() > -SEPARATION_RESIDUAL
        ):
            raise SeparationDetected(
                "every unit is fitted almost perfectly; the likelihood has no "
                "finite maximiser (retry with ridge > 0)"
            )
        grad_norm = math.sqrt(g.dot(g))
        converged = grad_norm < TOL
        if converged or iterations == MAX_ITER:
            break
        weights = np.subtract(1.0, p, out=z)
        np.multiply(p, weights, out=weights)
        H = (X * weights[:, None]).T @ X + pen_matrix
        try:
            # np.linalg.solve's own LAPACK gufunc, without its Python wrapper:
            # the same bytes, and a singular H sets the invalid flag, which
            # the fit's errstate raises
            step = _umath_linalg.solve1(H, g, signature="dd->d")
        except FloatingPointError:
            raise SingularHessian("Newton system is singular") from None
        for _ in range(MAX_HALVINGS + 1):
            candidate = w + step
            try:
                new_ll = _penalised_ll(X, y, candidate, kernel_pen, z, p, partition)[0]
            except FloatingPointError:
                new_ll = -math.inf
            if new_ll >= ll - slack:
                break
            step = 0.5 * step
        else:
            raise SingularHessian(
                "step-halving exhausted without improving the log-likelihood"
            )
        # z and partition hold those of the accepted candidate
        w, ll, slack = candidate, new_ll, _acceptance_slack(new_ll, partition[0])
        if ridge == 0.0 and math.sqrt(w.dot(w)) > SEPARATION_NORM:
            raise SeparationDetected(
                "coefficient norm exceeded 1e6 while the likelihood keeps "
                "improving (retry with ridge > 0)"
            )

    return BinaryLogisticModel(
        coefficients=w,
        converged=converged,
        iterations=iterations,
        final_gradient_norm=grad_norm,
    )


# ---------------------------------------------------------------------------
# score vectors

# below this every int64 converts to float64 exactly, so a quotient of two
# converted ints is the correctly rounded value of the fraction
_EXACT_FLOAT_INT = 2 ** 53
_INT64_MAX = np.iinfo(np.int64).max
# below this denominator, float quotients rank exact scores exactly
_FLOAT_RANK_LIMIT = 2 ** 26


def _reduced(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 ratios ``num / den`` in lowest terms, as new arrays (0/0 stays 0/0)."""
    divisor = np.gcd(num, den)
    divisor[divisor == 0] = 1
    return num // divisor, den // divisor


def _int64_entries(values) -> np.ndarray:
    """``values`` as a new int64 array; InvalidArgument unless all are int64 integers."""
    raw = np.asarray(values)
    if raw.size and (
        raw.dtype.kind not in "biu" or (raw.dtype.kind == "u" and raw.max() > _INT64_MAX)
    ):
        raise InvalidArgument(
            "exact scores need integer numerators and denominators that fit in int64"
        )
    return raw.astype(np.int64)


class ScoreVector:
    """Per-unit scores in [0, 1], some of which may be undefined.

    Scores are held as arrays, never as per-unit objects, and are built by
    one of two class methods.  :meth:`from_floats` wraps model scores, one
    float64 per unit, all defined.  :meth:`from_ratios` wraps exact scores
    (empirical cell frequencies): reduced int64 numerator and denominator
    arrays with one entry per source of values, typically a cell, plus the
    entry of every unit; a zero denominator marks an undefined entry (a cell
    without group members).  A score that
    :func:`~csps.balancing.run_algorithm` made on exact cells has one entry
    per chained cell and reads it through two maps, the dataset's covariate
    cell of each unit and the entry of each covariate cell, so it holds no
    array per unit of its own.  ``undefined_units``, the units whose score
    is undefined, is derived from these arrays on access, in place of a
    per-unit defined mask.  ``values`` spells the scores out as a tuple of
    floats, :class:`~fractions.Fraction` objects and ``None``, built on
    first access: it is the only exact read-out of the scores that
    :attr:`~csps.balancing.ContrastBalance.scores` returns, and
    ``csps example`` prints the worked example's cell scores from it.
    """

    __slots__ = (
        "_floats", "_numerators", "_denominators", "_index", "_entry_of_cell", "_values"
    )

    def __init__(self, *args, **kwargs):
        raise TypeError("build scores with ScoreVector.from_floats or .from_ratios")

    @classmethod
    def from_floats(cls, scores) -> "ScoreVector":
        """Float scores, all defined, from an array (copied)."""
        floats = np.array(scores, dtype=float)
        if floats.ndim != 1:
            raise InvalidArgument("scores must be a vector")
        bad = np.flatnonzero(~((floats >= 0) & (floats <= 1)))
        if bad.size:
            raise InvalidArgument(
                f"score {float(floats[bad[0]])!r} of unit {int(bad[0])} outside [0, 1]"
            )
        return cls._frozen(floats=floats)

    @classmethod
    def from_ratios(cls, numerators, denominators, index) -> "ScoreVector":
        """Exact scores: unit ``i`` scores ``numerators[j] / denominators[j]``, j = index[i].

        The entries are nonnegative integers below 2**63, typically one per
        cell, so the fractions are reduced per entry rather than per unit.  A
        zero denominator marks an undefined score.  ``index`` holds integers
        in ``[0, len(numerators))``; a read-only one is kept without a copy.
        Anything else raises :class:`~csps.errors.InvalidArgument`, a
        ``ValueError``, never a truncated or wrapped value.
        """
        num = _int64_entries(numerators)
        den = _int64_entries(denominators)
        if num.ndim != 1 or num.shape != den.shape:
            raise InvalidArgument("numerators and denominators must be vectors of one length")
        num, den = _reduced(num, den)
        valid = (den == 0) | ((den > 0) & (num >= 0) & (num <= den))
        bad = np.flatnonzero(~valid)
        if bad.size:
            j = int(bad[0])
            raise InvalidArgument(f"score {num[j]}/{den[j]} outside [0, 1]")
        index = np.asarray(index)
        if index.ndim != 1 or index.dtype.kind not in "iu" or (
            index.size and (index.min() < 0 or index.max() >= len(num))
        ):
            raise InvalidArgument(f"index must be a vector of integers in [0, {len(num)})")
        if index.flags.writeable:
            index = index.copy()
        return cls._frozen(numerators=num, denominators=den, index=index)

    @classmethod
    def _frozen(cls, floats=None, numerators=None, denominators=None, index=None):
        """An instance over these arrays, which it makes read-only."""
        for array in (floats, numerators, denominators, index):
            if array is not None:
                array.setflags(write=False)
        self = cls.__new__(cls)
        self._floats = floats
        self._numerators = numerators
        self._denominators = denominators
        self._index = index
        self._entry_of_cell = None
        self._values = None
        return self

    def __len__(self) -> int:
        return len(self._floats if self._floats is not None else self._index)

    def _per_cell(self, entries: np.ndarray) -> np.ndarray:
        """Values per entry as values per index target: ``entries`` itself,
        or gathered once over the cells through ``_entry_of_cell``."""
        return entries if self._entry_of_cell is None else entries[self._entry_of_cell]

    @property
    def undefined_units(self) -> np.ndarray:
        """Ascending indices of the units whose score is undefined (a new array).

        Empty without touching the unit index unless an entry has a zero
        denominator, so always empty for float scores.
        """
        if self._floats is not None or self._denominators.all():
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(self._per_cell(self._denominators == 0)[self._index])

    @property
    def values(self) -> tuple:
        """Per-unit scores: floats or Fractions, ``None`` where undefined."""
        if self._values is None:
            if self._floats is not None:
                self._values = tuple(self._floats.tolist())
            else:
                entries = [
                    Fraction(n, d) if d else None
                    for n, d in zip(self._numerators.tolist(), self._denominators.tolist())
                ]
                if self._entry_of_cell is not None:
                    entries = [entries[j] for j in self._entry_of_cell.tolist()]
                self._values = tuple(entries[j] for j in self._index.tolist())
        return self._values

    def as_floats(self) -> np.ndarray:
        """Scores as a new float64 array (exact ones correctly rounded), NaN where undefined."""
        if self._floats is not None:
            return self._floats.copy()
        num, den = self._numerators, self._denominators
        with np.errstate(divide="ignore", invalid="ignore"):
            entry = num / den
        wide = np.flatnonzero(den > _EXACT_FLOAT_INT)
        if wide.size:
            entry[wide] = [n / d for n, d in zip(num[wide].tolist(), den[wide].tolist())]
        entry[den == 0] = np.nan
        return self._per_cell(entry)[self._index]

    def _with_index(self, index: np.ndarray, entry_of_cell: np.ndarray) -> "ScoreVector":
        """The same exact entries over another index, through ``entry_of_cell``:
        unit i's entry is ``entry_of_cell[index[i]]``.  Both are read-only
        and kept without a copy."""
        scores = ScoreVector._frozen(
            numerators=self._numerators, denominators=self._denominators, index=index
        )
        scores._entry_of_cell = entry_of_cell
        return scores

    def dense_ranks(self, units=None) -> np.ndarray:
        """Small nonnegative ranks of the scores of ``units`` (default: all).

        Ranks ascend with the score and are equal exactly for equal scores;
        undefined scores share one rank above all others.  Ranks need not be
        consecutive.  Exact scores are ranked per entry, and only the rank
        of each unit asked for is gathered per unit.  When every denominator
        is below 2**26, two distinct reduced ratios in [0, 1] differ by more
        than 2**-52 and each correctly rounded quotient is off by at most
        2**-54, so ``np.unique`` of the float quotients orders the entries
        exactly (an undefined entry is keyed NaN, which sorts last).  A larger
        denominator has the distinct entries ordered by their Fractions.
        """
        pick = slice(None) if units is None else units
        if self._floats is not None:
            return np.unique(self._floats[pick], return_inverse=True)[1]
        num, den = self._numerators, self._denominators
        if int(den.max(initial=0)) < _FLOAT_RANK_LIMIT:
            with np.errstate(divide="ignore", invalid="ignore"):
                key = num / den
            key[den == 0] = np.nan  # a ratio n/0 would be infinite
            rank = np.unique(key, return_inverse=True)[1]
        else:
            ids, n = _dense_ids([num, den])
            # equal ids carry equal values, so these writes agree
            nums = np.zeros(n, dtype=np.int64)
            dens = np.zeros(n, dtype=np.int64)
            nums[ids], dens[ids] = num, den
            nums, dens = nums.tolist(), dens.tolist()
            order = sorted(
                (j for j in range(n) if dens[j]), key=lambda j: Fraction(nums[j], dens[j])
            )
            rank_of_id = np.full(n, len(order), dtype=np.intp)
            rank_of_id[order] = np.arange(len(order))
            rank = rank_of_id[ids]
        return self._per_cell(rank)[self._index[pick]]


def _check_width(dataset: Dataset, contrast: Contrast) -> None:
    if not isinstance(contrast, Contrast):
        raise NotAContrast(f"expected a Contrast, got {contrast!r}")
    if contrast.num_treatments != dataset.num_treatments:
        raise DimensionMismatch(
            f"contrast {contrast.describe()} has {contrast.num_treatments} "
            f"treatments, dataset has {dataset.num_treatments}"
        )


def empirical_csps(dataset: Dataset, contrast: Contrast) -> ScoreVector:
    """Score by exact-cell frequencies: share of the positive group per cell.

    Every unit in a cell receives the cell's value, an exact rational.
    Cells containing no group member at all are left undefined (masked).
    A dataset with no units is a TooFewUnits, as in
    :func:`~csps.balancing.run_algorithm`.
    """
    if dataset.n_units == 0:
        raise TooFewUnits("the dataset has no units")
    _check_width(dataset, contrast)
    d = assignment_indicators(contrast, dataset.treatments)
    cells = dataset.cell_index
    return _cell_scores(cells.cell_of_unit, cells.num_cells, d)


def _cell_scores(
    cells: np.ndarray, num_cells: int, d: np.ndarray, count=None, index=None
) -> ScoreVector:
    """Exact scores of cells: each cell's units with ``d == 1`` over those with ``d != 0``.

    ``cells[i]`` is the cell of row i, ``d[i]`` its +1/-1/0 indicator and
    ``count[i]`` the units it stands for (one when None).  One
    ``np.bincount`` keyed ``cell * 3 + d + 1`` counts both; weighted, it
    adds integers below 2**53, exactly.  The scores are over ``index``,
    ``cells`` when None, which they make read-only.  The counts need only
    their gcd reduction: they are nonnegative int64 with ``num <= den``, so
    none of :meth:`ScoreVector.from_ratios`'s checks could fail.
    """
    key = cells * np.intp(3)
    key += d
    key += 1
    counts = np.bincount(key, count, minlength=3 * num_cells).reshape(num_cells, 3)
    counts = counts.astype(np.int64, copy=False)
    num, den = _reduced(counts[:, 2], counts[:, 0] + counts[:, 2])
    return ScoreVector._frozen(
        numerators=num, denominators=den, index=cells if index is None else index
    )


def _logistic_scores(features, d, ridge: float, order: np.ndarray) -> ScoreVector:
    """Fit a binary logistic model on the units with ``d != 0``, score every unit.

    ``d`` holds +1/-1/0 group indicators.  ``order`` is the design's
    canonical order (``_canonical_order`` of ``features``): the fit takes
    its units in that order, so it runs no full sort of them.  Raises
    :class:`NotConverged` when the Newton fit stops at :data:`MAX_ITER`
    iterations without reaching :data:`TOL`, and :class:`OneClassOnly` when
    no unit is in either group.  The sigmoid is taken in place on the
    predictions, and that array becomes the score as it is, without a copy,
    once its least and greatest entries show it lies in [0, 1];
    :meth:`ScoreVector.from_floats` refuses anything else, a NaN included,
    with its own text.
    """
    F = _as_feature_matrix(features)
    d = np.asarray(d)
    rows = order[d[order] != 0]
    if not rows.size:
        raise OneClassOnly("the bifurcation has no units")
    model = fit_binary_logistic(F.take(rows, axis=0), d[rows] == 1, ridge=ridge)
    if not model.converged:
        raise NotConverged(
            f"Newton fit stopped after {model.iterations} iterations with "
            f"gradient norm {model.final_gradient_norm:.3g} (tol {TOL:g})"
        )
    # a linear predictor beyond float64 is infinite, and its score the limit 0 or 1
    with np.errstate(over="ignore"):
        z = _design(F) @ model.coefficients
    scores = _sigmoid(z, out=z)
    if np.minimum.reduce(scores) >= 0.0 and np.maximum.reduce(scores) <= 1.0:
        return ScoreVector._frozen(floats=scores)
    return ScoreVector.from_floats(scores)


def model_csps(dataset: Dataset, contrast: Contrast, ridge: float = 0.0) -> ScoreVector:
    """Score by a binary logistic model fitted on the bifurcation's units.

    The fit uses only units assigned to one of the two groups, but predicts
    for all units, so the result is always fully defined.
    """
    _check_width(dataset, contrast)
    d = assignment_indicators(contrast, dataset.treatments)
    return _logistic_scores(dataset.covariates, d, ridge, dataset.row_order)
