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
the intercept design and the penalty vector; the fit calls them, and the
public :func:`bernoulli_log_likelihood` and :func:`bernoulli_gradient` are
thin wrappers around the same kernels, so they are the fit's own objective.

Scores are predicted for every unit, including units outside the bifurcation:
the score is a function of the covariates alone, and downstream chaining uses
it as a covariate for other contrasts.  Conditioning on membership happens
where the estimand requires it, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .contrasts import Contrast, _coerce, assignment_indicators
from .data import Dataset, _index_dtype, _tie_free_order
from .errors import (
    DimensionMismatch,
    NotConverged,
    OneClassOnly,
    SeparationDetected,
    SingularHessian,
    ZeroDenominator,
)

__all__ = [
    "BinaryLogisticModel",
    "ScoreVector",
    "fit_binary_logistic",
    "empirical_csps",
    "model_csps",
    "csps_from_treatment_probs",
    "bernoulli_log_likelihood",
    "bernoulli_gradient",
]

MAX_ITER = 100  # Newton iterations before a fit counts as not converged
TOL = 1e-8  # convergence threshold on the (penalised) gradient norm
MAX_HALVINGS = 30
SEPARATION_RESIDUAL = 1e-6  # every unit fit this well means no finite optimum
SEPARATION_NORM = 1e6
_EPS = float(np.finfo(float).eps)


def _acceptance_slack(value: float) -> float:
    # near the optimum the true gain of a Newton step can fall below the
    # float resolution of the total log-likelihood; accept within a few ulps
    return 8.0 * _EPS * (1.0 + abs(value))


def _sigmoid(z):
    # tanh form is overflow-safe for large |z|
    return 0.5 * (1.0 + np.tanh(0.5 * z))


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
        raise ValueError("features must be a matrix (or a single column)")
    return F


def _canonical_order(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The row order of a fit: lexicographic in (features, label).

    Fit results must not depend on unit order, so the accumulation order is
    pinned by sorting the rows (identical rows are interchangeable).  When
    the first feature has no ties, a stable argsort of it is that order;
    any tie (``-0.0 == 0.0`` counts as one) or NaN in it falls back to the
    full lexicographic sort.
    """
    if features.shape[1]:
        order = _tie_free_order(features[:, 0])
        if order is not None:
            return order
    keys = [labels] + [features[:, k] for k in reversed(range(features.shape[1]))]
    return np.lexsort(keys)


def _check_ridge(ridge) -> None:
    if not (math.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")


def _penalty(ridge, size: int) -> np.ndarray:
    """Per-coefficient ridge weights: 0 for the intercept, ``ridge`` otherwise."""
    _check_ridge(ridge)
    pen = np.zeros(size)
    pen[1:] = ridge
    return pen


def _penalised_ll(X, y, w, pen) -> tuple[float, np.ndarray]:
    """Bernoulli log-likelihood of design ``X``, minus the penalty ``pen @ (w * w) / 2``.

    Also returns ``z = X @ w``, from which the gradient at ``w`` is computed.
    """
    z = X @ w
    ll = float(y @ z - np.logaddexp(0.0, z).sum())
    return ll - 0.5 * float(pen @ (w * w)), z


def _penalised_gradient(X, y, w, z, pen) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of :func:`_penalised_ll` at ``w`` from its ``z``; also ``p`` and ``y - p``."""
    p = _sigmoid(z)
    residual = y - p
    return X.T @ residual - pen * w, p, residual


def _objective_args(features, labels, coefficients, ridge):
    X = _design(_as_feature_matrix(features))
    w = np.asarray(coefficients, dtype=float)
    return X, np.asarray(labels, dtype=float), w, _penalty(ridge, len(w))


def bernoulli_log_likelihood(features, labels, coefficients, ridge: float = 0.0) -> float:
    """The objective :func:`fit_binary_logistic` maximises, at ``coefficients``.

    The Bernoulli log-likelihood minus the ridge penalty on non-intercept
    terms; the fit evaluates this same kernel.
    """
    return _penalised_ll(*_objective_args(features, labels, coefficients, ridge))[0]


def bernoulli_gradient(features, labels, coefficients, ridge: float = 0.0) -> np.ndarray:
    """Gradient of :func:`bernoulli_log_likelihood`, the fit's own kernel."""
    X, y, w, pen = _objective_args(features, labels, coefficients, ridge)
    return _penalised_gradient(X, y, w, _penalised_ll(X, y, w, pen)[1], pen)[0]


@dataclass(frozen=True, eq=False)
class BinaryLogisticModel:
    """Fitted binary logistic coefficients (intercept first)."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    final_gradient_norm: float
    log_likelihood_path: tuple[float, ...]


def fit_binary_logistic(features, labels, ridge: float = 0.0) -> BinaryLogisticModel:
    """Maximise :func:`bernoulli_log_likelihood` by Newton steps with halving.

    The fit converges when the (penalised) gradient norm falls below the
    fixed :data:`TOL`; it stops unconverged after :data:`MAX_ITER` Newton
    iterations.  Features so large that the Newton system overflows float64
    raise :class:`SingularHessian`, without a numpy warning.

    The rows are summed in a canonical order (see ``_canonical_order``), so
    the result does not depend on their order.  Rows whose first feature
    already ascends strictly are in that order, and are fitted without a
    sort: a caller that fits many subsets of one design sorts it once and
    passes each subset in sorted order.

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
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != F.shape[0]:
        raise ValueError("labels must be a vector matched to features")
    if y.size == 0:
        raise ValueError("empty dataset")
    if y.dtype == bool:
        if y.all() or not y.any():
            raise OneClassOnly("labels contain a single class")
    else:
        y = y.astype(float)
        if np.all(y == y[0]):
            raise OneClassOnly("labels contain a single class")
        if np.any((y != 0.0) & (y != 1.0)):
            raise ValueError("labels must be boolean or 0/1")
    pen = _penalty(ridge, F.shape[1] + 1)

    # rows whose first feature ascends strictly are in canonical order already
    if not (F.shape[1] and (F[1:, 0] > F[:-1, 0]).all()):
        order = _canonical_order(F, y)
        F, y = F[order], y[order]
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _newton(_design(F), y.astype(float, copy=False), pen, ridge)
    except FloatingPointError as exc:
        raise SingularHessian(f"the Newton system is beyond float64 ({exc})") from None


def _newton(X: np.ndarray, y: np.ndarray, pen: np.ndarray, ridge) -> BinaryLogisticModel:
    """The Newton iterations of :func:`fit_binary_logistic`, from w = 0.

    A result beyond float64, which numpy then reports as a
    ``FloatingPointError``, rejects a trial step and fails any other stage.
    """
    w = np.zeros(X.shape[1])
    ll, z = _penalised_ll(X, y, w, pen)
    ll_path = [ll]
    pen_matrix = np.diag(pen)

    # one pass per point w: the gradient there, then a Newton step from it
    # unless w is the optimum or the MAX_ITER-th step's result
    for iterations in range(MAX_ITER + 1):
        g, p, residual = _penalised_gradient(X, y, w, z, pen)
        if (
            ridge == 0.0
            and iterations < MAX_ITER
            and np.max(np.abs(residual)) < SEPARATION_RESIDUAL
        ):
            raise SeparationDetected(
                "every unit is fitted almost perfectly; the likelihood has no "
                "finite maximiser (retry with ridge > 0)"
            )
        # not held through the Hessian's N x P temporaries, which set peak memory
        del z, residual
        grad_norm = math.sqrt(g.dot(g))
        converged = grad_norm < TOL
        if converged or iterations == MAX_ITER:
            break
        weights = p * (1.0 - p)
        H = (X * weights[:, None]).T @ X + pen_matrix
        try:
            # np.linalg.solve's own LAPACK gufunc, without its Python wrapper:
            # the same bytes, and a singular H sets the invalid flag, which
            # the fit's errstate raises
            step = _umath_linalg.solve1(H, g, signature="dd->d")
        except FloatingPointError:
            raise SingularHessian("Newton system is singular") from None
        current = ll_path[-1]
        for _ in range(MAX_HALVINGS + 1):
            candidate = w + step
            try:
                new_ll, z = _penalised_ll(X, y, candidate, pen)
            except FloatingPointError:
                new_ll = -math.inf
            if new_ll >= current - _acceptance_slack(current):
                break
            step = 0.5 * step
        else:
            raise SingularHessian(
                "step-halving exhausted without improving the log-likelihood"
            )
        w = candidate  # z is that of the accepted candidate
        ll_path.append(new_ll)
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
        log_likelihood_path=tuple(ll_path),
    )


# ---------------------------------------------------------------------------
# score vectors

# below this every int64 converts to float64 exactly, so a quotient of two
# converted ints is the correctly rounded value of the fraction
_EXACT_FLOAT_INT = 2 ** 53
# packed group keys stay below this, so one more multiply-add cannot
# overflow int64
_KEY_LIMIT = 2 ** 62
_INT64_MAX = np.iinfo(np.int64).max


def _renumber(key: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Ids ``0..n-1`` of the distinct values of ``key`` (all below ``span``), and n.

    Ids ascend with the value.  A span up to about twice the key length is
    renumbered through a lookup table, without sorting: its int32 table then
    takes less memory than the sort temporaries of ``np.unique``, which
    renumbers larger spans.
    """
    if span > 2 * len(key) + 1024:
        distinct, ids = np.unique(key, return_inverse=True)
        return ids.astype(_index_dtype(len(distinct)), copy=False), len(distinct)
    table = np.zeros(span, dtype=_index_dtype(span))
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


def _int64_entries(values) -> np.ndarray:
    """``values`` as a new int64 array; ValueError unless all are int64 integers."""
    raw = np.asarray(values)
    if raw.size and (
        raw.dtype.kind not in "biu" or (raw.dtype.kind == "u" and raw.max() > _INT64_MAX)
    ):
        raise ValueError(
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
    without group members).  ``undefined_units``, the units whose score is
    undefined, is derived from these arrays on access, in place of a
    per-unit defined mask.  ``values`` spells the scores out as a tuple of
    floats, :class:`~fractions.Fraction` objects and ``None``; it is built
    on first access, and the pipeline never reads it.
    """

    __slots__ = ("_floats", "_numerators", "_denominators", "_index", "_values")

    def __init__(self, *args, **kwargs):
        raise TypeError("build scores with ScoreVector.from_floats or .from_ratios")

    @classmethod
    def from_floats(cls, scores) -> "ScoreVector":
        """Float scores, all defined, from an array (copied)."""
        floats = np.array(scores, dtype=float)
        if floats.ndim != 1:
            raise ValueError("scores must be a vector")
        bad = np.flatnonzero(~((floats >= 0) & (floats <= 1)))
        if bad.size:
            raise ValueError(
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
        Anything else raises :class:`ValueError`, never a truncated or
        wrapped value.
        """
        num = _int64_entries(numerators)
        den = _int64_entries(denominators)
        if num.ndim != 1 or num.shape != den.shape:
            raise ValueError("numerators and denominators must be vectors of one length")
        divisor = np.gcd(num, den)
        divisor[divisor == 0] = 1
        num //= divisor
        den //= divisor
        valid = (den == 0) | ((den > 0) & (num >= 0) & (num <= den))
        bad = np.flatnonzero(~valid)
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"score {num[j]}/{den[j]} outside [0, 1]")
        index = np.asarray(index)
        if index.ndim != 1 or index.dtype.kind not in "iu" or (
            index.size and (index.min() < 0 or index.max() >= len(num))
        ):
            raise ValueError(f"index must be a vector of integers in [0, {len(num)})")
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
        self._values = None
        return self

    def __len__(self) -> int:
        return len(self._floats if self._floats is not None else self._index)

    @property
    def is_exact(self) -> bool:
        return self._floats is None

    @property
    def undefined_units(self) -> np.ndarray:
        """Ascending indices of the units whose score is undefined (a new array).

        Empty without touching the unit index unless an entry has a zero
        denominator, so always empty for float scores.
        """
        if self._floats is not None or self._denominators.all():
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero((self._denominators == 0)[self._index])

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
        return entry[self._index]

    def dense_ranks(self, units=None) -> np.ndarray:
        """Small nonnegative ranks of the scores of ``units`` (default: all).

        Ranks ascend with the score and are equal exactly for equal scores;
        undefined scores share one rank above all others.  Ranks need not be
        consecutive.  Exact scores are ranked per entry, where equal reduced
        numerators and denominators mean equal values, and Fractions are made
        only to order the few distinct values.
        """
        pick = slice(None) if units is None else units
        if self._floats is not None:
            return np.unique(self._floats[pick], return_inverse=True)[1]
        num, den = self._numerators, self._denominators
        ids, n = _dense_ids([num, den])
        # equal ids carry equal values, so these writes agree
        nums = np.zeros(n, dtype=np.int64)
        dens = np.zeros(n, dtype=np.int64)
        nums[ids], dens[ids] = num, den
        nums, dens = nums.tolist(), dens.tolist()
        order = sorted(
            (j for j in range(n) if dens[j]), key=lambda j: Fraction(nums[j], dens[j])
        )
        rank = np.full(n, len(order), dtype=_index_dtype(n + 1))
        rank[order] = np.arange(len(order))
        return rank[ids][self._index[pick]]


def _check_width(dataset: Dataset, contrast: Contrast) -> None:
    if contrast.num_treatments != dataset.num_treatments:
        raise DimensionMismatch(
            f"contrast {contrast.describe()} has {contrast.num_treatments} "
            f"treatments, dataset has {dataset.num_treatments}"
        )


def empirical_csps(dataset: Dataset, contrast: Contrast) -> ScoreVector:
    """Score by exact-cell frequencies: share of the positive group per cell.

    Every unit in a cell receives the cell's value, an exact rational.
    Cells containing no group member at all are left undefined (masked).
    """
    if dataset.n_units == 0:
        raise ValueError("dataset is empty")
    _check_width(dataset, contrast)
    d = assignment_indicators(contrast, dataset.treatments)
    cells = dataset.cell_index
    return _cell_scores(cells.cell_of_unit, cells.num_cells, d)


def _cell_scores(cells: np.ndarray, num_cells: int, d: np.ndarray) -> ScoreVector:
    """Exact scores of cells: each cell's units with ``d == 1`` over those with ``d != 0``.

    ``cells[i]`` is the cell of unit i and ``d`` holds +1/-1/0 indicators.
    One ``np.bincount`` keyed ``cell * 3 + d + 1`` counts both.
    """
    key = cells * np.intp(3)
    key += d
    key += 1
    counts = np.bincount(key, minlength=3 * num_cells).reshape(num_cells, 3)
    return ScoreVector.from_ratios(counts[:, 2], counts[:, 0] + counts[:, 2], index=cells)


def _logistic_scores(features, d, ridge: float, order) -> ScoreVector:
    """Fit a binary logistic model on the units with ``d != 0``, score every unit.

    ``d`` holds +1/-1/0 group indicators.  ``order`` is the tie-free
    ascending order of the first feature (``_tie_free_order``), or None when
    it has a tie: the fit takes its units in that order and does not sort
    them, or without one sorts them itself.  Raises :class:`NotConverged`
    when the Newton fit stops at :data:`MAX_ITER` iterations without
    reaching :data:`TOL`.
    """
    F = _as_feature_matrix(features)
    d = np.asarray(d)
    rows = d != 0 if order is None else order[d[order] != 0]
    model = fit_binary_logistic(F[rows], d[rows] == 1, ridge=ridge)
    if not model.converged:
        raise NotConverged(
            f"Newton fit stopped after {model.iterations} iterations with "
            f"gradient norm {model.final_gradient_norm:.3g} (tol {TOL:g})"
        )
    return ScoreVector.from_floats(_sigmoid(_design(F) @ model.coefficients))


def model_csps(dataset: Dataset, contrast: Contrast, ridge: float = 0.0) -> ScoreVector:
    """Score by a binary logistic model fitted on the bifurcation's units.

    The fit uses only units assigned to one of the two groups, but predicts
    for all units, so the result is always fully defined.
    """
    _check_width(dataset, contrast)
    d = assignment_indicators(contrast, dataset.treatments)
    return _logistic_scores(dataset.covariates, d, ridge, dataset.row_order)


def csps_from_treatment_probs(probs, contrast: Contrast):
    """Score implied by per-treatment assignment probabilities.

    Returns the probability mass on positive-coefficient treatments divided
    by the mass on all nonzero-coefficient treatments.  Exact inputs give an
    exact rational result.
    """
    p = [_coerce(v) for v in probs]
    if len(p) != contrast.num_treatments:
        raise DimensionMismatch(
            f"expected {contrast.num_treatments} probabilities, got {len(p)}"
        )
    if any(v < -1e-12 for v in p):
        raise ValueError("probabilities must be nonnegative")
    total = sum(p)
    if abs(float(total) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {float(total)!r}, expected 1")
    signs = contrast.sign()
    numerator = sum(v for v, s in zip(p, signs) if s > 0)
    denominator = sum(v for v, s in zip(p, signs) if s != 0)
    if denominator == 0:
        raise ZeroDenominator(
            "no probability mass on the treatments the contrast uses"
        )
    result = numerator / denominator
    return result if isinstance(result, Fraction) else float(result)
