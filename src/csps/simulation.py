"""Monte Carlo harness: multinomial-logit assignment, replicated balancing.

Covariates are independent standard normals; treatments are drawn from a
multinomial logistic assignment mechanism with one coefficient vector per
treatment.  Each replication samples a dataset, runs the chained balancing
routine, and records before/after covariate mean differences per target.

Reproducibility contract: replication ``r`` uses the RNG stream seeded by
``(seed, r)``; the large-sample oracle uses the disjoint stream
``(seed, 0, oracle_n)``.  Identical configurations therefore give
bit-identical results, and replications can be regenerated individually.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .balancing import AlgorithmConfig, run_algorithm
from .contrasts import Contrast, assignment_indicators
from .data import Dataset, _whole_count
from .errors import InvalidArgument, NotAContrast

__all__ = [
    "SimulationConfig",
    "ExperimentResult",
    "simulation_contrasts",
    "default_balancing",
    "mechanism_i",
    "mechanism_ii",
    "sample_dataset",
    "run_experiment",
    "oracle_group_means",
]


def simulation_contrasts() -> tuple[Contrast, ...]:
    """The four three-treatment contrasts examined by the study harness."""
    return (
        Contrast(("1/3", "2/3", "-1"), label="both-vs-3"),
        Contrast((1, -1, 0), label="1-vs-2"),
        Contrast((1, 0, -1), label="1-vs-3"),
        Contrast((0, 1, -1), label="2-vs-3"),
    )


def default_balancing() -> tuple[Contrast, ...]:
    """Balancing set: the first two of :func:`simulation_contrasts`."""
    return simulation_contrasts()[:2]


# float() reads text and bools, and iteration splits text into characters
# or bytes, so neither is a coefficient nor text a row of them
_TEXT = (str, bytes, bytearray, memoryview)
_NOT_COEFFICIENTS = (*_TEXT, bool, np.bool_)


def _coefficient_rows(coefficients) -> tuple[tuple[float, ...], ...] | None:
    """The coefficients as rows of floats, each read by ``float()``, or None
    unless they are rows of numbers.  Text at either level is not, nor is a
    bool entry, as :class:`~csps.contrasts.Contrast` refuses bools."""
    try:
        if isinstance(coefficients, _TEXT):
            return None
        rows = [None if isinstance(row, _TEXT) else tuple(row) for row in coefficients]
        if any(row is None or any(isinstance(v, _NOT_COEFFICIENTS) for v in row) for row in rows):
            return None
        return tuple(tuple(float(v) for v in row) for row in rows)
    except (TypeError, ValueError, OverflowError):
        return None


@dataclass(frozen=True)
class SimulationConfig:
    """Design of one simulation experiment.

    ``coefficients`` holds one row per treatment (T rows of K entries); the
    assignment probability of treatment t at covariates x is proportional to
    ``exp(coefficients[t] @ x)``.  Malformed input is refused as a typed
    error: coefficients that are not rows of finite numbers (text and bools
    are not numbers, as in :class:`~csps.contrasts.Contrast`), counts that
    are not whole, or contrasts of another width raise
    :class:`~csps.errors.InvalidArgument`, also a ``ValueError``, and a
    ``balancing`` or ``targets`` that is not a sequence of
    :class:`~csps.contrasts.Contrast` raises
    :class:`~csps.errors.NotAContrast`.
    """

    coefficients: tuple[tuple[float, ...], ...]
    num_units: int = 800
    replications: int = 100
    seed: int = 0
    balancing: tuple[Contrast, ...] = field(default_factory=default_balancing)
    targets: tuple[Contrast, ...] = field(default_factory=simulation_contrasts)
    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)

    def __post_init__(self):
        coeffs = _coefficient_rows(self.coefficients)
        if coeffs is None:
            raise InvalidArgument(
                f"coefficients must be rows of numbers, got {reprlib.repr(self.coefficients)}"
            )
        object.__setattr__(self, "coefficients", coeffs)
        T = len(coeffs)
        if T < 2:
            raise InvalidArgument("at least two treatments are required")
        K = len(coeffs[0])
        if K < 1 or any(len(row) != K for row in coeffs):
            raise InvalidArgument("coefficient rows must share a common length K >= 1")
        if not all(math.isfinite(v) for row in coeffs for v in row):
            raise InvalidArgument(f"coefficients must be finite, got {coeffs!r}")
        # ints: numpy refuses a float count or seed only when it is used
        object.__setattr__(self, "num_units", _whole_count(self.num_units, "num_units", least=T))
        object.__setattr__(self, "replications", _whole_count(self.replications, "replications"))
        object.__setattr__(self, "seed", _whole_count(self.seed, "seed", least=0, bounded=False))
        try:
            balancing, targets = tuple(self.balancing), tuple(self.targets)
        except TypeError:
            raise NotAContrast("balancing and targets must be sequences of Contrasts") from None
        if not balancing:
            raise InvalidArgument("at least one balancing contrast is required")
        for c in balancing + targets:
            if not isinstance(c, Contrast):
                raise NotAContrast(f"expected a Contrast, got {c!r}")
            if c.num_treatments != T:
                raise InvalidArgument(
                    f"contrast {c.describe()} has {c.num_treatments} treatments, "
                    f"the mechanism has {T}"
                )

    @property
    def num_treatments(self) -> int:
        return len(self.coefficients)

    @property
    def num_covariates(self) -> int:
        return len(self.coefficients[0])


def mechanism_i(**kwargs) -> SimulationConfig:
    """Complete randomization: all coefficient vectors zero."""
    return SimulationConfig(coefficients=((0, 0, 0),) * 3, **kwargs)


def mechanism_ii(**kwargs) -> SimulationConfig:
    """Covariate-driven assignment with asymmetric treatment preferences."""
    return SimulationConfig(
        coefficients=((0, 0, 0), (0.75, 0.25, 0.5), (0.25, 0.75, 0.5)), **kwargs
    )


def _draw(rng: np.random.Generator, n: int, coefficients) -> tuple[np.ndarray, np.ndarray]:
    """``n`` units: standard normal covariates and their sampled treatments.

    A unit's treatment is one plus the number of its cumulative assignment
    probabilities, over the first T - 1 treatments, that its uniform draw
    exceeds.  The row max and the cumulative sums are taken column by
    column, which for a handful of columns costs fewer numpy calls than a
    row reduction: the max is exact in any order, and ``np.cumsum`` adds
    in sequence as the running sum does.  The row total stays
    ``P.sum(axis=1)``: numpy sums 8 or more columns pairwise, which a running
    sum would not match.

    Raises :class:`~csps.errors.InvalidArgument` naming the coefficients
    when the linear predictors overflow float64.
    """
    B = np.array(coefficients, dtype=float)
    X = rng.standard_normal((n, B.shape[1]))
    try:
        with np.errstate(over="raise"):
            eta = X @ B.T
            top = eta[:, 0].copy()
            for column in eta.T[1:]:
                np.maximum(top, column, out=top)
            eta -= top[:, None]
            P = np.exp(eta, out=eta)
            P /= P.sum(axis=1, keepdims=True)
    except FloatingPointError as exc:
        raise InvalidArgument(
            f"assignment coefficients {coefficients!r} overflow float64 ({exc})"
        ) from None
    u = rng.random(n)
    W = np.ones(n, dtype=int)
    threshold = np.zeros(n)
    for column in P.T[:-1]:
        threshold += column
        W += u > threshold
    return X, W


def sample_dataset(cfg: SimulationConfig, replication_index: int) -> Dataset:
    """Draw one replication's dataset from the stream ``(seed, index)``, index >= 0."""
    replication_index = _whole_count(replication_index, "replication_index", 0, bounded=False)
    rng = np.random.default_rng([cfg.seed, replication_index])
    X, W = _draw(rng, cfg.num_units, cfg.coefficients)
    return Dataset(X, W, num_treatments=cfg.num_treatments)


def _mean_of_kept(values: np.ndarray) -> np.ndarray:
    """Mean over replications of the non-NaN rows; NaN where none is kept.

    The same sums and quotients as ``np.nanmean``, without its warning for
    a target that every replication excluded.
    """
    kept = ~np.isnan(values)
    total = np.where(kept, values, 0.0).sum(axis=0)
    count = kept.sum(axis=0)
    return np.divide(total, count, out=np.full(total.shape, np.nan), where=count > 0)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Aggregated and per-replication balance summaries.

    ``before``/``after`` have shape (replications, targets, covariates) with
    NaN rows where a replication failed for that target; the failures are
    listed in ``errors`` as (replication, target index, message).
    """

    config: SimulationConfig
    before: np.ndarray
    after: np.ndarray
    errors: tuple[tuple[int, int, str], ...]

    @property
    def mean_before(self) -> np.ndarray:
        return _mean_of_kept(self.before)

    @property
    def mean_after(self) -> np.ndarray:
        return _mean_of_kept(self.after)

    def excluded_counts(self) -> np.ndarray:
        """Failed replications per target."""
        return np.isnan(self.before[:, :, 0]).sum(axis=0)


def run_experiment(cfg: SimulationConfig) -> ExperimentResult:
    """Run all replications and aggregate the balance diagnostics.

    Replication-level failures (for instance a degenerate draw) are recorded
    and excluded from the means rather than aborting the experiment.
    """
    R = cfg.replications
    n_targets = len(cfg.targets)
    K = cfg.num_covariates
    before = np.full((R, n_targets, K), np.nan)
    after = np.full((R, n_targets, K), np.nan)
    errors: list[tuple[int, int, str]] = []
    for r in range(R):
        dataset = sample_dataset(cfg, r)
        report = run_algorithm(dataset, cfg.balancing, cfg.targets, cfg.algorithm)
        for j, entry in enumerate(report.entries):
            if entry.error is not None:
                errors.append((r, j, entry.error))
                continue
            before[r, j] = entry.before
            after[r, j] = entry.after
    return ExperimentResult(
        config=cfg, before=before, after=after, errors=tuple(errors)
    )


def oracle_group_means(cfg: SimulationConfig, oracle_n: int = 1_000_000) -> np.ndarray:
    """Pooled before-balance differences from one very large draw.

    Bypasses the balancing pipeline entirely: draws ``oracle_n`` units from
    the configured mechanism and returns, per target, the positive-group
    minus negative-group covariate means, or NaN where the draw left one of
    the target's groups empty.  The default size keeps the Monte Carlo error
    of each entry below about 0.005; ``oracle_n`` = 0 gives NaN rows.
    """
    oracle_n = _whole_count(oracle_n, "oracle_n", 0, bounded=False)
    rng = np.random.default_rng([cfg.seed, 0, oracle_n])
    X, W = _draw(rng, oracle_n, cfg.coefficients)
    out = np.full((len(cfg.targets), cfg.num_covariates), np.nan)
    for j, target in enumerate(cfg.targets):
        d = assignment_indicators(target, W)
        positive, negative = X[d == 1], X[d == -1]
        if len(positive) and len(negative):
            out[j] = positive.mean(axis=0) - negative.mean(axis=0)
    return out
