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

from dataclasses import dataclass, field

import numpy as np

from .balancing import AlgorithmConfig, run_algorithm
from .contrasts import Contrast, assignment_indicators
from .data import Dataset

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


@dataclass(frozen=True)
class SimulationConfig:
    """Design of one simulation experiment.

    ``coefficients`` holds one row per treatment (T rows of K entries); the
    assignment probability of treatment t at covariates x is proportional to
    ``exp(coefficients[t] @ x)``.
    """

    coefficients: tuple[tuple[float, ...], ...]
    num_units: int = 800
    replications: int = 100
    seed: int = 0
    balancing: tuple[Contrast, ...] = field(default_factory=default_balancing)
    targets: tuple[Contrast, ...] = field(default_factory=simulation_contrasts)
    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)

    def __post_init__(self):
        coeffs = tuple(tuple(float(v) for v in row) for row in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        T = len(coeffs)
        if T < 2:
            raise ValueError("at least two treatments are required")
        K = len(coeffs[0])
        if K < 1 or any(len(row) != K for row in coeffs):
            raise ValueError("coefficient rows must share a common length K >= 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.num_units < T:
            raise ValueError("num_units must be at least the number of treatments")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not self.balancing:
            raise ValueError("at least one balancing contrast is required")
        for c in tuple(self.balancing) + tuple(self.targets):
            if c.num_treatments != T:
                raise ValueError(
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
    B = np.array(coefficients, dtype=float)
    X = rng.standard_normal((n, B.shape[1]))
    eta = X @ B.T
    eta -= eta.max(axis=1, keepdims=True)
    P = np.exp(eta)
    P /= P.sum(axis=1, keepdims=True)
    u = rng.random(n)
    W = 1 + (u[:, None] > np.cumsum(P, axis=1)[:, :-1]).sum(axis=1)
    return X, W.astype(int)


def sample_dataset(cfg: SimulationConfig, replication_index: int) -> Dataset:
    """Draw one replication's dataset from the stream ``(seed, index)``."""
    if replication_index < 0:
        raise ValueError("replication_index must be nonnegative")
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
    minus negative-group covariate means.  The default size keeps the Monte
    Carlo error of each entry below about 0.005.
    """
    rng = np.random.default_rng([cfg.seed, 0, oracle_n])
    X, W = _draw(rng, int(oracle_n), cfg.coefficients)
    out = np.empty((len(cfg.targets), cfg.num_covariates))
    for j, target in enumerate(cfg.targets):
        d = assignment_indicators(target, W)
        out[j] = X[d == 1].mean(axis=0) - X[d == -1].mean(axis=0)
    return out
