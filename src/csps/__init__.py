"""Contrast-specific propensity scores for multi-treatment studies.

The package covers the full design-stage workflow: contrast algebra and
bifurcations, score estimation (exact cells or logistic maximum likelihood),
chained balancing with subclassification, covariate balance diagnostics, and
a reproducible Monte Carlo harness.
"""

from .balancing import (
    AlgorithmConfig,
    BalanceReport,
    ContrastBalance,
    SubclassAssignment,
    SubclassBalanceRow,
    chained_propensity,
    covariate_mean_difference,
    run_algorithm,
    subclassify,
)
from .contrasts import (
    Bifurcation,
    Contrast,
    assignment_indicators,
    bifurcation_span_contains,
    parse_contrast,
    read_contrast_file,
    sgn_bifurcate,
)
from .data import CellIndex, Dataset, build_cell_index, load_dataset, write_dataset_csv
from .estimation import (
    BinaryLogisticModel,
    ScoreVector,
    empirical_csps,
    fit_binary_logistic,
    model_csps,
)
from .simulation import (
    ExperimentResult,
    SimulationConfig,
    default_balancing,
    mechanism_i,
    mechanism_ii,
    oracle_group_means,
    run_experiment,
    sample_dataset,
    simulation_contrasts,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AlgorithmConfig",
    "BalanceReport",
    "Bifurcation",
    "BinaryLogisticModel",
    "CellIndex",
    "Contrast",
    "ContrastBalance",
    "Dataset",
    "ExperimentResult",
    "ScoreVector",
    "SimulationConfig",
    "SubclassAssignment",
    "SubclassBalanceRow",
    "assignment_indicators",
    "bifurcation_span_contains",
    "build_cell_index",
    "chained_propensity",
    "covariate_mean_difference",
    "default_balancing",
    "empirical_csps",
    "errors",
    "fit_binary_logistic",
    "load_dataset",
    "mechanism_i",
    "mechanism_ii",
    "model_csps",
    "oracle_group_means",
    "parse_contrast",
    "read_contrast_file",
    "run_algorithm",
    "run_experiment",
    "sample_dataset",
    "sgn_bifurcate",
    "simulation_contrasts",
    "subclassify",
    "write_dataset_csv",
]
