"""The package exports the names README's rule keeps, and every ``__all__`` holds."""

import importlib
import pkgutil

import pytest

import csps

# rule 1: what run_algorithm, run_experiment or a subcommand calls or returns
PIPELINE = {
    "AlgorithmConfig", "BalanceReport", "BinaryLogisticModel", "CellIndex", "Contrast",
    "ContrastBalance", "Dataset", "ExperimentResult", "ScoreVector", "SimulationConfig",
    "SubclassAssignment", "SubclassBalanceRow", "assignment_indicators", "build_cell_index",
    "default_balancing", "empirical_csps", "errors", "fit_binary_logistic", "load_dataset",
    "mechanism_i", "mechanism_ii", "model_csps", "oracle_group_means", "parse_contrast",
    "read_contrast_file", "run_algorithm", "run_experiment", "sample_dataset",
    "simulation_contrasts", "write_dataset_csv",
}
# rule 2: the pass's stages run on units, which the properties compare the pass against
REFERENCES = {"chained_propensity", "subclassify", "covariate_mean_difference"}
# rule 3: how the balance guarantee is stated
GUARANTEE = {"Bifurcation", "sgn_bifurcate", "bifurcation_span_contains"}


def test_exports_are_the_names_the_rule_keeps():
    assert len(csps.__all__) == len(set(csps.__all__)) == 36
    assert set(csps.__all__) == PIPELINE | REFERENCES | GUARANTEE


MODULES = sorted(m.name for m in pkgutil.iter_modules(csps.__path__))


@pytest.mark.parametrize("name", ["csps"] + [f"csps.{m}" for m in MODULES])
def test_every_name_in_all_exists(name):
    # a stale entry would break ``from module import *``
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
