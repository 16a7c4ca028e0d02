import numpy as np
import pytest
from hypothesis import settings
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

from csps.example_data import worked_example_dataset

# Property tests draw the same examples on every run (derandomize), and no
# per-example deadline applies, since timing on a loaded machine varies.
settings.register_profile("csps", derandomize=True, deadline=None)
settings.load_profile("csps")

# Hypothesis also mixes the literal constants of every loaded local module
# into its examples, so what a property draws would depend on which test
# files are collected with it.  It has no public switch for this, so the
# private hook returns no constants; if an upgrade removes the hook, the
# run fails here rather than drawing collection-dependent examples.
if not callable(getattr(providers, "_get_local_constants", None)):
    raise RuntimeError(
        "hypothesis.internal.conjecture.providers._get_local_constants is gone: "
        "property examples would again depend on the collected test files"
    )
providers._get_local_constants = lambda: Constants()


@pytest.fixture
def example():
    """The embedded 24-unit, 3-treatment, 4-cell dataset."""
    return worked_example_dataset()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
