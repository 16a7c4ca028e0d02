import numpy as np
import pytest
from hypothesis import settings

from csps.example_data import worked_example_dataset

# Property tests draw the same examples on every run (derandomize), and no
# per-example deadline applies, since timing on a loaded machine varies.
settings.register_profile("csps", derandomize=True, deadline=None)
settings.load_profile("csps")


@pytest.fixture
def example():
    """The embedded 24-unit, 3-treatment, 4-cell dataset."""
    return worked_example_dataset()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
