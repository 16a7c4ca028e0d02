import ctypes
import glob
import os

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


def _openblas_getters() -> tuple[str, str]:
    """The core type and thread count that numpy's bundled OpenBLAS reports,
    each "unknown" where the library or its getter is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            blas = ctypes.CDLL(path)  # already loaded by numpy: the same handle
            core = blas.scipy_openblas_get_corename64_
            threads = blas.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        core.argtypes, core.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        return core().decode(), str(threads())
    return "unknown", "unknown"


def _numeric_environment() -> list[str]:
    """numpy's SIMD levels, the OpenBLAS kernel and the variables that pick them."""
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    enabled = [name for name in umath.__cpu_dispatch__ if features.get(name)]
    core, threads = _openblas_getters()
    variables = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    return [
        f"numpy {np.__version__}: SIMD baseline {' '.join(umath.__cpu_baseline__) or 'none'}, "
        f"dispatch targets enabled {' '.join(enabled) or 'none'}",
        f"OpenBLAS core {core}, {threads} threads",
        ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in variables),
    ]


# The bits of the logistic path depend on numpy's SIMD level and on the BLAS
# kernel, so a failure of a machine-pinned test is read against these lines:
# in the header, or at the end of a quiet (-q) run, which has no header.
def pytest_report_header(config):
    return _numeric_environment()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:
        terminalreporter.section("numeric environment")
        for line in _numeric_environment():
            terminalreporter.write_line(line)


@pytest.fixture
def example():
    """The embedded 24-unit, 3-treatment, 4-cell dataset."""
    return worked_example_dataset()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
