"""Spans around the public functions of the csps modules, taken from outside.

A traced function is replaced at every module-level binding inside the
``csps`` package, so a call is seen whichever module looks the name up: for
example ``csps.balancing.model_csps`` as well as
``csps.estimation.model_csps``.  The package's source is not edited.

Spans are kept in memory as ``[name, start, end, parent, info]`` lists, where
``parent`` is the index of the enclosing span and ``info`` holds what a hook
read from the call (Newton iterations, subclass count, ...).  Hook time is
recorded as a ``trace.hook`` span under the caller, so it never counts as a
layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

HOOK = "trace.hook"


def rebind(qualname: str, make_wrapper):
    """Replace every csps module-level binding of the object at ``qualname``.

    ``make_wrapper`` receives the current object and returns its stand-in.
    Returns a function that puts the current object back.  Wrappers nest:
    rebinding a name that is already wrapped wraps the wrapper, and restores
    must then run in reverse order.
    """
    module_name, attr = qualname.rsplit(".", 1)
    current = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(current)
    replaced = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "csps" or name.startswith("csps.")):
            continue
        for key, value in list(vars(module).items()):
            if value is current:
                setattr(module, key, wrapper)
                replaced.append((module, key))

    def restore():
        for module, key in replaced:
            setattr(module, key, current)

    return restore


def _fit_info(arguments, model):
    features = np.ascontiguousarray(arguments["features"], dtype=float)
    labels = np.ascontiguousarray(arguments["labels"], dtype=float)
    settings = {k: v for k, v in arguments.items() if k not in ("features", "labels")}
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((features.shape, sorted(settings.items()))).encode())
    digest.update(features.tobytes())
    digest.update(labels.tobytes())
    return {
        "iterations": int(model.iterations),
        "converged": bool(model.converged),
        "input": digest.hexdigest(),
    }


# Traced functions, by the module that defines them.  The hooks read work
# counts from the arguments and the result.
TRACED = {
    "contrasts.assignment_indicators": None,
    "contrasts.read_contrast_file": None,
    "data.load_dataset": None,
    "data.write_dataset_csv": None,
    "data.build_cell_index": lambda a, cells: cells.num_cells,
    "estimation.fit_binary_logistic": _fit_info,
    "estimation.model_csps": None,
    "estimation.empirical_csps": None,
    "balancing.chained_propensity": None,
    "balancing.subclassify": lambda a, assignment: assignment.num_subclasses,
    # 2K(1+S) exact group means: both groups, K covariates, pooled and per subclass
    "balancing.covariate_mean_difference": (
        lambda a, entry: 2 * len(entry.before_exact) * (1 + entry.num_subclasses)
    ),
    "balancing.run_algorithm": None,
    "simulation.sample_dataset": None,
    "simulation.run_experiment": None,
    "reporting.format_balance_table": None,
    "reporting.write_balance_csv": None,
    "reporting.format_experiment_table": None,
    "reporting.write_replications_csv": None,
    "cli.main": None,
}


class Tracer:
    """Records a span per call of every traced function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, time.perf_counter(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = hook(bound.arguments, result)
                spans.append([HOOK, start, time.perf_counter(), parent, None])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        restores = []
        try:
            for name, hook in TRACED.items():
                restores.append(
                    rebind(
                        "csps." + name,
                        lambda fn, name=name, hook=hook: self._wrap(name, fn, hook),
                    )
                )
            yield self
        finally:
            for restore in reversed(restores):
                restore()


def pass_metrics(spans: list[list], first: int, last: int, wall: float) -> dict:
    """Per-layer figures of one traced pass, from ``spans[first:last]``.

    ``.s`` is inclusive span time, ``.self_s`` excludes child spans, and
    ``trace.unattributed_s`` is the pass time outside every top-level span.
    """
    window = spans[first:last]
    covered = defaultdict(float)
    for name, start, end, parent, _ in window:
        if parent is not None:
            covered[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    info = defaultdict(list)
    top = 0.0
    for index, (name, start, end, parent, extra) in enumerate(window, start=first):
        if name == HOOK:
            continue
        total[name] += end - start
        own[name] += end - start - covered[index]
        calls[name] += 1
        if extra is not None:
            info[name].append(extra)
        if parent is None:
            top += end - start
    fits = info["estimation.fit_binary_logistic"]
    return {
        "estimation.fit_binary_logistic.s": total["estimation.fit_binary_logistic"],
        "estimation.fit_binary_logistic.calls": calls["estimation.fit_binary_logistic"],
        "estimation.newton_iters": sum(f["iterations"] for f in fits),
        "estimation.nonconverged": sum(not f["converged"] for f in fits),
        # distinct fit inputs per fit; 1 when no fit runs, as nothing is repeated
        "estimation.fit_unique_ratio": (
            len({f["input"] for f in fits}) / len(fits) if fits else 1.0
        ),
        "balancing.covariate_mean_difference.s": total["balancing.covariate_mean_difference"],
        "balancing.covariate_mean_difference.calls": calls["balancing.covariate_mean_difference"],
        "balancing.exact_means": sum(info["balancing.covariate_mean_difference"]),
        "estimation.model_csps.self_s": own["estimation.model_csps"],
        "estimation.empirical_csps.self_s": own["estimation.empirical_csps"],
        "balancing.chained_propensity.self_s": own["balancing.chained_propensity"],
        "balancing.chained_propensity.calls": calls["balancing.chained_propensity"],
        "balancing.subclassify.s": total["balancing.subclassify"],
        "balancing.subclasses": sum(info["balancing.subclassify"]),
        "data.build_cell_index.s": total["data.build_cell_index"],
        "data.cells": sum(info["data.build_cell_index"]),
        "data.load_dataset.s": total["data.load_dataset"],
        "data.write_dataset_csv.s": total["data.write_dataset_csv"],
        "cli.main.self_s": own["cli.main"],
        "simulation.sample_dataset.s": total["simulation.sample_dataset"],
        "simulation.run_experiment.self_s": own["simulation.run_experiment"],
        "reporting.s": sum(v for k, v in total.items() if k.startswith("reporting.")),
        "contrasts.assignment_indicators.s": total["contrasts.assignment_indicators"],
        "trace.unattributed_s": wall - top,
    }
