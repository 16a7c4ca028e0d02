"""A 24-unit worked example with three treatments and three binary covariates.

The units come in four covariate cells of six units each, so every score can
be reproduced by hand.  Balancing on the scores of the first two contrasts
balances their bifurcations and, through the chained propensity score, any
linear combination of them: within each subclass the second-vs-third group
difference is exactly zero.  Balancing on the first-vs-second score alone
does not balance the other direction, which the counterexample demonstrates.

:func:`verify_worked_example` checks the pass behind ``csps balance``: the
entries of :func:`~csps.balancing.run_algorithm` on exact cells and exact
subclasses, for the target and for the counterexample.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .balancing import AlgorithmConfig, run_algorithm
from .contrasts import Contrast
from .data import Dataset
from .estimation import empirical_csps

__all__ = [
    "worked_example_dataset",
    "FIRST_CONTRAST",
    "SECOND_CONTRAST",
    "TARGET_CONTRAST",
    "EXPECTED_FIRST_SCORE",
    "EXPECTED_SECOND_SCORE",
    "EXPECTED_CHAINED_SCORE",
    "EXPECTED_NUM_SUBCLASSES",
    "EXPECTED_COUNTEREXAMPLE_MEANS",
    "verify_worked_example",
]

FIRST_CONTRAST = Contrast(("1/2", "1/2", "-1"), label="first-two-vs-third")
SECOND_CONTRAST = Contrast((1, -1, 0), label="first-vs-second")
TARGET_CONTRAST = Contrast((0, 1, -1), label="second-vs-third")

# four cells of six units; treatments per cell in row order
_CELLS = (
    ((1, 1, 1), (1, 2, 3, 3, 3, 3)),
    ((1, 0, 1), (1, 1, 1, 2, 3, 3)),
    ((0, 1, 1), (1, 1, 2, 2, 2, 3)),
    ((0, 0, 0), (1, 1, 2, 2, 3, 3)),
)

EXPECTED_FIRST_SCORE = {
    (1.0, 1.0, 1.0): Fraction(1, 3),
    (1.0, 0.0, 1.0): Fraction(2, 3),
    (0.0, 1.0, 1.0): Fraction(5, 6),
    (0.0, 0.0, 0.0): Fraction(2, 3),
}
EXPECTED_SECOND_SCORE = {
    (1.0, 1.0, 1.0): Fraction(1, 2),
    (1.0, 0.0, 1.0): Fraction(3, 4),
    (0.0, 1.0, 1.0): Fraction(2, 5),
    (0.0, 0.0, 0.0): Fraction(1, 2),
}
EXPECTED_CHAINED_SCORE = {
    (1.0, 1.0, 1.0): Fraction(1, 5),
    (1.0, 0.0, 1.0): Fraction(1, 3),
    (0.0, 1.0, 1.0): Fraction(3, 4),
    (0.0, 0.0, 0.0): Fraction(1, 2),
}
EXPECTED_NUM_SUBCLASSES = 4

# balancing on the first-vs-second score alone, in its middle subclass the
# first contrast's groups have these covariate means
EXPECTED_COUNTEREXAMPLE_MEANS = (
    (Fraction(1, 3),) * 3,
    (Fraction(2, 3),) * 3,
)


def worked_example_dataset() -> Dataset:
    """Build the embedded 24-unit dataset."""
    rows = []
    treatments = []
    for cov, ws in _CELLS:
        for w in ws:
            rows.append(cov)
            treatments.append(w)
    return Dataset(rows, treatments, num_treatments=3)


def _per_cell(dataset: Dataset, scores) -> dict[tuple, object]:
    """Collapse a per-unit score vector to one value per covariate cell."""
    out = {}
    for key, value in zip(map(tuple, dataset.covariates.tolist()), scores.values):
        if out.setdefault(key, value) != value:
            raise AssertionError(f"cell {key} carries several score values")
    return out


def _pipeline():
    """The dataset, both balancing scores, and the report entries of the
    target and of the counterexample from :func:`run_algorithm`."""
    dataset = worked_example_dataset()
    first = empirical_csps(dataset, FIRST_CONTRAST)
    second = empirical_csps(dataset, SECOND_CONTRAST)
    config = AlgorithmConfig(estimator="empirical", subclass_method="exact")
    (entry,) = run_algorithm(
        dataset, [FIRST_CONTRAST, SECOND_CONTRAST], [TARGET_CONTRAST], config
    )
    (counter,) = run_algorithm(dataset, [SECOND_CONTRAST], [FIRST_CONTRAST], config)
    return dataset, first, second, entry, counter


def verify_worked_example() -> list[str]:
    """Recompute every number of the worked example; return the mismatches.

    An empty list means the full pipeline (both scores, the chained
    propensity, the subclass count, exact within-subclass balance, and the
    one-score counterexample) reproduces the expected values exactly.  A
    failed report entry is a mismatch that ends the checks.
    """
    return _mismatches(*_pipeline())


def _mismatches(dataset, first, second, entry, counter) -> list[str]:
    """The mismatches of :func:`verify_worked_example` in a :func:`_pipeline` run."""
    problems: list[str] = []
    for name, got, expected in (
        ("first score", _per_cell(dataset, first), EXPECTED_FIRST_SCORE),
        ("second score", _per_cell(dataset, second), EXPECTED_SECOND_SCORE),
    ):
        for key, want in expected.items():
            if got.get(key) != want:
                problems.append(f"{name} at cell {key}: got {got.get(key)}, want {want}")

    for name, failed in (("target", entry), ("counterexample", counter)):
        if failed.error is not None:
            return problems + [f"{name} entry: {failed.error}"]

    got_chained = _per_cell(dataset, entry.scores)
    for key, want in EXPECTED_CHAINED_SCORE.items():
        if got_chained.get(key) != want:
            problems.append(
                f"chained score at cell {key}: got {got_chained.get(key)}, want {want}"
            )

    if entry.num_subclasses != EXPECTED_NUM_SUBCLASSES:
        problems.append(
            f"subclass count: got {entry.num_subclasses}, "
            f"want {EXPECTED_NUM_SUBCLASSES}"
        )
    for row in entry.subclass_rows:
        if any(v != 0 for v in row.difference_exact):
            problems.append(
                f"subclass {row.subclass_id} difference: got "
                f"{row.difference_exact}, want all zero"
            )
    if any(v != 0 for v in entry.after_exact):
        problems.append(f"after-balance difference: got {entry.after_exact}")

    # counterexample: one balancing score does not balance the rest
    middle = [
        row
        for row in counter.subclass_rows
        if {counter.scores.values[i]
            for i in np.flatnonzero(counter.assignment.labels == row.subclass_id)}
        == {Fraction(1, 2)}
    ]
    want_pos, want_neg = EXPECTED_COUNTEREXAMPLE_MEANS
    if len(middle) != 1:
        problems.append(
            f"counterexample: expected exactly one subclass at score 1/2, "
            f"found {len(middle)}"
        )
    else:
        row = middle[0]
        if row.mean_positive_exact != want_pos or row.mean_negative_exact != want_neg:
            problems.append(
                "counterexample means: got "
                f"{row.mean_positive_exact} vs {row.mean_negative_exact}, "
                f"want {want_pos} vs {want_neg}"
            )
    return problems
