"""The 24-unit worked example, end to end.

Four covariate cells, three treatments.  Balancing on the scores of two
contrasts balances the bifurcation of their linear combination exactly;
balancing on one score alone does not.

Run: python demos/02_worked_example.py
"""

import numpy as np

from csps import (
    assignment_indicators,
    build_cell_index,
    chained_propensity,
    covariate_mean_difference,
    empirical_csps,
    subclassify,
)
from csps.example_data import (
    FIRST_CONTRAST,
    SECOND_CONTRAST,
    TARGET_CONTRAST,
    worked_example_dataset,
)

dataset = worked_example_dataset()
print(dataset)

# Scores for the two balancing contrasts: exact cell frequencies.
first = empirical_csps(dataset, FIRST_CONTRAST)
second = empirical_csps(dataset, SECOND_CONTRAST)

# Chained step: the two scores become the covariates of an ordinary
# propensity analysis for the target bifurcation.
chained = chained_propensity(
    dataset, [FIRST_CONTRAST, SECOND_CONTRAST], TARGET_CONTRAST,
    estimator="empirical",
)

print("\ncell           score1  score2  chained")
cells = build_cell_index(dataset)
for c, row in enumerate(cells.rows.tolist()):
    i = np.flatnonzero(cells.cell_of_unit == c)[0]  # any unit of the cell
    cell = "(" + ", ".join(str(int(v)) for v in row) + ")"
    print(f"{cell:<14} {str(first.values[i]):>6}  {str(second.values[i]):>6}  {str(chained.values[i]):>7}")

# One subclass per distinct chained score; within each, the target's groups
# have identical covariate means.
d = assignment_indicators(TARGET_CONTRAST, dataset.treatments)
assignment = subclassify(chained, d, method="exact")
balance = covariate_mean_difference(dataset, TARGET_CONTRAST, assignment)
print(f"\n{assignment.num_subclasses} subclasses; within-subclass differences:")
for row in balance.subclass_rows:
    print(
        f"  subclass {row.subclass_id}: n+={row.n_positive} n-={row.n_negative} "
        f"diff={tuple(str(v) for v in row.difference_exact)}"
    )
print("weighted after-balance difference:", tuple(str(v) for v in balance.after_exact))

# Counterexample: balancing only on the second score leaves the first
# contrast unbalanced inside the score-1/2 subclass.
counter = chained_propensity(
    dataset, [SECOND_CONTRAST], FIRST_CONTRAST, estimator="empirical"
)
d1 = assignment_indicators(FIRST_CONTRAST, dataset.treatments)
counter_balance = covariate_mean_difference(
    dataset, FIRST_CONTRAST, subclassify(counter, d1, method="exact")
)
print("\nbalancing on the second score only:")
for row in counter_balance.subclass_rows:
    print(
        f"  subclass {row.subclass_id}: means "
        f"{tuple(str(v) for v in row.mean_positive_exact)} vs "
        f"{tuple(str(v) for v in row.mean_negative_exact)}"
    )
