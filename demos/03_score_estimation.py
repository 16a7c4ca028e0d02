"""Score estimators side by side: exact cells, logistic models, probabilities.

Run: python demos/03_score_estimation.py
"""

from fractions import Fraction

import numpy as np

from csps import (
    Contrast,
    empirical_csps,
    fit_binary_logistic,
    mechanism_ii,
    model_csps,
    sample_dataset,
)
from csps.example_data import FIRST_CONTRAST, worked_example_dataset

# With known assignment probabilities the score is a one-line computation:
# mass on the positive group over mass on both groups.
probs = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))


def mass_ratio(contrast):
    signs = contrast.sign()
    positive = sum(p for p, s in zip(probs, signs) if s > 0)
    return positive / sum(p for p, s in zip(probs, signs) if s != 0)


print("score at probs (1/5, 3/10, 1/2):",
      mass_ratio(Contrast((1, "-1/2", "-1/2"), label="active-vs-controls")))
print("score at probs (1/5, 3/10, 1/2), first-vs-second:",
      mass_ratio(Contrast((1, -1, 0))))

# On discrete data the empirical estimator is exact; a logistic model fitted
# on the same saturated covariates reproduces it to optimizer precision.
dataset = worked_example_dataset()
exact = empirical_csps(dataset, FIRST_CONTRAST)
fitted = model_csps(dataset, FIRST_CONTRAST)
print("\nworked example, first contrast:")
print("  exact cell scores:   ", sorted({str(v) for v in exact.values}))
print("  max |model - exact|: ",
      float(np.abs(fitted.as_floats() - exact.as_floats()).max()))

# On continuous covariates only the model route is available.  Draw from the
# covariate-driven mechanism (multinomial-logit) and recover its coefficients
# pairwise: the score of "t vs 1" is a logistic in the difference of the two
# treatments' coefficients, which for treatment 1 are zero.
cfg = mechanism_ii(num_units=50_000, seed=4)
draw = sample_dataset(cfg, 0)
print("\nbinary fits on a 50,000-unit draw, one per pair of treatments:")
for t, truth in ((2, "0, 0.75, 0.25, 0.5"), (3, "0, 0.25, 0.75, 0.5")):
    pair = (draw.treatments == 1) | (draw.treatments == t)
    model = fit_binary_logistic(draw.covariates[pair], draw.treatments[pair] == t)
    print(f"  {t} vs 1 coefficients:", np.round(model.coefficients, 3), f"(true {truth})")

# The binary fitter reports its full convergence story.
d = np.where(draw.treatments == 3, -1, 1)
model = fit_binary_logistic(draw.covariates, d == 1)
print("\nbinary fit for the pooled-first-two bifurcation:")
print(f"  converged={model.converged} iterations={model.iterations} "
      f"gradient norm={model.final_gradient_norm:.2e}")
