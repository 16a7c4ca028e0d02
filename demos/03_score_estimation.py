"""Score estimators side by side: exact cells, logistic models, probabilities.

Run: python demos/03_score_estimation.py
"""

import numpy as np

from csps import (
    Contrast,
    csps_from_treatment_probs,
    empirical_csps,
    fit_binary_logistic,
    mechanism_ii,
    model_csps,
    sample_dataset,
)
from csps.example_data import FIRST_CONTRAST, worked_example_dataset

# With known assignment probabilities the score is a one-line computation:
# mass on the positive group over mass on both groups.
contrast = Contrast((1, "-1/2", "-1/2"), label="active-vs-controls")
print("score at probs (0.2, 0.3, 0.5):", csps_from_treatment_probs((0.2, 0.3, 0.5), contrast))
print("score at probs (0.2, 0.3, 0.5), first-vs-second:",
      csps_from_treatment_probs((0.2, 0.3, 0.5), Contrast((1, -1, 0))))

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
