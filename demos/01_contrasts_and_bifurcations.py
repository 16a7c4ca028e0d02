"""Contrast algebra walkthrough: signs, bifurcations, span.

Run: python demos/01_contrasts_and_bifurcations.py
"""

from csps import Contrast, bifurcation_span_contains, sgn_bifurcate

# A contrast assigns one coefficient per treatment and sums to zero.  String
# entries like "1/2" stay exact rationals.
active_vs_controls = Contrast((1, "-1/2", "-1/2"), label="active-vs-controls")
control_vs_control = Contrast((0, 1, -1), label="between-controls")
print(active_vs_controls, "exact:", active_vs_controls.is_exact)
print(control_vs_control)

# The sign bifurcation splits treatments into the positive and negative group.
b = sgn_bifurcate(Contrast(("1/2", "1/2", "-1")))
print("\npositive part:", b.positive_part)
print("negative part:", b.negative_part)
print("positive treatments:", b.positive_treatments)

# A combination of contrasts is itself a contrast: first - second/2, with
# the coefficients worked out by hand, still sums to zero.
first = Contrast(("1/2", "1/2", "-1"))
second = Contrast((1, -1, 0))
third = Contrast((0, 1, -1), label="first - second/2")
print("\nfirst - second/2 =", third.coefficients)

# Two independent bifurcations of three treatments span every sign vector,
# so balancing their scores balances every other three-treatment contrast.
basis = [sgn_bifurcate(first), sgn_bifurcate(second)]
for c in (third, Contrast((1, 0, -1)), Contrast((2, -3, 1))):
    inside = bifurcation_span_contains(basis, sgn_bifurcate(c))
    print(f"span contains {c.coefficients}: {inside}")
