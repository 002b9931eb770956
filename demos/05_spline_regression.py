"""Robust piecewise-geodesic spline regression into the hyperbolic plane.

Observations x_i at times t_i are modeled by a path h(t) of location/scale
pairs: piecewise geodesic between knots, constant outside them, with an
energy penalty (alpha/2) * integral of the squared speed.  Small alpha
follows the data closely; large alpha flattens the path toward the pooled
fit of all observations.  At the optimum each junction balances the unit
data force against the change of path velocity.
"""

import numpy as np

from cauchymle import cauchy, spline
from cauchymle.descent import DescentConfig

rng = np.random.default_rng(40)
ts = np.arange(12, dtype=float)
truth = 0.6 * ts - 3.0
xs = truth + rng.standard_normal(12) * 0.4
xs[4] += 25.0  # a gross outlier

print("observations (with an outlier at t=4):")
print("  " + "  ".join(f"{x:+.1f}" for x in xs))

for alpha in (0.3, 3.0, 1e6):
    prob = spline.SplineProblem.from_pairs(ts, xs, alpha)
    sol = spline.fit(prob, DescentConfig(tol=1e-7, max_iters=20000))
    centers = [z.b[0] for z in sol.values]
    res = max(spline.junction_residuals(prob, sol.values))
    print(f"\nalpha = {alpha:g}: {sol.report.status.value}, "
          f"max junction residual {res:.1e}")
    print("  fitted centers: " + "  ".join(f"{u:+.1f}" for u in centers))

(u_pool, v_pool), _ = cauchy.fit_univariate(xs)
print(f"\npooled fit of all observations: u = {u_pool:+.2f}, v = {v_pool:.2f}")
print("(the alpha = 1e6 path sits at the pooled fit; the outlier bends the"
      " small-alpha path only near t = 4)")

# --- evaluating the fitted path between and beyond knots -----------------------
prob = spline.SplineProblem.from_pairs(ts, xs, 3.0)
sol = spline.fit(prob, DescentConfig(tol=1e-7, max_iters=20000))
print("\npath values at t = -1, 3.5, 20:")
for t in (-1.0, 3.5, 20.0):
    z = spline.evaluate(sol, t)
    print(f"  h({t:5.1f}) = (u = {z.b[0]:+.3f}, v = {z.a:.3f})")
