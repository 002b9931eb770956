"""Multivariate location and scatter, robust to contamination.

The elliptical heavy-tailed family is parametrized by a unit-determinant
SPD matrix; fitting runs geodesic Newton descent on that manifold and
returns a location vector b and a scatter matrix S (an ellipsoid shape,
identified up to scale).  Contaminating a normal sample moves the fitted
location almost nowhere.
"""

import numpy as np

from cauchymle import cauchy
from cauchymle.datasets import GeneratorSpec, generate
from cauchymle.descent import DescentConfig

# --- 2-d normal with correlated scatter -------------------------------------
mu = np.array([2.0, -3.0])
Sigma = np.array([[2.0, 1.0], [1.0, 3.0]])
spec = GeneratorSpec(kind="gaussian_nd", sample_size=50_000, seed=10,
                     mean_vector=mu, covariance=Sigma)
data = generate(spec)
T, report = cauchy.fit(cauchy.lift(data))
params = cauchy.to_params(T)
scale = (np.linalg.det(Sigma) / np.linalg.det(params.scatter)) ** (1 / 2)
print("2-d normal fit:")
print("  location:", np.round(params.location, 3))
print("  scatter (determinant matched to the truth):")
print(np.round(scale * params.scatter, 3))
print(f"  {report.status.value} in {report.iterations} iterations")

# --- 10% contamination far away ----------------------------------------------
rng = np.random.default_rng(11)
bad = (np.array([20.0, 70.0])
       + rng.standard_normal((5_000, 2)) @ np.linalg.cholesky(
           np.array([[15.0, 8.0], [8.0, 9.0]])).T)
mixed = np.vstack([data[:45_000], bad])
T2, report2 = cauchy.fit(cauchy.lift(mixed))
params2 = cauchy.to_params(T2)
print("\nwith 10% contamination at (20, 70):")
print("  location:", np.round(params2.location, 3), "(still near (2, -3))")

# --- 4-d example -------------------------------------------------------------
mu4 = np.array([1.0, 2.0, 3.0, 4.0])
Sigma4 = np.array([[1.0, 1.0, 1.0, 1.0],
                   [1.0, 2.0, 2.0, 2.0],
                   [1.0, 2.0, 3.0, 3.0],
                   [1.0, 2.0, 3.0, 4.0]])
spec4 = GeneratorSpec(kind="gaussian_nd", sample_size=100_000, seed=12,
                      mean_vector=mu4, covariance=Sigma4)
data4 = generate(spec4)
T4, report4 = cauchy.fit(cauchy.lift(data4))
p4 = cauchy.to_params(T4)
scale4 = (np.linalg.det(Sigma4) / np.linalg.det(p4.scatter)) ** (1 / 4)
print(f"\n4-d fit, {report4.status.value} in {report4.iterations} iterations:")
print("  location:", np.round(p4.location, 3))
print("  det-matched scatter:")
print(np.round(scale4 * p4.scatter, 3))

# --- the descent trace -------------------------------------------------------
print("\ngradient norms along the 4-d descent:")
print("  " + "  ".join(f"{g:.1e}" for g in report4.grad_norm_trace[:8]) + " ...")

# --- equivariance: affine maps commute with fitting --------------------------
M = np.array([[1.0, 0.5], [-0.25, 2.0]])
m = np.array([10.0, -5.0])
Tm, _ = cauchy.fit(cauchy.lift(data @ M.T + m), DescentConfig(tol=1e-11,
                                                              max_iters=500))
pm = cauchy.to_params(Tm)
print("\naffine equivariance check (transformed data):")
print("  fitted location:   ", np.round(pm.location, 6))
print("  mapped location:   ", np.round(M @ params.location + m, 6))
