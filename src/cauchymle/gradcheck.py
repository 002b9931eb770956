"""Gradient validation against central finite differences.

For every family, random parameter points, datasets, and unit tangent
directions are drawn; the analytic directional derivative <grad, V> is
compared with the central difference of the loss along the geodesic
through V.  The public functions run the oracles the fits descend on, so
this is the independent check of the fits' gradients, exposed on the
command line as `check-grad`.
"""

import numpy as np

from . import cauchy, conformal, halfspace, matrix_cauchy, spd

FD_STEP = 1e-5
FAIL_THRESHOLD = 1e-5


def random_spd_point(p, rng, spread=0.7):
    """Random unit-determinant SPD matrix, a geodesic shot from the identity."""
    S = rng.standard_normal((p, p))
    V = spd.project_tangent(np.eye(p), spread * (S + S.T) / 2.0)
    return spd.geodesic(np.eye(p), V, 1.0)


def random_tangent(T, rng, unit=True):
    S = rng.standard_normal(T.shape)
    V = spd.project_tangent(T, (S + S.T) / 2.0)
    if unit:
        V = V / spd.norm(T, V)
    return V


def random_hpoint(n, rng, spread=0.7):
    return halfspace.HPoint(float(np.exp(spread * rng.standard_normal())),
                            spread * rng.standard_normal(n))


def random_htangent(z, rng, unit=True):
    v = halfspace.HTangent(z, rng.standard_normal(),
                           rng.standard_normal(z.n))
    if unit:
        nrm = v.norm()
        v = v.scaled(1.0 / nrm)
    return v


def _directional_error_spd(T, V, loss_fn, grad_fn, h=FD_STEP):
    fd = (loss_fn(spd.geodesic(T, V, h)) - loss_fn(spd.geodesic(T, V, -h))) / (2 * h)
    an = spd.inner(T, grad_fn(T), V)
    return abs(an - fd) / max(abs(fd), 1e-10)


def _directional_error_halfspace(z, v, loss_fn, grad_fn, h=FD_STEP):
    fd = (loss_fn(halfspace.exp_map(z, v, h))
          - loss_fn(halfspace.exp_map(z, v, -h))) / (2 * h)
    g = grad_fn(z)
    an = (g.da * v.da + float(g.db @ v.db)) / (z.a * z.a)
    return abs(an - fd) / max(abs(fd), 1e-10)


def check_gradients(family, n=1, m=1, trials=100, seed=0):
    """Max relative error between analytic and finite-difference derivatives.

    Returns a report dict; `passed` is True when the max relative error over
    all trials stays below 1e-5.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        if family == "cauchy":
            T = random_spd_point(n + 1, rng)
            X = cauchy.lift(rng.standard_normal((n + 3, n)))
            if trial % 3 == 0:
                # exercise a datum at projective infinity
                row = np.append(rng.standard_normal(n), 0.0)
                X = np.vstack([X, row])
            V = random_tangent(T, rng)
            err = _directional_error_spd(
                T, V, lambda P: cauchy.loss(P, X), lambda P: cauchy.loss_grad(P, X))
        elif family == "matrix":
            T = random_spd_point(m + n, rng)
            F = matrix_cauchy.lift(rng.standard_normal((3, n, m)))
            V = random_tangent(T, rng)
            err = _directional_error_spd(
                T, V, lambda P: matrix_cauchy.loss(P, F),
                lambda P: matrix_cauchy.grad(P, F))
        elif family == "conformal":
            z = random_hpoint(n, rng)
            data = list(rng.standard_normal((4, n)))
            if trial % 3 == 0:
                data.append(halfspace.INFINITY)
            v = random_htangent(z, rng)
            err = _directional_error_halfspace(
                z, v, lambda w: conformal.loss(w, data, n),
                lambda w: conformal.grad(w, data, n))
        else:
            raise ValueError(f"unknown family {family!r}")
        worst = max(worst, err)
    return {
        "family": family,
        "n": n,
        "m": m if family == "matrix" else None,
        "trials": trials,
        "max_rel_error": worst,
        "passed": bool(worst < FAIL_THRESHOLD),
    }
