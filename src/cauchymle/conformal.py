"""Scale-and-location fitting with the conformal heavy-tailed family.

The family on R^n with scale a > 0 and center b in R^n,

    f_n(x | a, b) ~ (1 + |(x - b)/a|^2)^(-n),

is parametrized by points of the hyperbolic upper half-space H^(n+1).  The
normalization constant scales as a^n, so the negative log likelihood is,
up to a parameter-independent constant, n times the Busemann function of
the datum:

    -log f_n(x | a, b) = n log((a^2 + |x - b|^2) / a) + const.

The averaged loss is therefore n times the mean of Busemann functions, a
geodesically convex function with second derivative at most n along
unit-speed geodesics; 1/n is a safe descent step.  In the orthonormal
frame (a d/da, a d/db) its gradient is n times the mean unit force u_i
of the data and its Hessian n (I - mean u_i u_i^T), which the damped
Newton fit solves with.  The point at infinity is an admissible datum
(Busemann -log a, unit force (-1, 0)).
"""

import math

import numpy as np

from . import halfspace
from .descent import (DescentConfig, FitReport, FitStatus, as_columns,
                      minimize_on_halfspace, shared_oracle)


def _split_data(data, n):
    """Finite observations as an (N_finite, n) array, and the count at infinity.

    A 1-d array or list of reals is a sample of n = 1 observations.
    """
    n_inf = 0
    if not isinstance(data, np.ndarray):
        finite = [x for x in data if not halfspace.is_infinity(x)]
        n_inf = len(data) - len(finite)
        data = finite if finite else np.zeros((0, n))
    F = np.asarray(data, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    if F.ndim != 2 or F.shape[1] != n:
        raise ValueError(f"finite data of shape {F.shape}, expected (N, {n})")
    if F.shape[0] + n_inf == 0:
        raise ValueError("empty dataset")
    if not np.all(np.isfinite(F)):
        raise ValueError("finite observations must have finite coordinates")
    return F, n_inf


def _forms(x, Ft):
    """Offsets b - x and quadratic forms a^2 + |b - x|^2 of the finite data."""
    a, b = x
    diff = b[:, None] - Ft
    return diff, a * a + np.einsum("ij,ij->j", diff, diff)


def _loss(a, n, n_inf, q):
    # n * mean of log(q / a) over finite data and -log a over data at infinity
    N = q.size + n_inf
    return n * (float(np.sum(np.log(q))) - N * math.log(a)) / N


def _grad(a, n, n_inf, diff, q):
    """Riemannian gradient in the orthonormal frame (a d/da, a d/db).

    It is n times the mean unit force u_i = (2 a^2 / q_i - 1,
    2 a (b - x_i) / q_i) of the finite data, u = (-1, 0) at infinity.
    """
    N = q.size + n_inf
    w = 1.0 / q
    g = np.empty(n + 1)
    g[0] = 2.0 * a * a * float(np.sum(w)) - N
    g[1:] = 2.0 * a * (diff @ w)
    return (n / N) * g


def _hess(a, n, n_inf, diff, q):
    """Riemannian Hessian in the frame of `_grad`: n (I - mean u_i u_i^T).

    Each datum's Busemann function has Hessian g - dB dB^T, its unit force
    u_i being dB; one (n + 1, N) array holds the u_i of the finite data.
    """
    N = q.size + n_inf
    c = (2.0 * a) / q
    U = np.empty((n + 1, q.size))
    np.multiply(c, a, out=U[0])
    U[0] -= 1.0
    np.multiply(diff, c, out=U[1:])
    M = U @ U.T
    M[0, 0] += n_inf
    return n * (np.eye(n + 1) - M / N)


def _oracle(F, n_inf):
    """(loss_fn, grad_fn, hess_fn) of (a, b) on validated data, sharing one pass.

    The three share the offsets and forms of `_forms`; the gradient and
    the Hessian are in the orthonormal frame (a d/da, a d/db).
    """
    Ft = as_columns(F)
    n = F.shape[1]
    return shared_oracle(lambda x: _forms(x, Ft),
                         lambda x, f: _loss(x[0], n, n_inf, f[1]),
                         lambda x, f: _grad(x[0], n, n_inf, *f),
                         lambda x, f: _hess(x[0], n, n_inf, *f))


def loss(z, data, n=None):
    """Averaged negative log likelihood, n * mean Busemann, up to a constant."""
    F, n_inf = _split_data(data, z.n if n is None else n)
    return _loss(z.a, z.n, n_inf, _forms((z.a, z.b), as_columns(F))[1])


def grad(z, data, n=None):
    """Riemannian gradient of loss at z; norm at most n (mean of n-scaled unit forces)."""
    F, n_inf = _split_data(data, z.n if n is None else n)
    g = _grad(z.a, z.n, n_inf, *_forms((z.a, z.b), as_columns(F)))
    return halfspace.HTangent(z, z.a * g[0], z.a * g[1:])


def _largest_repeat(v):
    """The largest number of equal entries of the 1-d array v."""
    edges = np.flatnonzero(np.diff(np.sort(v)))
    return int(np.diff(edges, prepend=-1, append=v.size - 1).max())


def has_dominant_point(F, n_inf):
    """True when the data, F finite and n_inf at infinity, leave no minimiser.

    The conformal barycenter exists, and is unique, when every boundary
    point holds less than half the data (Douady & Earle 1986).  A point,
    infinity included, that holds more leaves none; so does one holding
    half, unless the other half is one point too: then every point of the
    geodesic between the two minimises.  Points are counted exactly.  No
    point repeats more often than its first coordinate, so one sort of that
    column settles all data but those with a value there held by half.
    """
    N = F.shape[0] + n_inf
    if 2 * max(n_inf, _largest_repeat(F[:, 0])) < N:
        return False
    counts = np.append(np.unique(F, axis=0, return_counts=True)[1], n_inf)
    if 2 * counts.max() < N:
        return False
    return not np.array_equal(counts[counts > 0], [N // 2, N // 2])


def fit(data, n, config=None):
    """Fit (a, b) by geodesic descent in H^(n+1) from (MAD, median).

    The descent is `descent.minimize_on_halfspace`: damped Newton steps
    under the default policy, gradient steps of length 1/n under "safe",
    and the Hessian at the returned point tells a converged fit from an
    ill-conditioned one, below (1 - PLATEAU_RATE) n.  Returns
    (HPoint, FitReport).  The start, from `halfspace.median_mad` of the
    finite data, is the image of (1, 0) under the similarity that
    standardizes them, an isometry that the steps commute with.  Data with
    a dominant point (see `has_dominant_point`) come back at once with
    status DEGENERATE_DATA; divergence to the boundary (the scale leaving
    the caps around the start's) is reported the same way.
    """
    F, n_inf = _split_data(data, n)
    med, mad = halfspace.median_mad(F)
    x = (mad, med)
    if has_dominant_point(F, n_inf):
        start = _loss(mad, n, n_inf, _forms(x, as_columns(F))[1])
        return halfspace.HPoint(*x), FitReport(
            FitStatus.DEGENERATE_DATA, 0, [start], [], 0.0, loss_evals=1)
    config = config or DescentConfig()
    (a, b), report = minimize_on_halfspace(x, *_oracle(F, n_inf),
                                           curvature=n, config=config)
    return halfspace.HPoint(a, b), report
