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
unit-speed geodesics; 1/n is a safe descent step.  The point at infinity
is an admissible datum (Busemann -log a).
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


def _forms(z, Ft):
    """Offsets b - x and quadratic forms a^2 + |b - x|^2 of the finite data."""
    diff = z.b[:, None] - Ft
    return diff, z.a * z.a + np.einsum("ij,ij->j", diff, diff)


def _loss(z, n_inf, q):
    # n * mean of log(q / a) over finite data and -log a over data at infinity
    N = q.size + n_inf
    return z.n * (float(np.sum(np.log(q))) - N * math.log(z.a)) / N


def _grad(z, n_inf, diff, q):
    N = q.size + n_inf
    w = 1.0 / q
    a2 = z.a * z.a
    # finite data: a (a^2 - r^2) / q = a (2 a^2 / q - 1); at infinity: -a
    da = z.a * (2.0 * a2 * float(np.sum(w)) - N)
    db = 2.0 * a2 * (diff @ w)
    return halfspace.HTangent(z, z.n * da / N, z.n * db / N)


def _oracle(F, n_inf):
    """(loss_fn, grad_fn) on validated data, sharing the offsets and forms."""
    Ft = as_columns(F)
    return shared_oracle(lambda z: _forms(z, Ft),
                         lambda z, f: _loss(z, n_inf, f[1]),
                         lambda z, f: _grad(z, n_inf, *f))


def loss(z, data, n=None):
    """Averaged negative log likelihood, n * mean Busemann, up to a constant."""
    F, n_inf = _split_data(data, z.n if n is None else n)
    return _loss(z, n_inf, _forms(z, as_columns(F))[1])


def grad(z, data, n=None):
    """Riemannian gradient of loss at z; norm at most n (mean of n-scaled unit forces)."""
    F, n_inf = _split_data(data, z.n if n is None else n)
    return _grad(z, n_inf, *_forms(z, as_columns(F)))


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
    """Fit (a, b) by geodesic gradient descent in H^(n+1) from (1, 0).

    Returns (HPoint, FitReport).  Data with a dominant point (see
    `has_dominant_point`) come back at once with status DEGENERATE_DATA;
    divergence to the boundary (the scale collapsing or exploding past the
    caps) is reported the same way.  config.standardize runs the descent on
    median/MAD-standardized data and maps the estimate back.
    """
    F, n_inf = _split_data(data, n)
    z = halfspace.HPoint(1.0, np.zeros(n))
    if has_dominant_point(F, n_inf):
        start = _loss(z, n_inf, _forms(z, as_columns(F))[1])
        return z, FitReport(FitStatus.DEGENERATE_DATA, 0, [start], [], 0.0,
                            loss_evals=1)
    config = config or DescentConfig()
    if config.standardize:
        med, mad = halfspace.median_mad(F)
        F = (F - med) / mad
    loss_fn, grad_fn = _oracle(F, n_inf)
    z, report = minimize_on_halfspace(z, loss_fn, grad_fn, safe_step=1.0 / n,
                                      config=config)
    if config.standardize:
        z = halfspace.HPoint(mad * z.a, med + mad * z.b)
    return z, report
