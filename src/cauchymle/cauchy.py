"""Multivariate Cauchy maximum likelihood on the SPD determinant-one manifold.

The elliptical Cauchy density on R^n, written through the homogeneous lift
xt = (x, 1) in R^(n+1), is

    f_n(x | T) ~ (xt^T T xt)^(-(n+1)/2),

with T symmetric positive definite of determinant one.  Up to constants
the averaged negative log likelihood is

    loss(T) = (1/N) sum_i log(xt_i^T T xt_i),

a geodesically convex function whose Riemannian gradient is

    grad(T) = -T/(n+1) + T M T,   M = (1/N) sum_i xt_i xt_i^T / (xt_i^T T xt_i).

Seen from a frame R of T = R R^T it is R^T M R - I/(n+1), which is what
the fit's descent engine takes.

Each datum pulls the parameter along the geodesic toward its boundary
point with constant force sqrt(n/(n+1)); the MLE is the point where these
forces balance.  The family is the matrix-variate family at m = 1: `fit`
runs `matrix_cauchy.fit` on the lifted vectors as one-column frames, and
`loss` and `loss_grad` run its `loss` and `grad`, the fit's own kernel.
"""

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from . import conformal, halfspace, matrix_cauchy

GENERAL_POSITION_EXACT_CAP = 20
# subsets, or rows, per chunk of the general-position check
CHUNK = 2**14
# normalized true scalar multiples agree to ~machine eps; genuinely distinct
# observations in awkward scaling stay well above this
PROJECTIVE_DUP_TOL = 1e-12
# the atom key of a row whose two forms sum to less than this share of
# their roundoff scale is not trusted: such rows are always grouped exactly
ATOM_KEY_FLOOR = 1e-2
ATOM_KEY_SEED = 20230917  # any fixed seed serves


@dataclass(frozen=True)
class CauchyParams:
    """Location/scatter parametrization (b, S) of the elliptical family.

    The scatter is identified only up to scale; this one is the
    representative derived from the determinant-one matrix parameter.
    """

    location: np.ndarray
    scatter: np.ndarray
    convention: str = "unit-determinant"


def lift(x):
    """Append a final component 1 to each observation: (N, n) -> (N, n+1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array of observations, got shape {x.shape}")
    return np.hstack([x, np.ones((x.shape[0], 1))])


def lift_univariate(values):
    """Lift reals and the point at infinity to homogeneous pairs.

    x -> (x, 1); the point at infinity -> (1, 0).
    """
    try:
        x = np.asarray(values, dtype=float)
        at_inf = np.zeros(x.shape, dtype=bool)
    except TypeError:  # INFINITY among the values
        obj = np.asarray(values, dtype=object)
        at_inf = np.frompyfunc(halfspace.is_infinity, 1, 1)(obj).astype(bool)
        x = np.where(at_inf, 1.0, obj).astype(float)
    if x.ndim != 1:
        raise ValueError(f"expected a sequence of reals, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("empty dataset")
    return np.column_stack([x, np.where(at_inf, 0.0, 1.0)])


def _frames(lifted):
    """Lifted vectors (N, n+1) as the one-column frames (N, n+1, 1)."""
    X = np.asarray(lifted, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError(f"lifted data must be (N, n+1) with n >= 1, got {X.shape}")
    return X[:, :, None]


def loss(T, lifted):
    """Averaged negative log likelihood up to a data-independent constant."""
    return matrix_cauchy.loss(T, _frames(lifted))


def loss_grad(T, lifted):
    """Riemannian gradient L W L^T at T, W the frame gradient at L = chol(T)."""
    return matrix_cauchy.grad(T, _frames(lifted))


def datum_grad(T, xt):
    """Gradient of log(xt^T T xt); its norm is sqrt(n/(n+1)) for every T, xt."""
    return loss_grad(T, np.asarray(xt, dtype=float)[None, :])


def _key_forms(p):
    """The two fixed linear forms (p, 2) of the atom key.

    Drawn from a fixed seed, so every answer is deterministic.  Entries
    have magnitude in [0.5, 1] and are multiples of 2^-24: a product of two
    of them is exact, so x.r2 = 0 can be built exactly.
    """
    rng = np.random.default_rng([ATOM_KEY_SEED, p])
    R = rng.uniform(0.5, 1.0, (p, 2)) * rng.choice((-1.0, 1.0), (p, 2))
    return np.round(R * 2.0**24) / 2.0**24


def _runs(near):
    """(first, last) of each run of consecutive indices in near, inclusive.

    near holds, in increasing order, the i at which items i and i + 1 of a
    sorted sequence agree; run j joins the items first[j] to last[j] + 1.
    """
    start = np.ones(near.size, dtype=bool)
    start[1:] = np.diff(near) > 1
    return near[start], near[np.roll(start, -1)]


def _largest_group(Y):
    """Size of the largest set of rows of Y that agree up to sign and scale."""
    Y = Y / np.linalg.norm(Y, axis=1)[:, None]
    lead = np.argmax(np.abs(Y), axis=1)
    Y = Y * np.sign(Y[np.arange(Y.shape[0]), lead])[:, None]
    near = np.all(np.abs(np.diff(Y[np.lexsort(Y.T)], axis=0))
                  < PROJECTIVE_DUP_TOL, axis=1)
    first, last = _runs(np.flatnonzero(near))
    return int((last - first).max(initial=-1)) + 2


def has_atom(X, count):
    """True when count or more rows of X (N, p) are one projective point.

    Rows are compared up to sign and scale.  Each row gets the key
    k / (1 + |k|) of the ratio k = (x.r1) / (x.r2) of two fixed linear
    forms: it is scale- and sign-free, lies in [-1, 1], and its two ends
    are the one point x.r2 = 0.  One sort of the keys bounds every atom by
    a run of near-equal keys plus the rows whose key is not reliable: their
    forms are small against the roundoff of computing them, or the key
    sits next to the joined ends.  Only the rows of runs that could reach
    count are normalised and grouped on all coordinates, within
    PROJECTIVE_DUP_TOL, to count the atom exactly.
    """
    N, p = X.shape
    # rows within PROJECTIVE_DUP_TOL after normalising have keys this
    # close, as long as |a| + |b| is at least ATOM_KEY_FLOOR of its scale
    tol = 4 * p * PROJECTIVE_DUP_TOL / ATOM_KEY_FLOOR
    # key and ill are built a chunk of rows at a time, so the check can run
    # beside the fit's copy of the data
    R = _key_forms(p)
    key, ill = np.empty(N), np.empty(N, dtype=bool)
    for i in range(0, N, CHUNK):
        x = X[i:i + CHUNK]
        a, b = R.T @ x.T
        with np.errstate(invalid="ignore"):  # nan only where a = b = 0
            k = np.divide(a, np.copysign(a, b) + b, out=key[i:i + CHUNK])
        # the forms' roundoff is bounded by their scale
        scale = ATOM_KEY_FLOOR * (np.abs(x) @ np.abs(R).sum(axis=1))
        ill[i:i + CHUNK] = ~(np.abs(a) + np.abs(b) > scale) | (
            np.abs(k) > 1.0 - 2.0 * tol)
    n_ill = int(np.count_nonzero(ill))
    if n_ill + 1 >= count:  # a lone key could reach count with them
        return _largest_group(X) >= count
    key[ill] = np.nan
    s = np.sort(key)[:N - n_ill]
    # the i with s[i + 1] - s[i] <= tol, found a chunk at a time
    first, last = _runs(np.concatenate(
        [np.flatnonzero(np.diff(s[i:i + CHUNK + 1]) <= tol) + i
         for i in range(0, s.size, CHUNK)] + [np.empty(0, dtype=int)]))
    reach = last - first + 2 + n_ill >= count
    if not reach.any():
        return False
    lo, hi = s[first[reach]], s[last[reach] + 1]
    run = np.searchsorted(lo, key, side="right") - 1
    candidate = ill | ((run >= 0) & (key <= hi[run]))
    return _largest_group(X[candidate]) >= count


def check_general_position(lifted, n):
    """True when N >= n+2 and no n+1 lifted data vectors are linearly dependent.

    The subset condition is checked exactly only for N up to
    GENERAL_POSITION_EXACT_CAP.  Above the cap the answer is a heuristic
    built from cheap necessary conditions: the data matrix must have full
    column rank, and no projective point (up to sign and scale) may carry
    N/(n+1) of the N points or more, as the MLE requires (Kent & Tyler
    1991); `has_atom` counts the atoms with one sort.  Large continuous
    samples collide at float resolution with appreciable probability; such
    low-multiplicity repeats do not endanger the optimum, an atom that
    large does.  The data must be valid (finite, no zero row), as the fits
    pass them.
    """
    X = np.asarray(lifted, dtype=float)
    if X.ndim != 2 or X.shape[1] != n + 1:
        raise ValueError(f"lifted data of shape {X.shape}, expected (N, {n + 1})")
    N = X.shape[0]
    if N < n + 2:
        return False
    if N <= GENERAL_POSITION_EXACT_CAP:
        # one stacked rank per chunk of subsets keeps the memory bounded
        subsets = combinations(range(N), n + 1)
        while chunk := list(islice(subsets, CHUNK)):
            if np.any(np.linalg.matrix_rank(X[np.array(chunk)]) < n + 1):
                return False
        return True
    # the R factors of the chunks, stacked, have the singular values of X;
    # the rank is matrix_rank's, with its tolerance
    s = np.linalg.svd(np.concatenate([np.linalg.qr(X[i:i + CHUNK], mode="r")
                                      for i in range(0, N, CHUNK)]),
                      compute_uv=False)
    if not s[-1] > s[0] * N * np.finfo(float).eps:
        return False
    # an atom may hold fewer than N / (n+1) rows
    return not has_atom(X, -(-N // (n + 1)))


def fit(lifted, config=None):
    """Maximum-likelihood fit by geodesic descent in the data's own frame.

    Returns (T, FitReport).  This is `matrix_cauchy.fit` at m = 1, which
    copies the lifted vectors once; `matrix_cauchy.fit_observations` fits
    (N, n) observations with no lifted copy.  Datasets failing the
    general-position check come back at once with status DEGENERATE_DATA;
    descents that drift to the manifold boundary are flagged the same way,
    and a flat likelihood at the optimum is flagged ILL_CONDITIONED.
    """
    F = _frames(lifted)
    return matrix_cauchy.fit(F, 1, F.shape[1] - 1, config)


def to_params(T):
    """Convert the matrix parameter to location/scatter (b, S).

    This is `matrix_cauchy.to_params` at m = 1: b is the one column of B
    and S = kappa A^-1, with the 1 x 1 column scatter kappa = d - c^T A^-1 c
    of T = [[A, c], [c^T, d]].
    """
    T = np.asarray(T, dtype=float)
    B, row_scatter, col_scatter = matrix_cauchy.to_params(T, T.shape[0] - 1, 1)
    kappa = float(col_scatter[0, 0])
    if kappa <= 0:
        raise ValueError("matrix parameter has non-positive scatter scale")
    return CauchyParams(location=B[:, 0], scatter=kappa * row_scatter)


def location_scale(T):
    """Univariate (u, v): center u and width v = sqrt(scatter) for n = 1."""
    params = to_params(T)
    if params.location.shape != (1,):
        raise ValueError("location_scale applies to the univariate family only")
    return float(params.location[0]), float(math.sqrt(params.scatter[0, 0]))


def fit_univariate(data, config=None):
    """Univariate fit run directly on the hyperbolic upper half-plane.

    data is a sequence of reals, INFINITY among them, or an (N, 1) column.
    Each datum pulls with a unit force along the geodesic toward it; the
    damped Newton descent balances the forces.  This is `conformal.fit` at
    n = 1, with its one exact check (`conformal.has_dominant_point`).
    Returns ((u, v), FitReport) and agrees with fit + location_scale: the
    half-plane metric is half the SPD frame metric at n = 1, so the two
    take the same Newton steps, and hessian_min_eig here is twice theirs.
    """
    z, report = conformal.fit(data, 1, config)
    return (float(z.b[0]), float(z.a)), report
