"""Matrix-variate Cauchy maximum likelihood.

Observations are n x m real matrices X, lifted to (m+n) x m frames
Xt = [X; I_m] by appending the identity at the bottom.  The family

    f_{m,n}(X | T) ~ det(Xt^T T Xt)^(-(m+n)/2),

with T symmetric positive definite of determinant one, has averaged
negative log likelihood (up to constants)

    loss(T) = (1/N) sum_i log det(Xt_i^T T Xt_i).

Its Riemannian gradient is, per datum,

    G = T M T - (m/(m+n)) T,     M = Xt (Xt^T T Xt)^-1 Xt^T,

with constant norm sqrt(mn/(m+n)).  Seen from a frame R of T = R R^T it
is R^T M R - (m/(m+n)) I, a rank-m projector less m/(m+n) I; the descent
engine runs on R with the mean of these.  The closed form is validated
against finite differences in the test suite.  At m = 1 everything reduces exactly
to the multivariate Cauchy family, and `fit` is the fit of both families.
"""

import numpy as np

from . import cauchy, halfspace, spd
from .descent import (DescentConfig, FitReport, FitStatus, as_columns,
                      minimize_on_spd, shared_oracle)


def lift(data):
    """Stack observations (N, n, m) into frames (N, m+n, m) with I_m appended."""
    X = np.asarray(data, dtype=float)
    if X.ndim == 2:
        X = X[None, :, :]
    if X.ndim != 3:
        raise ValueError(f"expected (N, n, m) observations, got shape {X.shape}")
    N, n, m = X.shape
    frames = np.empty((N, n + m, m))
    frames[:, :n, :] = X
    frames[:, n:, :] = np.eye(m)
    return frames


def _check_frames(frames):
    F = np.asarray(frames, dtype=float)
    if F.ndim != 3:
        raise ValueError(f"expected lifted frames (N, m+n, m), got shape {F.shape}")
    if F.shape[0] == 0:
        raise ValueError("empty dataset")
    if F.shape[1] <= F.shape[2]:
        raise ValueError("frames must have more rows than columns (n >= 1)")
    if not np.all(np.isfinite(F)):
        raise ValueError("data must be finite")
    if np.any(np.all(F == 0.0, axis=1)):
        raise ValueError("data contain a zero vector (a zero frame column)")
    return F


def _gram(T, F):
    # Xt^T T Xt for every frame, shape (N, m, m)
    return np.swapaxes(F, 1, 2) @ (T @ F)


def _forms(T, F):
    """Gram matrices of the frames and their log determinants."""
    G = _gram(T, F)
    sign, logdet = np.linalg.slogdet(G)
    if np.any(sign <= 0):
        raise ValueError("rank-deficient Gram matrix; parameter is not SPD "
                         "or a frame lost column rank")
    return G, logdet


def _grad(R, F, G):
    # the gradient seen from the frame R, from M = mean of Xt G^-1 Xt^T
    M = np.tensordot(F @ np.linalg.inv(G), F, axes=([0, 2], [0, 2])) / F.shape[0]
    return spd.frame_gradient(R, M)


def loss(T, frames):
    """Averaged negative log likelihood up to a data-independent constant."""
    F = _check_frames(frames)
    return float(np.mean(_forms(np.asarray(T, dtype=float), F)[1]))


def grad(T, frames):
    """Riemannian gradient L W L^T at T, W the frame gradient at L = chol(T)."""
    F = _check_frames(frames)
    T = np.asarray(T, dtype=float)
    L = np.linalg.cholesky(T)
    return spd.from_frame(L, _grad(L, F, _gram(T, F)))


def datum_grad(T, frame):
    """Gradient of log det(Xt^T T Xt); norm sqrt(mn/(m+n)) for every T, Xt."""
    return grad(T, np.asarray(frame, dtype=float)[None, :, :])


def step_size(m, n):
    """First trial step of the backtracking search: ((m+n)(m+n+1) - 2) / (2mn)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    p = m + n
    return (p * (p + 1) - 2) / (2.0 * m * n)


def _standardizing_map(F, n, m):
    """Block-affine lift transform from coordinate-wise median/MAD.

    Only frames whose bottom block is the identity count, so points at
    infinity are left out.  Each of the n coordinates is shifted by the
    median of its entries and scaled by their MAD over the m columns.
    """
    X = F[np.all(F[:, n:, :] == np.eye(m), axis=(1, 2)), :n, :]
    med, mad = zip(*[halfspace.median_mad(X[:, i]) for i in range(n)])
    med, mad = np.array(med), np.array(mad)
    A = np.zeros((n + m, n + m))
    A[:n, :n] = np.diag(1.0 / mad)
    A[:n, n:] = -med / mad[:, None]
    A[n:, n:] = np.eye(m)
    return A


def fit(frames, m, n, config=None):
    """Maximum-likelihood fit by geodesic gradient descent from the identity.

    frames is the lifted (N, m+n, m) array.  Returns (T, FitReport).  At
    m = 1 the frames are the lifted vectors of the multivariate Cauchy
    family: data failing `cauchy.check_general_position` come back at once
    with status DEGENERATE_DATA.  The check sees the frames the descent
    sees, standardized under config.standardize (an invertible map keeps
    rank and atoms).  For m >= 2 degeneracy is detected only through
    boundary divergence during descent.
    """
    F = _check_frames(frames)
    config = config or DescentConfig()
    if F.shape[1] != m + n or F.shape[2] != m:
        raise ValueError(f"frames of shape {F.shape} do not match m={m}, n={n}")
    if config.standardize:
        A = _standardizing_map(F, n, m)
        F = np.einsum("pq,nqm->npm", A, F)
    if m == 1 and not cauchy.check_general_position(F[:, :, 0], n):
        T = np.eye(n + 1)
        report = FitReport(FitStatus.DEGENERATE_DATA, 0, [loss(T, F)], [],
                           0.0, loss_evals=1)
    else:
        loss_fn, grad_fn = _oracle(F)
        T, report = minimize_on_spd(np.eye(m + n), loss_fn, grad_fn,
                                    step_size(m, n), config)
    if config.standardize:
        T = spd.unit_det(A.T @ T @ A)
    return T, report


def _oracle(F):
    """(loss_fn, grad_fn) of a frame R of T = R R^T, on validated frames.

    Both share one pass over the data at T; grad_fn returns the gradient
    seen from R.  At m = 1 the quadratic-form kernel of `cauchy` on a
    contiguous copy of the vectors is several times faster than the Gram
    kernel of m >= 2.
    """
    if F.shape[2] == 1:
        Xt = as_columns(F[:, :, 0])
        return shared_oracle(lambda R: cauchy._quad_forms(R @ R.T, Xt),
                             lambda R, q: cauchy._loss(q),
                             lambda R, q: cauchy._grad(R, Xt, q))
    return shared_oracle(lambda R: _forms(R @ R.T, F),
                         lambda R, f: float(np.mean(f[1])),
                         lambda R, f: _grad(R, F, f[0]))


def to_params(T, n, m):
    """Split the matrix parameter into (B, row_scatter, col_scatter).

    With T partitioned as [[A, C], [C^T, D]] (A is n x n):
    B = -A^-1 C, row_scatter = A^-1 (n x n), and
    col_scatter = D - C^T A^-1 C (m x m), so that
    Xt^T T Xt = (X - B)^T row_scatter^-1 (X - B) + col_scatter.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (n + m, n + m):
        raise ValueError(f"parameter shape {T.shape} does not match n={n}, m={m}")
    A = T[:n, :n]
    C = T[:n, n:]
    D = T[n:, n:]
    B = -np.linalg.solve(A, C)
    row_scatter = np.linalg.inv(A)
    col_scatter = D - C.T @ np.linalg.solve(A, C)
    return B, spd.sym(row_scatter), spd.sym(col_scatter)
