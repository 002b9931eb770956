"""Matrix-variate Cauchy maximum likelihood.

Observations are n x m real matrices X, lifted to (m+n) x m frames
Xt = [X; I_m] by appending the identity at the bottom.  The family

    f_{m,n}(X | T) ~ det(Xt^T T Xt)^(-(m+n)/2),

with T symmetric positive definite of determinant one, has averaged
negative log likelihood (up to constants)

    loss(T) = (1/N) sum_i log det(Xt_i^T T Xt_i).

Its Riemannian gradient is, per datum,

    G = T M T - (m/(m+n)) T,     M = Xt (Xt^T T Xt)^-1 Xt^T,

with constant norm sqrt(mn/(m+n)); the closed form is validated against
finite differences in the test suite.  At m = 1 everything reduces exactly
to the multivariate Cauchy family.
"""

import numpy as np

from . import spd
from .descent import DescentConfig, minimize_on_spd, shared_oracle


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
        raise ValueError("frames must be finite")
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


def _grad(T, F, G):
    # M = mean of Xt G^-1 Xt^T over the frames
    M = np.tensordot(F @ np.linalg.inv(G), F, axes=([0, 2], [0, 2])) / F.shape[0]
    return spd.project_tangent(T, T @ M @ T - (F.shape[2] / T.shape[0]) * T)


def loss(T, frames):
    """Averaged negative log likelihood up to a data-independent constant."""
    F = _check_frames(frames)
    return float(np.mean(_forms(np.asarray(T, dtype=float), F)[1]))


def grad(T, frames):
    """Riemannian gradient of loss at T, a valid tangent vector."""
    F = _check_frames(frames)
    T = np.asarray(T, dtype=float)
    return _grad(T, F, _gram(T, F))


def datum_grad(T, frame):
    """Gradient of log det(Xt^T T Xt); norm sqrt(mn/(m+n)) for every T, Xt."""
    return grad(T, np.asarray(frame, dtype=float)[None, :, :])


def step_size(m, n, policy):
    """Safe step 1; improved step ((m+n)(m+n+1) - 2) / (2mn)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    if policy == "safe":
        return 1.0
    if policy in ("improved", "backtracking"):
        p = m + n
        return (p * (p + 1) - 2) / (2.0 * m * n)
    raise ValueError(f"unknown step policy {policy!r}")


def _standardizing_map(F, n, m):
    """Block-affine lift transform: entrywise median shift, one global scale."""
    X = F[:, :n, :]
    med = np.median(X, axis=0)
    scale = float(np.median(np.abs(X - med)))
    scale = scale if scale > 0 else 1.0
    A = np.zeros((n + m, n + m))
    A[:n, :n] = np.eye(n) / scale
    A[:n, n:] = -med / scale
    A[n:, n:] = np.eye(m)
    return A


def fit(frames, m, n, config=None):
    """Maximum-likelihood fit by geodesic gradient descent from the identity.

    frames is the lifted (N, m+n, m) array.  Returns (T, FitReport).  The
    m = 1 case takes the same steps as the multivariate Cauchy fit; the
    vector-family general-position precheck applies there, while for m >= 2
    degeneracy is detected only through boundary divergence during descent.
    """
    F = _check_frames(frames)
    config = config or DescentConfig()
    if F.shape[1] != m + n or F.shape[2] != m:
        raise ValueError(f"frames of shape {F.shape} do not match m={m}, n={n}")
    if m == 1:
        from . import cauchy
        X = F[:, :, 0]
        if not cauchy.check_general_position(X, n):
            from .descent import FitReport, FitStatus
            T0 = np.eye(n + 1)
            return T0, FitReport(FitStatus.DEGENERATE_DATA, 0,
                                 [loss(T0, F)], [], 0.0)
    if config.standardize:
        A = _standardizing_map(F, n, m)
        Fs = np.einsum("pq,nqm->npm", A, F)
        T_std, report = _fit_core(Fs, m, n, config)
        return spd.unit_det(A.T @ T_std @ A), report
    return _fit_core(F, m, n, config)


def _oracle(F):
    """(loss_fn, grad_fn) on validated frames, sharing the Gram matrices."""
    return shared_oracle(lambda T: _forms(T, F),
                         lambda T, f: float(np.mean(f[1])),
                         lambda T, f: _grad(T, F, f[0]))


def _fit_core(F, m, n, config):
    loss_fn, grad_fn = _oracle(F)
    return minimize_on_spd(np.eye(m + n), loss_fn, grad_fn,
                           improved_step=step_size(m, n, "improved"),
                           config=config)


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
