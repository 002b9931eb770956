"""Geometry of unit-determinant symmetric positive-definite matrices.

The parameter space of the elliptical heavy-tailed families in this package
is the manifold of p x p symmetric positive-definite matrices with
determinant one, carrying the affine-invariant metric

    <V, W>_T = tr(T^-1 V T^-1 W).

Tangent vectors at T are symmetric matrices V with tr(T^-1 V) = 0.  Seen
from a frame R of T = R R^T (any square root), a tangent is the symmetric
trace-free matrix W = R^-1 V R^-T, the metric is the Frobenius product of
such matrices, and the geodesic through T with initial velocity V is

    gamma(t) = R expm(t W) R^T,

so that only a symmetric matrix is ever exponentiated.  `factor_step`
moves the frame itself: with W = Q diag(lam) Q^T it returns
R Q diag(exp(t (lam - mean lam) / 2)), a frame of gamma(t) with the
determinant of R.  The descent engine runs on such frames; `geodesic` is
the same step from the Cholesky frame of T, renormalized to determinant
one.  `frame_basis` is an orthonormal basis of the symmetric trace-free
matrices, in which the descent engine holds the Riemannian Hessian seen
from a frame.  All linear algebra here is numpy's, and a point or tangent
with a non-finite entry is refused with ValueError.
"""

import functools

import numpy as np

# Tolerances are artifact-wide conventions, used by check_point/check_tangent.
SYM_RTOL = 1e-12
DET_RTOL = 1e-9
TRACE_RTOL = 1e-10
# |exponent| bound of the eigenvalues of expm(t W) in factor_step: their
# exp stays a normal float on both sides
EXP_CAP = 700.0


class NumericRangeError(FloatingPointError):
    """A geometric operation left the representable floating-point range."""


def sym(M):
    """Symmetric part (M + M^T)/2 of square matrices (..., p, p)."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _require_square(T, name="matrix"):
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"{name} must be square, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError(f"{name} has a non-finite entry")
    return T


def _require_same_dim(A, B, what="operands"):
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch between {what}: {A.shape} vs {B.shape}")


def unit_det(T):
    """Rescale an SPD matrix to determinant one."""
    T = _require_square(T)
    sign, logdet = np.linalg.slogdet(T)
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericRangeError("matrix is not positive definite within range")
    return T * np.exp(-logdet / T.shape[0])


def check_point(T):
    """Validate that T is a unit-determinant SPD matrix; return it as float array.

    Raises ValueError on asymmetry, non-positive eigenvalues, or determinant
    away from one beyond the package tolerances.
    """
    T = _require_square(T, "point")
    scale = max(np.abs(T).max(), 1.0)
    if np.abs(T - T.T).max() > SYM_RTOL * scale:
        raise ValueError("point is not symmetric")
    w = np.linalg.eigvalsh(T)
    if w.min() <= 0:
        raise ValueError("point is not positive definite")
    if abs(np.expm1(np.sum(np.log(w)))) > DET_RTOL:
        raise ValueError("point does not have unit determinant")
    return T


def check_tangent(T, V):
    """Validate that V is a tangent vector at T (symmetric, trace-orthogonal to T)."""
    T = _require_square(T, "point")
    V = _require_square(V, "tangent")
    _require_same_dim(T, V, "point and tangent")
    scale = max(np.abs(V).max(), 1.0)
    if np.abs(V - V.T).max() > SYM_RTOL * scale:
        raise ValueError("tangent is not symmetric")
    tr = np.trace(np.linalg.solve(T, V))
    if abs(tr) > TRACE_RTOL * max(norm(T, V), 1e-300):
        raise ValueError("tangent has a nonzero trace component")
    return V


def inner(T, V, W):
    """Affine-invariant inner product tr(T^-1 V T^-1 W) of tangents at T."""
    T = _require_square(T, "point")
    V = _require_square(V, "tangent")
    W = _require_square(W, "tangent")
    _require_same_dim(T, V, "point and first tangent")
    _require_same_dim(T, W, "point and second tangent")
    A = np.linalg.solve(T, V)
    B = np.linalg.solve(T, W)
    return float(np.sum(A * B.T))


def norm(T, V):
    """Riemannian norm of the tangent V at T."""
    return float(np.sqrt(max(inner(T, V, V), 0.0)))


def project_tangent(T, M):
    """Project an arbitrary matrix onto the tangent space at T.

    Symmetrizes M and removes the trace component along T:
    W = sym(M) - (tr(T^-1 sym(M)) / p) T.  Idempotent on valid tangents.
    """
    T = _require_square(T, "point")
    S = sym(M)
    _require_same_dim(T, S, "point and matrix")
    tr = np.trace(np.linalg.solve(T, S))
    return S - (tr / T.shape[0]) * T


def _chol_congruence(L, M):
    # L^-1 M L^-T for lower-triangular L
    Li = np.linalg.inv(L)
    return Li @ M @ Li.T


def factor_step(R, W, t):
    """Frame R Q diag(exp(t (lam - mean lam) / 2)) of the geodesic point at t.

    R is a frame of the base point T = R R^T and W = Q diag(lam) Q^T the
    velocity seen from it.  Centring lam keeps det R fixed.  Raises
    NumericRangeError when an eigenvalue of expm(t W), the factor that
    R1 R1^T gains over R R^T, or an entry of R1 R1^T leaves the
    floating-point range.
    """
    R1, out = factor_step_masked(R, W, t)
    if out.any():
        raise NumericRangeError("geodesic step left the floating-point range")
    return R1


def factor_step_masked(R, W, t):
    """`factor_step` of stacks, reporting, not raising: (R1, out of range).

    R and W are (..., p, p) and t (...); one stacked eigh moves them all.
    The mask is True where the step left the floating-point range; the
    other frames are exact as `factor_step` gives them, each as it would
    be alone.
    """
    lam, Q = np.linalg.eigh(W)
    x = np.asarray(t)[..., None] * (lam - lam.sum(axis=-1, keepdims=True)
                                    / lam.shape[-1])
    out = ~(np.abs(x).max(axis=-1) < EXP_CAP)
    x[out] = 0.0
    R1 = (R @ Q) * np.exp(0.5 * x)[..., None, :]
    # tr(R1 R1^T) bounds every entry of the SPD point R1 R1^T
    with np.errstate(over="ignore", invalid="ignore"):
        trace = (R1 * R1).sum(axis=(-2, -1))
    return R1, out | ~np.isfinite(trace)


def trace_free(M):
    """Trace-free part of the symmetric part of square matrices (..., p, p),
    laid out in C order."""
    W = np.ascontiguousarray(sym(M))
    i = np.arange(W.shape[-1])
    d = W[..., i, i]
    W[..., i, i] = d - d.sum(axis=-1, keepdims=True) / d.shape[-1]
    return W


@functools.lru_cache(maxsize=None)
def frame_basis(p):
    """Orthonormal basis (d, p, p) of the symmetric trace-free p x p matrices.

    d = p(p+1)/2 - 1, in the Frobenius product: the Helmert diagonals
    diag(1, ..., 1, -j, 0, ...) / sqrt(j (j+1)) for j = 1 .. p-1, then
    (e_a e_b^T + e_b e_a^T) / sqrt(2) for a < b.  Read-only.
    """
    E = np.zeros((p * (p + 1) // 2 - 1, p, p))
    for j in range(1, p):
        E[j - 1].flat[:(j + 1) * (p + 1):p + 1] = [1.0] * j + [-j]
        E[j - 1] /= np.sqrt(j * (j + 1))
    for k, (a, b) in enumerate(zip(*np.triu_indices(p, 1)), start=p - 1):
        E[k, a, b] = E[k, b, a] = np.sqrt(0.5)
    E.flags.writeable = False
    return E


def frame_coords(W):
    """Coordinates (..., d) of symmetric trace-free W (..., p, p) in
    `frame_basis`, each matrix's as it would be alone."""
    E = frame_basis(W.shape[-1])
    return (E.reshape(len(E), -1) @ W.reshape(W.shape[:-2] + (-1, 1)))[..., 0]


def from_frame_coords(w):
    """The symmetric trace-free matrices (..., p, p) with coordinates
    w (..., d) in `frame_basis`, each as it would be alone."""
    p = int(round(np.sqrt(2 * w.shape[-1] + 2.25) - 0.5))
    M = w[..., None, :] @ frame_basis(p).reshape(w.shape[-1], -1)
    return M.reshape(w.shape[:-1] + (p, p))


def from_frame(R, W):
    """Tangent R W R^T at T = R R^T of the tangent W seen from the frame R."""
    return sym(R @ W @ R.T)


def geodesic(T, V, t):
    """Point gamma(t) of the geodesic with gamma(0) = T, gamma'(0) = V.

    The result is renormalized to determinant one.  Raises
    NumericRangeError when t * ||V|| is so large the exponential overflows.
    """
    T = _require_square(T, "point")
    V = _require_square(V, "tangent")
    _require_same_dim(T, V, "point and tangent")
    if t == 0.0:
        return T.copy()
    L = np.linalg.cholesky(T)
    R = factor_step(L, sym(_chol_congruence(L, V)), t)
    G = sym(R @ R.T)
    if not np.all(np.isfinite(G)):
        raise NumericRangeError("geodesic point overflow")
    return unit_det(G)


def log_map(T1, T2):
    """Tangent V at T1 with geodesic(T1, V, 1) = T2."""
    T1 = _require_square(T1, "point")
    T2 = _require_square(T2, "point")
    _require_same_dim(T1, T2, "points")
    L = np.linalg.cholesky(T1)
    M = sym(_chol_congruence(L, T2))
    w, Q = np.linalg.eigh(M)
    if w.min() <= 0:
        raise np.linalg.LinAlgError("relative matrix is not positive definite")
    W = (Q * np.log(w)) @ Q.T
    return sym(L @ W @ L.T)


def distance(T1, T2):
    """Affine-invariant geodesic distance, sqrt(sum log^2 eigenvalues of T1^-1 T2)."""
    T1 = _require_square(T1, "point")
    T2 = _require_square(T2, "point")
    _require_same_dim(T1, T2, "points")
    L = np.linalg.cholesky(T1)
    w = np.linalg.eigvalsh(sym(_chol_congruence(L, T2)))
    if w.min() <= 0:
        raise np.linalg.LinAlgError("relative matrix is not positive definite")
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def condition_number(T):
    """Eigenvalue ratio max/min of an SPD matrix."""
    w = np.linalg.eigvalsh(T)
    if w.min() <= 0:
        return np.inf
    return float(w.max() / w.min())
