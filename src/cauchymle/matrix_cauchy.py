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
is P - (m/(m+n)) I, with P = R^T M R a rank-m projector; the descent
engine runs on R with the mean of these.  Along the geodesic with
velocity W seen from R, one datum's second derivative is

    |W U|^2 - |U^T W U|^2 = |(I - P) W U|^2,    P = U U^T,

at most |W|^2 / 2, so the Riemannian Hessian, the mean of these, is
positive semidefinite.  The fit's one kernel computes them, in one pass
over chunks of the data that keeps only their sums; `loss` and `grad`
run it at the Cholesky frame of T, so `check-grad` tests it.  At
m = 1 everything reduces exactly to the multivariate Cauchy family, and
`fit` is the fit of both families.
"""

import functools

import numpy as np

from . import cauchy, halfspace, spd
from .descent import DescentConfig, FitReport, FitStatus, minimize_on_spd

# frame entries per chunk of the oracle's pass, m p per datum: a chunk's
# temporaries stay in cache, and no (m, p, N) array is formed
CHUNK = 2**14


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
    # OR the p rows of the (N, m) columns: one pass each, not a reduction
    # over the short middle axis
    nonzero = F[:, 0, :] != 0.0
    for k in range(1, F.shape[1]):
        nonzero |= F[:, k, :] != 0.0
    if not nonzero.all():
        raise ValueError("data contain a zero vector (a zero frame column)")
    return F


def _at_cholesky(T, frames):
    """L = chol(sym(T)), a LinAlgError unless T is SPD, and the fit's oracle."""
    Fc = _check_frames(frames).transpose(2, 1, 0)
    return np.linalg.cholesky(spd.sym(T)), _oracle(Fc)


def loss(T, frames):
    """Averaged negative log likelihood up to a data-independent constant."""
    L, (loss_fn, _, _) = _at_cholesky(T, frames)
    return loss_fn(L)


def grad(T, frames):
    """Riemannian gradient L W L^T at T, W the frame gradient at L = chol(T)."""
    L, (_, grad_fn, _) = _at_cholesky(T, frames)
    return spd.from_frame(L, grad_fn(L))


def datum_grad(T, frame):
    """Gradient of log det(Xt^T T Xt); norm sqrt(mn/(m+n)) for every T, Xt."""
    return grad(T, np.asarray(frame, dtype=float)[None, :, :])


def _frame_forms(R, Fc):
    """Orthonormal frames Q (m, p, N) of Y = R^T Xt, and log det Y^T Y.

    Fc holds the frames Xt column by column, Fc[k, :, i] = Xt_i[:, k].
    One pass of modified Gram-Schmidt, in place: each column of Y loses
    its projections on the earlier unit columns, adds the log of its
    squared norm q to log det and is scaled to unit length, so the
    projector of a datum is P = Q Q^T, and at m = 1 Q holds y / |y|.  The
    log det is accurate to about eps cond(Y), whatever cond(R R^T).
    """
    Q = R.T @ Fc
    logdet = 0.0
    for k, v in enumerate(Q):
        for u in Q[:k]:
            v -= np.einsum("ai,ai->i", u, v) * u
        q = np.einsum("ai,ai->i", v, v)
        if np.any(q <= 0):
            raise ValueError("rank-deficient Gram matrix: a frame lost column rank")
        v /= np.sqrt(q)
        logdet = logdet + np.log(q)
    return Q, logdet


@functools.lru_cache(maxsize=None)
def _upper_triangle(p):
    """Indices (ia, ib) of the upper-triangle entries of a p x p matrix,
    and the (p, p) array `at` of their positions: M[a, b] = w[at[a, b]]
    for the entries w = M[ia, ib] of a symmetric M.  Cached: at small p,
    building them costs as much as the rest of a Hessian pass."""
    ia, ib = np.triu_indices(p)
    at = np.empty((p, p), dtype=int)
    at[ia, ib] = at[ib, ia] = np.arange(len(ia))
    return ia, ib, at


def _moments(R, Fc):
    """Mean log det, and the first two moments w1, w2 of the projectors.

    w holds the upper-triangle entries P[ia, ib] of each datum's projector
    P = Q Q^T of `_frame_forms`: w1 is their mean, the entries of the mean
    projector S, and w2 the mean of w w^T, the entries of the mean of
    P kron P.  One pass over chunks of CHUNK frame entries adds them up,
    so it holds O(p^4) numbers and no per-datum array.
    """
    m, p, N = Fc.shape
    ia, ib, _ = _upper_triangle(p)
    step = max(1, CHUNK // (m * p))
    logdet = w1 = w2 = 0.0
    for i in range(0, N, step):
        Q, chunk_logdet = _frame_forms(R, Fc[:, :, i:i + step])
        # a multiply-add over the m columns: einsum's buffered path costs
        # several times more per datum once a chunk holds ~2000 data
        w = Q[0, ia] * Q[0, ib]
        for k in range(1, m):
            w += Q[k, ia] * Q[k, ib]
        logdet += chunk_logdet.sum()
        w1, w2 = w1 + w.sum(axis=1), w2 + w @ w.T
    return logdet / N, w1 / N, w2 / N


def _frame_hessian(w1, w2, p):
    """Riemannian Hessian seen from the frame, in the basis `spd.frame_basis`.

    H[k, l] = mean of tr(E_k E_l P) - tr(P E_k P E_l) over the projectors
    P, the symmetric part of vec(E_k)^T (vec(E_l S) - K vec(E_l)) with S
    the mean of P and K the mean of P kron P, read from the moments w1 and
    w2 of `_moments`.
    """
    _, _, at = _upper_triangle(p)
    # K[(a, b), (c, d)] = mean of P[a, c] P[b, d]
    K = w2[at[:, None, :, None], at[None, :, None, :]].reshape(p * p, -1)
    E = spd.frame_basis(p)
    Ef = E.reshape(len(E), -1)
    return spd.sym(Ef @ ((E @ w1[at]).reshape(Ef.shape).T - K @ Ef.T))


def _standardize(Fc, n):
    """Map the frames Fc (m, p, N) of `_fit` in place by the median/MAD
    map A of their observations, and return A.

    Each entry of the n x m observations is shifted by its median, and
    each of the n rows scaled by the MAD of its entries pooled over the m
    columns, one row at a time; frames at infinity (their bottom block not
    the identity) are left out.
    """
    m, p, N = Fc.shape
    finite = np.ones(N, dtype=bool)
    for (j, k), e in np.ndenumerate(np.eye(m)):
        finite &= Fc[k, n + j] == e
    X = Fc[:, :n] if finite.all() else Fc[:, :n, finite]
    med, mad = np.empty((n, m)), np.empty(n)
    for j in range(n):
        med[j], mad[j] = halfspace.median_mad(X[:, j].T)
    del X
    A = np.eye(p)
    A[:n, :n] = np.diag(1.0 / mad)
    A[:n, n:] = -med / mad[:, None]
    step = max(1, CHUNK // (m * p))
    for i in range(0, N, step):
        Fc[:, :n, i:i + step] = A[:n] @ Fc[:, :, i:i + step]
    return A


def _fit(Fc, n, config):
    """The fit of the frames laid out column by column, Fc (m, p, N) with
    Fc[k, :, i] = Xt_i[:, k]: the one copy of the data that the fit holds,
    which it standardizes in place."""
    m, p, _ = Fc.shape
    A = _standardize(Fc, n)
    if m == 1 and not cauchy.check_general_position(Fc[0].T, n):
        T = np.eye(p)
        report = FitReport(FitStatus.DEGENERATE_DATA, 0, [_oracle(Fc)[0](T)],
                           [], 0.0, loss_evals=1)
    else:
        T, report = minimize_on_spd(np.eye(p), *_oracle(Fc),
                                    config or DescentConfig())
    # log det(Xt^T T Xt) of the data exceeds that of A Xt by m log c, where
    # c = det(A)^(-2/p) rescales A^T T A to determinant one
    shift = -2.0 * m / p * float(np.sum(np.log(np.diag(A))))
    report.loss_trace = [v + shift for v in report.loss_trace]
    return spd.unit_det(A.T @ T @ A), report


def fit(frames, m, n, config=None):
    """Maximum-likelihood fit by geodesic descent in the data's own frame.

    The descent is `descent.minimize_on_spd`: damped Newton steps under
    the default policy, gradient steps under "safe", and the Hessian at the
    returned point tells a converged fit from an ill-conditioned one.
    frames is the lifted (N, m+n, m) array, copied once into the oracle's
    column layout.  Returns (T, FitReport).  The descent runs from the
    identity on the frames A Xt, A the median/MAD map of `_standardize`,
    and returns A^T T A at determinant one: the family is equivariant
    under such row-affine maps, so this is the MLE, with the same Hessian,
    while the guards see the spread of the data rather than their offset.
    The loss trace is that of the frames as given.  At m = 1 data failing
    `cauchy.check_general_position` come back at once with status
    DEGENERATE_DATA; for m >= 2 degeneracy is detected only through
    boundary divergence during descent.
    """
    F = _check_frames(frames)
    if F.shape[1] != m + n or F.shape[2] != m:
        raise ValueError(f"frames of shape {F.shape} do not match m={m}, n={n}")
    return _fit(np.ascontiguousarray(F.transpose(2, 1, 0)), n, config)


def fit_observations(data, config=None):
    """`fit` of (N, n) vectors (m = 1) or (N, n, m) matrices, unlifted.

    Their frames are written straight into the oracle's column layout, so
    that copy is all the fit holds: a caller that keeps no reference to
    data, as the CLI passes its parsed file, has it freed at once.
    """
    X = np.asarray(data, dtype=float)
    X = X[:, :, None] if X.ndim == 2 else X
    if X.ndim != 3 or 0 in X.shape or not np.isfinite(X).all():
        raise ValueError("expected finite (N, n) or (N, n, m) observations, "
                         f"got shape {X.shape}")
    N, n, m = X.shape
    Fc = np.empty((m, n + m, N))
    Fc[:, :n] = X.transpose(2, 1, 0)
    del data, X
    Fc[:, n:] = np.eye(m)[:, :, None]
    return _fit(Fc, n, config)


def _oracle(Fc):
    """(loss_fn, grad_fn, hess_fn) of a frame R of T = R R^T, on valid frames.

    Fc holds the frames column by column, Fc[k, :, i] = Xt_i[:, k].  One
    chunked pass of `_moments` at a point gives all three: the loss, the
    gradient seen from R, the mean projector less (m/p) I, and the Hessian
    in `spd.frame_basis`.  Its sums are kept for the point of the last
    pass, where the engines ask for the gradient and the Hessian, and
    recomputed at any other point.
    """
    p = Fc.shape[1]
    last = [None, None]  # the point of the last pass, and its sums

    def sums(R):
        if last[0] is None or not np.array_equal(R, last[0]):
            last[:] = np.array(R), _moments(R, Fc)
        return last[1]

    def grad_fn(R):
        return spd.trace_free(sums(R)[1][_upper_triangle(p)[2]])

    return (lambda R: float(sums(R)[0]), grad_fn,
            lambda R: _frame_hessian(*sums(R)[1:], p))


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
