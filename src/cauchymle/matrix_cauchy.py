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
positive semidefinite.  One pass of `descent.chunked_oracle` gives them
from the sums of the log determinants, projectors and their products
(`_projector_sums`); `loss` and `grad` run it at the Cholesky frame of
T, so `check-grad` tests it.  At
m = 1 everything reduces exactly to the multivariate Cauchy family, and
`fit` is the fit of both families.
"""

import functools

import numpy as np

from . import cauchy, descent, halfspace, spd
from .descent import DescentConfig, FitReport, FitStatus, minimize_on_spd

_ONE = np.zeros(1, dtype=int)  # the member indices of a batch of one


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
    """L = chol(sym(T)) as a batch of one (1, p, p), a LinAlgError unless T
    is SPD, and the fit's oracle of the frames."""
    Fc = _check_frames(frames).transpose(2, 1, 0)[None]
    return np.linalg.cholesky(spd.sym(T))[None], _oracle(Fc)


def loss(T, frames):
    """Averaged negative log likelihood up to a data-independent constant."""
    L, (loss_fn, _, _) = _at_cholesky(T, frames)
    return float(loss_fn(L, _ONE)[0])


def grad(T, frames):
    """Riemannian gradient L W L^T at T, W the frame gradient at L = chol(T)."""
    L, (_, grad_fn, _) = _at_cholesky(T, frames)
    return spd.from_frame(L[0], grad_fn(L, _ONE)[0])


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


def _projector_sums(x, chunks):
    """The sums over chunks of frames (m, p, s), one per member of the
    frames x (k, p, p), of log det, w and w w^T, with w the upper-triangle
    entries P[ia, ib] of each datum's projector P = Q Q^T of
    `_frame_forms`: each member's alone, with no copy of its chunk."""
    ia, ib, _ = _upper_triangle(x.shape[-1])
    k, t = len(chunks), len(ia)
    logdet, w1, w2 = np.empty(k), np.empty((k, t)), np.empty((k, t, t))
    for j, (R, Fc) in enumerate(zip(x, chunks)):
        Q, chunk_logdet = _frame_forms(R, Fc)
        # a multiply-add over the m columns: einsum's buffered path costs
        # several times more per datum once a chunk holds ~2000 data
        w = Q[0, ia] * Q[0, ib]
        for c in range(1, len(Q)):
            w += Q[c, ia] * Q[c, ib]
        logdet[j], w1[j], w2[j] = chunk_logdet.sum(), w.sum(axis=1), w @ w.T
    return [logdet, w1, w2]


def _frame_hessian(w1, w2, p):
    """Riemannian Hessians seen from the frames, in the basis `spd.frame_basis`.

    H[k, l] = mean of tr(E_k E_l P) - tr(P E_k P E_l) over the projectors
    P, the symmetric part of vec(E_k)^T (vec(E_l S) - K vec(E_l)) with S
    the mean of P and K the mean of P kron P, read from the means w1
    (B, t) of w and w2 (B, t, t) of w w^T of `_projector_sums` of B
    members: (B, d, d), each member's as it would be alone.
    """
    _, _, at = _upper_triangle(p)
    # K[(a, b), (c, d)] = mean of P[a, c] P[b, d]
    K = w2[:, at[:, None, :, None], at[None, :, None, :]].reshape(
        len(w2), p * p, -1)
    E = spd.frame_basis(p)
    Ef = E.reshape(len(E), -1)
    ES = (E @ w1[:, None, at]).reshape(len(w1), len(E), -1)
    H = Ef @ (ES.transpose(0, 2, 1) - K @ Ef.T)
    return spd.sym(H)


def _standardize(Fc, n):
    """Map each member's frames Fc[i] (m, p, N) of `_fit` in place by the
    median/MAD map A of its observations, and return the maps (B, p, p).

    Each entry of the n x m observations is shifted by its median, and
    each of the n rows scaled by the MAD of its entries pooled over the m
    columns, one row at a time; frames at infinity (their bottom block not
    the identity) are left out.  When no member has such frames, one
    partition of each row serves every member.
    """
    B, m, p, N = Fc.shape
    finite = np.ones((B, N), dtype=bool)
    for (j, k), e in np.ndenumerate(np.eye(m)):
        finite &= Fc[:, k, n + j] == e
    med, mad = np.empty((B, n, m)), np.empty((B, n))
    for j in range(n):
        if finite.all():
            med[:, j], mad[:, j] = halfspace.median_mad(
                Fc[:, :, j].transpose(0, 2, 1))
            continue
        for i in range(B):
            med[i, j], mad[i, j] = halfspace.median_mad(
                Fc[i, :, j][:, finite[i]].T)
    A = np.tile(np.eye(p), (B, 1, 1))
    A[:, :n, :n] = np.eye(n) / mad[:, None, :]
    A[:, :n, n:] = -med / mad[:, :, None]
    step = max(1, descent.CHUNK // (m * p))
    for F, Ai in zip(Fc, A):
        for i in range(0, N, step):
            F[:, :n, i:i + step] = Ai[:n] @ F[:, :, i:i + step]
    return A


def _fit(Fc, n, config):
    """The fits of a batch of frames laid out column by column, Fc
    (B, m, p, N) with Fc[i, k, :, j] = Xt_j[:, k] for the data Xt_j of
    member i: the one copy of the data that the fits hold, which they
    standardize in place.  At m = 1 a member failing
    `cauchy.check_general_position` is refused and takes no part in the
    descent; the others run in one.  Returns one (T, FitReport) per
    member, as its fit alone gives them.
    """
    B, m, p, _ = Fc.shape
    maps = _standardize(Fc, n)
    fits = [None] * B
    for i, F in enumerate(Fc):
        if m == 1 and not cauchy.check_general_position(F[0].T, n):
            loss = float(_oracle([F])[0](np.eye(p)[None], _ONE)[0])
            fits[i] = np.eye(p), FitReport(FitStatus.DEGENERATE_DATA, 0,
                                           [loss], [], 0.0, loss_evals=1)
    live = [i for i, fit in enumerate(fits) if fit is None]
    if live:
        T, reports = minimize_on_spd(
            np.broadcast_to(np.eye(p), (len(live), p, p)),
            *_oracle([Fc[i] for i in live]), config or DescentConfig())
        for i, Ti, report in zip(live, T, reports):
            fits[i] = Ti, report
    out = []
    for A, (T, report) in zip(maps, fits):
        # log det(Xt^T T Xt) of the data exceeds that of A Xt by m log c,
        # where c = det(A)^(-2/p) rescales A^T T A to determinant one
        shift = -2.0 * m / p * float(np.sum(np.log(np.diag(A))))
        report.loss_trace = [v + shift for v in report.loss_trace]
        out.append((spd.unit_det(A.T @ T @ A), report))
    return out


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
    boundary divergence during descent.  The fit is a batch of one:
    `fit_observations_batch` gives each member this same answer.
    """
    F = _check_frames(frames)
    if F.shape[1] != m + n or F.shape[2] != m:
        raise ValueError(f"frames of shape {F.shape} do not match m={m}, n={n}")
    return _fit(np.ascontiguousarray(F.transpose(2, 1, 0))[None], n, config)[0]


def _observations(data):
    """Finite (N, n) vectors (m = 1) or (N, n, m) matrices as (N, n, m)."""
    X = np.asarray(data, dtype=float)
    X = X[:, :, None] if X.ndim == 2 else X
    if X.ndim != 3 or 0 in X.shape or not np.isfinite(X).all():
        raise ValueError("expected finite (N, n) or (N, n, m) observations, "
                         f"got shape {X.shape}")
    return X


def _write_frames(X, Fc):
    """Write the frames of the observations X (N, n, m) into the column
    layout Fc (m, n + m, N) of `_fit`."""
    n, m = X.shape[1:]
    Fc[:, :n] = X.transpose(2, 1, 0)
    Fc[:, n:] = np.eye(m)[:, :, None]


def fit_observations(data, config=None):
    """`fit` of (N, n) vectors (m = 1) or (N, n, m) matrices, unlifted.

    Their frames are written straight into the oracle's column layout, so
    that copy is all the fit holds: a caller that keeps no reference to
    data, as the CLI passes its parsed file, has it freed at once.
    """
    X = _observations(data)
    N, n, m = X.shape
    Fc = np.empty((1, m, n + m, N))
    _write_frames(X, Fc[0])
    del data, X
    return _fit(Fc, n, config)[0]


def _write_batch(datasets, size):
    """Write at most size datasets of one shape, one at a time as they
    come, into one column layout of `_fit`.

    Returns the layout (k, m, n + m, N) of the k datasets written, None if
    none was, and for each dataset in order None or the exception that
    kept it out: data that `_observations` refuses, or a shape other than
    the first written one's.  Only the layout holds the data: a caller
    that passes a generator has each dataset freed once it is written.
    """
    Fc, errors, k = None, [], 0
    for data in datasets:
        try:
            X = _observations(data)
            if Fc is None:
                N, n, m = X.shape
                Fc = np.empty((size, m, n + m, N))
            elif X.shape != (N, n, m):
                raise ValueError(f"dataset of shape {X.shape} in a batch of "
                                 f"shape {(N, n, m)}")
            _write_frames(X, Fc[k])
        except Exception as exc:
            errors.append(exc)
            continue
        errors.append(None)
        k += 1
    return (None if Fc is None else Fc[:k]), errors


def fit_observations_batch(datasets, config=None):
    """`fit_observations` of many datasets of one shape, in one descent.

    Their frames are written by `_write_batch` into one column layout, and
    the members run in lockstep.  Returns one (T, FitReport) per dataset,
    as `fit_observations` gives it alone; every report's wall time is
    that of the whole batch.  Raises the error of the first dataset it
    could not write.
    """
    Fc, errors = _write_batch(datasets, len(datasets))
    for exc in errors:
        if exc is not None:
            raise exc
    if Fc is None:
        raise ValueError("no dataset")
    return _fit(Fc, Fc.shape[2] - Fc.shape[1], config)


def _oracle(Fc):
    """(loss_fn, grad_fn, hess_fn) of a batch of valid frames.

    Fc holds each member's frames column by column, Fc[i][k, :, j] =
    Xt_j[:, k]: a (B, m, p, N) array, or B arrays (m, p, N) of one shape.
    Each function takes the frames x (k, p, p) of the members with the
    sorted indices members (k,), and gives each one's loss, its gradient
    seen from the frame, the mean projector less (m/p) I (k, p, p), and
    its Hessian (k, d, d) in `spd.frame_basis`.  All three come from one
    pass of `descent.chunked_oracle` over chunks of CHUNK frame entries,
    CHUNK / (m p) data, which holds O(p^4) sums per member and no
    per-datum array, and keeps them at each member's last loss evaluation.
    """
    m, p, N = Fc[0].shape
    at = _upper_triangle(p)[2]

    def finish(x, members, logdet, w1, w2):
        w1, w2 = w1 / N, w2 / N
        return (logdet / N, spd.trace_free(w1[:, at]),
                _frame_hessian(w1, w2, p))

    return descent.chunked_oracle(Fc, _projector_sums, finish,
                                  max(1, descent.CHUNK // (m * p)))


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
