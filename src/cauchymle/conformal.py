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
(Busemann -log a, unit force (-1, 0)).  Inside the package a point (a, b)
is one array (n + 1,), the scale first; `fit` and `fit_batch` give
HPoints.  `fit_batch` fits many datasets in one descent, each as `fit`
fits it alone.
"""

import numpy as np

from . import halfspace
from .descent import (DescentConfig, FitReport, FitStatus,
                      minimize_on_halfspace, minimize_on_halfspace_batch)

# a loss evaluation of a batch runs over chunks holding about this many
# data, whole members or slices of one, so that its temporaries stay in a
# core's cache
CHUNK_DATA = 2**14


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


def _unit_forces(a, diff):
    """The unit forces at (a (k,), b) of data at offsets diff = b - x (k, n, N).

    u_i = (2 a^2 / q_i - 1, 2 a (b - x_i) / q_i) with q_i = a^2 + |b - x_i|^2.
    The center parts overwrite diff; returns q and the scale parts (k, N).
    """
    q = np.square(diff[:, 0])
    for i in range(1, diff.shape[1]):
        q += np.square(diff[:, i])
    q += (a * a)[:, None]
    c = np.divide((2.0 * a)[:, None], q)
    diff *= c[:, None]
    c *= a[:, None]
    c -= 1.0
    return q, c


def _oracle(F, n_inf):
    """(loss_fn, grad_fn, hess_fn) of a batch of validated datasets.

    F holds each member's finite data, B arrays (N, n) with the same N, and
    n_inf (B,) counts its data at infinity.  Each function takes the points
    x (k, n + 1), scale first, of the members with the sorted indices
    members (k,) and gives each one's loss, its gradient n mean u_i
    (k, n + 1) and its Hessian n (I - mean u_i u_i^T) (k, n + 1, n + 1) in
    the orthonormal frame (a d/da, a d/db), u = (-1, 0) at infinity.  One
    pass over the data gives all three: a loss evaluation keeps each
    member's gradient and Hessian, which the other two functions read at
    the point of the member's last evaluation, and recompute at any other
    point.  The pass runs over chunks of about CHUNK_DATA data, whole
    members while they fit and slices of a larger member, so that no
    temporary grows with the sample size.
    """
    # each member's data as a contiguous (n, N) copy: at small n the
    # products and reductions over N run several times faster on columns
    Ft = [np.ascontiguousarray(X.T) for X in F]
    B, (n, size) = len(Ft), Ft[0].shape
    n_inf = np.asarray(n_inf, dtype=float)
    N = size + n_inf
    grads, hessians = np.empty((B, n + 1)), np.empty((B, n + 1, n + 1))
    at = np.full((B, n + 1), np.nan)  # where they were formed

    step = max(1, CHUNK_DATA // max(size, 1))
    span = min(max(size, 1), CHUNK_DATA)
    # each member's columns as views of span data, formed once
    cols = [[X[:, j:j + span] for j in range(0, max(size, 1), span)]
            for X in Ft]

    def loss_fn(x, members):
        return np.concatenate([
            evaluate(x[i:i + step], members[i:i + step])
            for i in range(0, len(members), step)])

    def sums(a, b, members, s):
        """Sum log q, the sums of the forces' scale (k,) and center
        (k, n) parts, and of their products (k, n + 1, n + 1), over the
        members' slice s of their data."""
        u = np.stack([cols[i][s] for i in members])
        np.subtract(b[:, :, None], u, out=u)
        q, u0 = _unit_forces(a, u)
        rows = [u0, *u.transpose(1, 0, 2)]
        M = np.empty((len(members), n + 1, n + 1))
        for r in range(n + 1):
            for c in range(r, n + 1):
                M[:, r, c] = M[:, c, r] = np.einsum("kj,kj->k", rows[r],
                                                    rows[c])
        return [np.log(q, out=q).sum(axis=1), u0.sum(axis=1), u.sum(axis=2), M]

    def evaluate(x, members):
        a, b = x[:, 0], x[:, 1:]
        total = sums(a, b, members, 0)
        for s in range(1, len(cols[0])):
            for t, more in zip(total, sums(a, b, members, s)):
                t += more
        logq, g0, g, M = total
        Nk = N[members]
        M[:, 0, 0] += n_inf[members]
        hessians[members] = n * (np.eye(n + 1) - M / Nk[:, None, None])
        g = np.column_stack([g0 - n_inf[members], g])
        grads[members] = g * (n / Nk)[:, None]
        at[members] = x
        return n * (logq - Nk * np.log(a)) / Nk

    def reading(kept):
        def fn(x, members):
            stale = (at[members] != x).any(axis=1)
            if stale.any():
                loss_fn(x[stale], members[stale])
            return kept[members]
        return fn

    return loss_fn, reading(grads), reading(hessians)


def _evaluate(F, n_inf, x):
    """The loss and the frame gradient of validated data at one point x."""
    loss_fn, grad_fn, _ = _oracle([F], [n_inf])
    x, one = x[None], np.zeros(1, dtype=int)
    return float(loss_fn(x, one)[0]), grad_fn(x, one)[0]


def loss(z, data, n=None):
    """Averaged negative log likelihood, n * mean Busemann, up to a constant."""
    F, n_inf = _split_data(data, z.n if n is None else n)
    return _evaluate(F, n_inf, np.append(z.a, z.b))[0]


def grad(z, data, n=None):
    """Riemannian gradient of loss at z; norm at most n (mean of n-scaled unit forces)."""
    F, n_inf = _split_data(data, z.n if n is None else n)
    g = _evaluate(F, n_inf, np.append(z.a, z.b))[1]
    return halfspace.HTangent(z, z.a * g[0], z.a * g[1:])


def _largest_repeat(V):
    """The largest number of equal entries in each row of V (B, N)."""
    s = np.sort(V, axis=1)
    new = np.ones(s.shape, dtype=bool)  # where a run of equal entries starts
    np.not_equal(s[:, 1:], s[:, :-1], out=new[:, 1:])
    if new.all():  # no entry repeats
        return np.full(len(V), min(V.shape[1], 1))
    first = np.flatnonzero(new)  # the rows end to end, each starting a run
    rows = first.searchsorted(np.arange(0, V.size, V.shape[1]))
    return np.maximum.reduceat(np.diff(first, append=V.size), rows)


def has_dominant_point(F, n_inf):
    """True when the data, F finite and n_inf at infinity, leave no minimiser.

    The conformal barycenter exists, and is unique, when every boundary
    point holds less than half the data (Douady & Earle 1986).  A point,
    infinity included, that holds more leaves none; so does one holding
    half, unless the other half is one point too: then every point of the
    geodesic between the two minimises.  Points are counted exactly.  No
    point repeats more often than its first coordinate, so one sort of that
    column settles all data but those with a value there held by half.
    F may also be a stack (B, N, n) of datasets, with n_inf (B,): the
    answers (B,) of all of them then come from one sort.
    """
    stack = F if F.ndim == 3 else F[None]
    n_inf = np.broadcast_to(n_inf, stack.shape[:1])
    N = stack.shape[1] + n_inf
    found = 2 * np.maximum(n_inf, _largest_repeat(stack[:, :, 0])) >= N
    for i in np.flatnonzero(found):
        counts = np.append(np.unique(stack[i], axis=0, return_counts=True)[1],
                           n_inf[i])
        found[i] = 2 * counts.max() >= N[i] and not np.array_equal(
            counts[counts > 0], [N[i] // 2, N[i] // 2])
    return found if F.ndim == 3 else bool(found[0])


def _starts(F, n_inf, n):
    """The starts (MAD, median) (n + 1,) of a stack of finite data F
    (B, N, n), with n_inf (B,) at infinity, each with the refusal of data
    with a dominant point (see `has_dominant_point`), or None."""
    med, mad = halfspace.median_mad(F)
    x = np.column_stack([mad, med])
    starts = [(xi, None) for xi in x]
    for i in np.flatnonzero(has_dominant_point(F, n_inf)):
        loss = _evaluate(F[i], n_inf[i], x[i])[0]
        starts[i] = x[i], FitReport(FitStatus.DEGENERATE_DATA, 0, [loss], [],
                                    0.0, loss_evals=1)
    return starts


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
    the caps around the start's) is reported the same way.  The fit is a
    batch of one: `fit_batch` gives each member this same answer.
    """
    F, n_inf = _split_data(data, n)
    (x, report), = _starts(F[None], [n_inf], n)
    if report is None:
        x, report = minimize_on_halfspace(
            x, *_oracle([F], [n_inf]), curvature=n,
            config=config or DescentConfig())
    return halfspace.HPoint(x[0], x[1:]), report


def fit_batch(members, n, config=None):
    """`fit` of many datasets at once: one descent runs all of them in lockstep.

    members holds validated datasets as `_split_data` gives them, pairs
    (F, n_inf) with the same number of finite observations.  Returns one
    (HPoint, FitReport) per member, as `fit` gives it alone; every
    report's wall time is that of the whole batch.
    """
    starts = _starts(np.stack([F for F, _ in members]),
                     [n_inf for _, n_inf in members], n)
    live = [i for i, (_, refused) in enumerate(starts) if refused is None]
    if live:
        oracle = _oracle([members[i][0] for i in live],
                         [members[i][1] for i in live])
        x, reports = minimize_on_halfspace_batch(
            np.stack([starts[i][0] for i in live]), *oracle, curvature=n,
            config=config or DescentConfig())
        for i, xi, report in zip(live, x, reports):
            starts[i] = xi, report
    return [(halfspace.HPoint(x[0], x[1:]), report) for x, report in starts]
