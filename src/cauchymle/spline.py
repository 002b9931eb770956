"""Piecewise-geodesic spline regression into the hyperbolic upper half-plane.

A continuous path h into H^2 that is geodesic between knot times and
constant outside them is summarized by its knot values z_1, ..., z_k.  The
penalized objective

    sum_i B_{x_i}(z(t_i))  +  (alpha/2) sum_i d(z_i, z_{i+1})^2 / (t_{i+1} - t_i)

is exact for such paths because the energy of a fixed-endpoint segment on
an interval of length D is minimized by the constant-speed geodesic, with
energy d^2 / D.  At a stationary point every junction balances forces:

    alpha (h'(t_i + 0) - h'(t_i - 0)) + v_i = 0,

with v_i the sum of the unit forces pulling z_i toward its observations.
A `SplineProblem` holds its data as arrays, and the knots are one array
(k, 2) from the fit to its result, the scale a of each in column 0 and
its center b in column 1, as are their tangents (da, db).  The fit runs
the shared descent loop of `descent`, as a batch of one (1, k, 2), with
its damped Newton step (`descent.newton_step`) from the median and MAD
of all finite observations (`fit`).  Its block-tridiagonal Newton system
is solved in numpy (`_solve_banded`).
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import halfspace
# Uncalled: bench/test_bench.py checks the tracer's by-name wrapping on it.
from .cauchy import fit_univariate  # noqa: F401
from .descent import (DescentConfig, FitReport, _descend, newton_step,
                      off_scale, plateau_status)
from .halfspace import HPoint


class SplineProblem:
    """Knot times (k,), strictly increasing, a group of observations per
    knot, and the penalty alpha, held as arrays: the finite observations
    x (m, 1) at knots knot (m,); n_inf (k,) counts those at infinity and
    counts (k,) all of them.  Directed edges run tail -> head, each pair of
    consecutive knots once in each direction, with weight alpha / time gap.
    terms (m + 2k - 2,) names the knot of every data force and energy
    pull, to sum them with bincount.
    """

    def __init__(self, times, groups, alpha):
        if len(groups) != len(times):
            raise ValueError("one observation group per knot is required")
        self._build(np.asarray(times, dtype=float), [x for g in groups for x in g],
                    np.repeat(np.arange(len(groups)), [len(g) for g in groups]),
                    alpha)

    @classmethod
    def from_pairs(cls, times, values, alpha):
        """Build a problem from raw (t, x) pairs, merging duplicate times."""
        if len(values) != len(times):
            raise ValueError("one time per observation is required")
        # return_index sorts stably: -0.0 and 0.0 share the knot of the first
        times, _, knot = np.unique(np.asarray(times, dtype=float),
                                   return_index=True, return_inverse=True)
        problem = cls.__new__(cls)
        problem._build(times, values, knot, alpha)
        return problem

    def _build(self, times, values, knot, alpha):
        """Check and hold a problem whose observation j sits at knot[j]:
        INFINITY, or a finite boundary point of dimension 1."""
        if not len(times):
            raise ValueError("at least one knot is required")
        if not (np.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {alpha}")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("knot times must be finite and strictly increasing")
        with np.errstate(over="ignore"):
            weights = alpha / np.diff(times)
        if not np.all(np.isfinite(weights)):
            raise ValueError("a knot time gap is so small that the energy "
                             "weight alpha / gap overflows")
        try:
            x, at_inf = np.asarray(values, dtype=float), np.zeros(len(values), bool)
        except (TypeError, ValueError):  # INFINITY among the values?
            at_inf = np.array([halfspace.is_infinity(v) for v in values], bool)
            if not at_inf.any():
                raise
            x = np.asarray([v for v, i in zip(values, at_inf) if not i], float)
        if x.shape[1:] not in ((), (1,)) or not np.all(np.isfinite(x)):
            raise ValueError("finite boundary points must be finite and of "
                             f"dimension 1, got shape {x.shape[1:]}")
        self.times, self.alpha, self.k = times, alpha, len(times)
        # the finite observations in knot order, each knot's in given order
        finite = knot[~at_inf]
        order = np.argsort(finite, kind="stable")
        self.x, self.knot = x.reshape(-1, 1)[order], finite[order]
        self.counts = np.bincount(knot, minlength=self.k).astype(float)
        self.n_inf = np.bincount(knot[at_inf], minlength=self.k).astype(float)
        self.weights = weights
        edges = np.arange(self.k - 1)
        self.tail = np.concatenate([edges, edges + 1])
        self.head = np.concatenate([edges + 1, edges])
        self.pull = np.tile(self.weights, 2)
        self.terms = np.concatenate([self.knot, self.tail])


@dataclass
class SplineFit:
    """Fitted knots (k, 2), scales a then centers b, at times (k,)."""

    times: np.ndarray
    knots: np.ndarray
    report: FitReport

    @property
    def values(self):
        """The knots as half-plane points."""
        return [HPoint(z[0], z[1:]) for z in self.knots]


def _knots(problem, values):
    """Knots as one array (k, 2), scales a then centers b: that array
    itself, or read from one point of the half-plane per knot."""
    if not isinstance(values, np.ndarray):
        values = np.array([(z.a, *z.b) for z in values])
    if values.shape != (problem.k, 2):
        raise ValueError(f"knots must be ({problem.k}, 2): one point of the "
                         f"half-plane per knot, got shape {values.shape}")
    return values


def _objective(problem, x):
    a, b = x[:, 0], x[:, 1:]
    d = halfspace.distance_kernel(a[:-1], b[:-1], a[1:], b[1:])
    at = problem.knot
    return float(halfspace.busemann_kernel(a[at], b[at], problem.x).sum()
                 + problem.n_inf @ halfspace.busemann_kernel(a, b)
                 + 0.5 * (problem.weights @ (d * d)))


def objective(problem, values):
    """Data Busemann terms plus the discrete path energy."""
    return _objective(problem, _knots(problem, values))


def _gradient(problem, x):
    """Objective gradient (da, db) per knot (k, 2): data forces, energy pulls."""
    a, b = x[:, 0], x[:, 1:]
    at, tail, head = problem.knot, problem.tail, problem.head
    fa, fb = halfspace.busemann_grad_kernel(a[at], b[at], problem.x)
    ia, _ = halfspace.busemann_grad_kernel(a, b)  # at infinity: vertical, no db
    # each knot is pulled toward both neighbours with weight alpha / gap
    pa, pb = halfspace.log_kernel(a[tail], b[tail], a[head], b[head])
    w = problem.pull
    into = functools.partial(np.bincount, problem.terms, minlength=problem.k)
    return np.column_stack([into(np.concatenate([fa, -w * pa]))
                            + problem.n_inf * ia,
                            into(np.concatenate([fb[:, 0], -w * pb[:, 0]]))])


def _total_norm(x, grad):
    """Root of the summed squared knot gradient norms, per member of a batch."""
    norms = halfspace.norm_kernel(x[..., 0], grad[..., 0], grad[..., 1:])
    return np.sqrt((norms ** 2).sum(axis=-1))


def _retract(x, tangent, t):
    """The knots of each member moved along tangent for time t; out of range
    when one of them is."""
    at, bt, out = halfspace.exp_kernel_masked(
        x[..., 0], x[..., 1:], tangent[..., 0], tangent[..., 1:], t[:, None])
    return np.concatenate([at[..., None], bt], axis=-1), out.any(axis=-1)


def junction_residuals(problem, values):
    """Force-balance residual norm at every knot.

    The residual alpha * (outgoing velocity - incoming velocity) + v_i,
    with v_i the summed unit forces toward the observations, is minus the
    objective gradient; its norm vanishes at a stationary spline.
    """
    x = _knots(problem, values)
    g = _gradient(problem, x)
    return halfspace.norm_kernel(x[:, 0], g[:, 0], g[:, 1:]).tolist()


def _initial_values(problem):
    """Every knot at (a, b) = (MAD, median) of the finite observations."""
    med, mad = halfspace.median_mad(problem.x)
    return np.tile(np.append(mad, med), (problem.k, 1))


def _hessian(problem, x, shift=0.0):
    """Riemannian Hessian plus shift * G in the chart (log a, b), banded.

    The chart metric is G = diag(1, 1/a^2) per knot.  A Busemann term adds
    G - u u^T at its knot, u its unit chart differential.  An energy edge
    of length d and weight w adds w (T T^T + d coth d n n^T) at either end
    and -w (T_1 T_2^T + (d / sinh d) n_1 n_2^T) across, with T the lowered
    unit tangent of the edge geodesic at each end and n it turned by 90
    degrees.  The knots are interleaved (s_0, b_0, s_1, b_1, ...), so the
    Hessian is block-tridiagonal: upper band form (4, 2k) of LAPACK's
    banded routines, as `_solve_banded` reads it.
    """
    a, b = x[:, 0], x[:, 1:]
    at, tail, head, k = problem.knot, problem.tail, problem.head, problem.k
    fa, fb = halfspace.busemann_grad_kernel(a[at], b[at], problem.x)
    us, ub = fa / a[at], fb[:, 0] / a[at] ** 2
    # (c, s): unit tangent from tail toward head in the orthonormal frame
    # (d/d log a, a d/db); between coincident knots any one will do
    pa, pb = halfspace.log_kernel(a[tail], b[tail], a[head], b[head])
    r = np.hypot(pa, pb[:, 0])
    flat = r == 0.0
    r = np.where(flat, 1.0, r)
    c, s, d = np.where(flat, head - tail, pa / r), pb[:, 0] / r, r / a[tail]
    with np.errstate(over="ignore"):
        coth = np.where(flat, 1.0, d / np.tanh(d))
        csch = np.where(flat, 1.0, d / np.sinh(d))[:k - 1]
    into = functools.partial(np.bincount, problem.terms, minlength=k)
    ab = np.zeros((4, k, 2))
    ab[3, :, 0] = problem.counts - problem.n_inf + shift + into(
        np.concatenate([-us * us, problem.pull * (c * c + coth * s * s)]))
    ab[2, :, 1] = into(np.concatenate(
        [-us * ub, problem.pull * c * s * (1 - coth) / a[tail]]))
    ab[3, :, 1] = (problem.counts + shift) / a ** 2 + into(np.concatenate(
        [-ub * ub, problem.pull * (s * s + coth * c * c) / a[tail] ** 2]))
    # T_2 is minus the reverse edge's tangent, so the cross block's sign flips
    c1, s1, c2, s2 = c[:k - 1], s[:k - 1], c[k - 1:], s[k - 1:]
    w, ai, aj = problem.weights, a[:-1], a[1:]
    ab[1, 1:, 0] = w * (c1 * c2 + csch * s1 * s2)
    ab[0, 1:, 1] = w * (c1 * s2 - csch * s1 * c2) / aj
    ab[2, 1:, 0] = w * (s1 * c2 - csch * c1 * s2) / ai
    ab[1, 1:, 1] = w * (s1 * s2 + csch * c1 * c2) / (ai * aj)
    return ab.reshape(4, 2 * k)


# Up to BASE knots the Newton system is solved knot by knot on Python
# floats, at about 1.2 us a knot (2-core x86 box).  Above, cyclic
# reduction first halves it: a halving of n knots costs about 55 numpy
# calls, some 60 us + 0.05 us * n, and spares the sequential pass the n / 2
# knots it eliminates, 0.6 us * n.  So halving pays above n = 60 / 0.55,
# about 110 knots, and the sequential pass is left 65 to 128 of them.
BASE = 128
_INDEFINITE = "the Newton system is not positive definite"


def _fields(a0, a1, a2, a3, y):
    """Each knot's row [D | y | E] from the band rows a0..a3 and the
    right-hand side y, all padded by two zeros.

    D is the knot's diagonal block, E the block that couples it to the next
    knot (zero for the last), and y its part of the right-hand side; a
    row lists D_00, D_01, y_0, E_00, E_01, then D_10, D_11, y_1, E_10, E_11.
    """
    return (a3[:-2:2], a2[1:-2:2], y[:-2:2], a1[2::2], a0[3::2],
            a2[1:-2:2], a3[1:-2:2], y[1:-2:2], a2[2::2], a1[3::2])


def _sequential(rows):
    """Block LDL^T solve of the knot rows of `_fields`, as a flat list.

    The pivot S_i = D_i - E_{i-1}^T S_{i-1}^-1 E_{i-1} of each knot must be
    positive definite: s00 > 0 and det S_i > 0.
    """
    steps = []
    # E^T S^-1 E and E^T S^-1 z of the knot before
    c00 = c01 = c11 = c0 = c1 = 0.0
    for d00, d01, y0, e00, e01, _, d11, y1, e10, e11 in rows:
        s00, s01, s11 = d00 - c00, d01 - c01, d11 - c11
        det = s00 * s11 - s01 * s01
        if not (s00 > 0.0 and det > 0.0):
            raise np.linalg.LinAlgError(_INDEFINITE)
        r = 1.0 / det
        i00, i01, i11 = s11 * r, -s01 * r, s00 * r
        z0, z1 = y0 - c0, y1 - c1
        w0, w1 = i00 * z0 + i01 * z1, i01 * z0 + i11 * z1
        g00, g01 = i00 * e00 + i01 * e10, i00 * e01 + i01 * e11
        g10, g11 = i01 * e00 + i11 * e10, i01 * e01 + i11 * e11
        steps.append((w0, w1, g00, g01, g10, g11))
        c00, c01, c11 = e00 * g00 + e10 * g10, e00 * g01 + e10 * g11, \
            e01 * g01 + e11 * g11
        c0, c1 = e00 * w0 + e10 * w1, e01 * w0 + e11 * w1
    out = []
    x0 = x1 = 0.0
    for w0, w1, g00, g01, g10, g11 in reversed(steps):
        x0, x1 = w0 - g00 * x0 - g01 * x1, w1 - g10 * x0 - g11 * x1
        out += (x1, x0)
    out.reverse()
    return out


def _reduce(knots):
    """Solution (2, n) of the knot rows (2, 5, n) of `_fields`; n is even
    when above BASE.

    Cyclic reduction eliminates every odd knot through its pivot D, whose
    inverse is formed from its determinant.  With L the block that couples
    it to the even knot before and R to the one after, the knot before
    loses L D^-1 [L^T | y | R] from its row and the knot after loses
    R^T D^-1 [R | y] from its [D | y].  The even knots are left a system of
    the same form and half the size, positive definite when the whole is.
    """
    n = knots.shape[-1]
    if n <= BASE:
        return np.reshape(_sequential(knots.reshape(10, n).T.tolist()),
                          (n, 2)).T
    even, odd = knots[..., 0::2], knots[..., 1::2]
    d00, d01, d10, d11 = odd[0, 0], odd[0, 1], odd[1, 0], odd[1, 1]
    det = d00 * d11 - d01 * d10
    if not (d00.min() > 0.0 and det.min() > 0.0):
        raise np.linalg.LinAlgError(_INDEFINITE)
    inv = np.array([[d11, -d01], [-d10, d00]]) / det
    left = even[:, 3:]
    f = np.einsum("ijm,kjm->ikm", inv, left)  # F = D^-1 L^T
    wg = np.einsum("ijm,jkm->ikm", inv, odd[:, 2:])  # [w | G] = D^-1 [y | R]
    reduced = np.empty_like(even)
    reduced[:, :2] = even[:, :2] - np.einsum("ijm,jkm->ikm", left, f)
    reduced[:, 2:] = -np.einsum("ijm,jkm->ikm", left, wg)  # [-L w | -L G]
    reduced[:, 2] += even[:, 2]
    # each odd knot's [R^T w | R^T G] lands on the even knot after it
    reduced[:, [2, 0, 1], 1:] -= np.einsum("jim,jkm->ikm", odd[:, 3:, :-1],
                                           wg[..., :-1])
    xe = _reduce(reduced)
    # x_o = w - F x_before - G x_after, with [-1 | x_after] against [w | G]
    after = np.zeros((3, n // 2))
    after[0] = -1.0
    after[1:, :-1] = xe[:, 1:]
    x = np.empty((2, n))
    x[:, 0::2] = xe
    x[:, 1::2] = -(np.einsum("ijm,jm->im", f, xe)
                   + np.einsum("ijm,jm->im", wg, after))
    return x


def _solve_banded(ab, rhs):
    """Solve the symmetric block-tridiagonal system in the upper band form
    (4, 2k) of `_hessian`, 2 x 2 blocks with the knots interleaved.

    Raises np.linalg.LinAlgError when the matrix is not positive definite,
    which in exact arithmetic is exactly when one of the pivot blocks of
    the elimination is not.
    """
    k = rhs.size // 2
    if k <= BASE:
        rows = (row + [0.0, 0.0] for row in (*ab.tolist(), rhs.tolist()))
        return np.array(_sequential(zip(*_fields(*rows))))
    # identity knots pad k to n = 2^levels * m with m <= BASE: every halving
    # then leaves an even count until the sequential pass takes the m
    levels = int(np.ceil(np.log2(k / BASE)))
    n = -(-k >> levels) << levels
    rows = np.zeros((5, 2 * n + 2))
    rows[:4, :2 * k] = ab
    rows[4, :2 * k] = rhs
    rows[3, 2 * k:2 * n] = 1.0
    return _reduce(np.stack(_fields(*rows)).reshape(2, 5, n))[:, :k].T.ravel()


def _newton(problem, x, grad, g):
    """Newton tangents (k, 2) from (H + r G) p = chart gradient, and whether
    the solve succeeded: a zero tangent where it failed.

    Damping keeps a flat valley of minimizers solvable, and it fades as the
    fit converges.  It is r = g / sqrt(k), the RMS knot gradient norm, not
    the total norm g: the objective is a sum over knots.  Two far-apart
    copies of a problem, joined by an energy edge of tiny weight, raise g
    by sqrt(2) while each copy's Hessian is unchanged, so damping by g
    would shrink each copy's step as the problem grows; by r it does not,
    and long problems take the steps of short ones.
    """
    a = x[:, 0]
    rhs = np.column_stack([grad[:, 0] / a, grad[:, 1] / a ** 2]).ravel()
    try:
        p = _solve_banded(_hessian(problem, x, g / np.sqrt(problem.k)),
                          rhs).reshape(-1, 2)
    except np.linalg.LinAlgError:
        return np.zeros_like(x), False
    p[:, 0] *= a
    return p, True


def _one(fn):
    """fn of one point, and more arguments, as a function of a batch of one."""
    return lambda x, members, *args: np.asarray(
        fn(x[0], *[y[0] for y in args]))[None]


def fit(problem, config=None):
    """Minimize the spline objective by damped Riemannian Newton steps.

    Every knot starts at (a, b) = (MAD, median) of the finite observations;
    the objective is geodesically convex, so the start sets only the path.
    Each iteration solves (H + |g| / sqrt(k) G) p = g in the chart
    (log a, b) of every knot: H is the closed-form block-tridiagonal
    Riemannian Hessian, positive semidefinite since the objective is
    geodesically convex, G the metric and |g| the total gradient norm
    (see `_newton`).  The knots move along the tangents (a p_s, p_b) by
    the line search of `descent.newton_step`, which the two engines share.
    When the budget runs out, or the factorization or that search fails,
    the fit stops and the tail of the gradient norms names the outcome.
    The step is the same under both step policies, and the loss trace
    never increases beyond roundoff.

    Converged means the total gradient norm (root of summed squared knot
    gradients) fell below config.tol, which bounds every junction residual.
    Knots escaping to the boundary mark the problem degenerate.
    """
    config = config or DescentConfig()
    start = time.perf_counter()
    grad_fn = _one(functools.partial(_gradient, problem))

    def solve(x, members, grad, g):
        tangent, ok = _newton(problem, x[0], grad[0], g[0])
        return tangent[None], np.array([ok])

    step = newton_step(solve, lambda x, members: _total_norm(x, grad_fn(x, members)))
    x, (report,) = _descend(
        _initial_values(problem)[None], _one(functools.partial(_objective, problem)),
        grad_fn, _total_norm,
        lambda x, members: off_scale(x[..., 0]).any(axis=1),
        _retract, step, config, classify=plateau_status)
    report.wall_time = time.perf_counter() - start
    return SplineFit(problem.times, x[0], report)


def evaluate(solution, t):
    """Value of the fitted path at time t, not NaN.

    Constant before the first knot and after the last; constant-speed
    geodesic interpolation between consecutive knots.
    """
    t = float(t)
    if np.isnan(t):
        raise ValueError("the time must not be NaN")
    times, knots = solution.times, solution.knots
    i = max(int(np.searchsorted(times, t, side="right")) - 1, 0)
    z = HPoint(knots[i, 0], knots[i, 1:])
    if i + 1 == len(times) or t <= times[i]:
        return z
    frac = (t - times[i]) / (times[i + 1] - times[i])
    v = halfspace.log_map(z, HPoint(knots[i + 1, 0], knots[i + 1, 1:]))
    return halfspace.exp_map(z, v, frac)
