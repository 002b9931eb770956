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
The knots are held as one array (k, 2), the scale a of each in column 0
and its center b in column 1, as are their tangents (da, db).  The fit
runs the shared descent loop of `descent`, as a batch of one (1, k, 2),
with its damped Newton step (`descent.newton_step`) from the median and
MAD of all finite observations (`fit`).  Its banded Newton solve is the
package's one use of scipy (`solveh_banded`).
"""

import functools
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from . import halfspace
# Uncalled: bench/test_bench.py checks the tracer's by-name wrapping on it.
from .cauchy import fit_univariate  # noqa: F401
from .descent import (DescentConfig, FitReport, _descend, _one, newton_step,
                      off_scale, plateau_status)
from .halfspace import HPoint


@dataclass(frozen=True)
class SplineProblem:
    """Knot times (strictly increasing), grouped observations, and penalty.

    Observations sharing a time are attached to one knot, so several unit
    forces can act at a junction.
    """

    times: tuple
    observations: tuple  # tuple of tuples of boundary points, one per knot
    alpha: float

    def __post_init__(self):
        if not self.times:
            raise ValueError("at least one knot is required")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):
            raise ValueError("knot times must be finite and strictly increasing")
        if len(self.observations) != len(self.times):
            raise ValueError("one observation group per knot is required")

    @classmethod
    def from_pairs(cls, times, values, alpha):
        """Build a problem from raw (t, x) pairs, merging duplicate times."""
        pairs = sorted(zip([float(t) for t in times], values), key=lambda p: p[0])
        knot_times, groups = [], []
        for t, x in pairs:
            if knot_times and t == knot_times[-1]:
                groups[-1].append(x)
            else:
                knot_times.append(t)
                groups.append([x])
        return cls(tuple(knot_times), tuple(tuple(g) for g in groups), alpha)

    @property
    def k(self):
        return len(self.times)


@dataclass
class SplineFit:
    """Fitted knot values (half-plane points) and the descent report."""

    times: tuple
    values: list
    report: FitReport


class _Arrays:
    """A problem flattened once for the array kernels.

    Finite observations x (m, 1) sit at knots knot (m,); n_inf (k,) counts
    those at infinity and counts (k,) all of them.  Directed edges run
    tail -> head, each pair of consecutive knots once in each direction,
    with weight alpha / time gap.  terms (m + 2k - 2,) names the knot of
    every data force and energy pull, to sum them with bincount.
    """

    def __init__(self, problem):
        self.k = k = problem.k
        finite = [(i, x) for i, group in enumerate(problem.observations)
                  for x in group if not halfspace.is_infinity(x)]
        self.knot = np.array([i for i, _ in finite], dtype=int)
        self.x = np.reshape([halfspace._boundary_vector(x, 1) for _, x in finite],
                            (-1, 1))
        self.counts = np.array([len(g) for g in problem.observations], float)
        self.n_inf = self.counts - np.bincount(self.knot, minlength=k)
        self.weights = problem.alpha / np.diff(problem.times)
        edges = np.arange(k - 1)
        self.tail = np.concatenate([edges, edges + 1])
        self.head = np.concatenate([edges + 1, edges])
        self.pull = np.tile(self.weights, 2)
        self.terms = np.concatenate([self.knot, self.tail])


def _knots(problem, values):
    """Knot values as one array (k, 2): scales a, then centers b."""
    if len(values) != problem.k:
        raise ValueError("one value per knot is required")
    b = np.array([z.b for z in values])
    if b.shape != (problem.k, 1):
        raise ValueError("knot values must be points of the half-plane")
    return np.column_stack([[z.a for z in values], b])


def _objective(data, x):
    a, b = x[:, 0], x[:, 1:]
    d = halfspace.distance_kernel(a[:-1], b[:-1], a[1:], b[1:])
    at = data.knot
    return float(halfspace.busemann_kernel(a[at], b[at], data.x).sum()
                 + data.n_inf @ halfspace.busemann_kernel(a, b)
                 + 0.5 * (data.weights @ (d * d)))


def objective(problem, values):
    """Data Busemann terms plus the discrete path energy."""
    return _objective(_Arrays(problem), _knots(problem, values))


def _gradient(data, x):
    """Objective gradient (da, db) per knot (k, 2): data forces, energy pulls."""
    a, b = x[:, 0], x[:, 1:]
    fa, fb = halfspace.busemann_grad_kernel(a[data.knot], b[data.knot], data.x)
    ia, _ = halfspace.busemann_grad_kernel(a, b)  # at infinity: vertical, no db
    # each knot is pulled toward both neighbours with weight alpha / gap
    pa, pb = halfspace.log_kernel(a[data.tail], b[data.tail],
                                  a[data.head], b[data.head])
    w = data.pull
    into = functools.partial(np.bincount, data.terms, minlength=data.k)
    return np.column_stack([into(np.concatenate([fa, -w * pa]))
                            + data.n_inf * ia,
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
    g = _gradient(_Arrays(problem), x)
    return halfspace.norm_kernel(x[:, 0], g[:, 0], g[:, 1:]).tolist()


def _initial_values(data):
    """Every knot at (a, b) = (MAD, median) of the finite observations."""
    med, mad = halfspace.median_mad(data.x)
    return np.tile(np.append(mad, med), (data.k, 1))


def _hessian(data, x, shift=0.0):
    """Riemannian Hessian plus shift * G in the chart (log a, b), banded.

    The chart metric is G = diag(1, 1/a^2) per knot.  A Busemann term adds
    G - u u^T at its knot, u its unit chart differential.  An energy edge
    of length d and weight w adds w (T T^T + d coth d n n^T) at either end
    and -w (T_1 T_2^T + (d / sinh d) n_1 n_2^T) across, with T the lowered
    unit tangent of the edge geodesic at each end and n it turned by 90
    degrees.  The knots are interleaved (s_0, b_0, s_1, b_1, ...), so the
    Hessian is block-tridiagonal: upper band form (4, 2k) of solveh_banded.
    """
    a, b = x[:, 0], x[:, 1:]
    at, tail, k = data.knot, data.tail, data.k
    fa, fb = halfspace.busemann_grad_kernel(a[at], b[at], data.x)
    us, ub = fa / a[at], fb[:, 0] / a[at] ** 2
    # (c, s): unit tangent from tail toward head in the orthonormal frame
    # (d/d log a, a d/db); between coincident knots any one will do
    pa, pb = halfspace.log_kernel(a[tail], b[tail], a[data.head], b[data.head])
    r = np.hypot(pa, pb[:, 0])
    flat = r == 0.0
    r = np.where(flat, 1.0, r)
    c, s, d = np.where(flat, data.head - tail, pa / r), pb[:, 0] / r, r / a[tail]
    with np.errstate(over="ignore"):
        coth = np.where(flat, 1.0, d / np.tanh(d))
        csch = np.where(flat, 1.0, d / np.sinh(d))[:k - 1]
    into = functools.partial(np.bincount, data.terms, minlength=k)
    ab = np.zeros((4, k, 2))
    ab[3, :, 0] = data.counts - data.n_inf + shift + into(
        np.concatenate([-us * us, data.pull * (c * c + coth * s * s)]))
    ab[2, :, 1] = into(np.concatenate(
        [-us * ub, data.pull * c * s * (1 - coth) / a[tail]]))
    ab[3, :, 1] = (data.counts + shift) / a ** 2 + into(np.concatenate(
        [-ub * ub, data.pull * (s * s + coth * c * c) / a[tail] ** 2]))
    # T_2 is minus the reverse edge's tangent, so the cross block's sign flips
    c1, s1, c2, s2 = c[:k - 1], s[:k - 1], c[k - 1:], s[k - 1:]
    w, ai, aj = data.weights, a[:-1], a[1:]
    ab[1, 1:, 0] = w * (c1 * c2 + csch * s1 * s2)
    ab[0, 1:, 1] = w * (c1 * s2 - csch * s1 * c2) / aj
    ab[2, 1:, 0] = w * (s1 * c2 - csch * c1 * s2) / ai
    ab[1, 1:, 1] = w * (s1 * s2 + csch * c1 * c2) / (ai * aj)
    return ab.reshape(4, 2 * k)


def _newton(data, x, grad, g):
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
        p = solveh_banded(_hessian(data, x, g / np.sqrt(data.k)),
                          rhs).reshape(-1, 2)
    except np.linalg.LinAlgError:
        return np.zeros_like(x), False
    p[:, 0] *= a
    return p, True


def fit(problem, config=None):
    """Minimize the spline objective by damped Riemannian Newton steps.

    Every knot starts at (a, b) = (MAD, median) of the finite observations;
    the objective is geodesically convex, so the start sets only the path.
    Each iteration solves (H + |g| / sqrt(k) G) p = g in the chart
    (log a, b) of every knot: H is the closed-form block-tridiagonal
    Riemannian Hessian, positive semidefinite since the objective is
    geodesically convex, G the metric and |g| the total gradient norm
    (see `_newton`).  The knots move along the
    tangents (a p_s, p_b) by the line search of `descent.newton_step`,
    which the two engines share.  When the budget runs out, or the
    factorization or that search fails, the fit stops and the tail of the
    gradient norms names the outcome.  The step is the same under both
    step policies, and the loss trace never increases beyond roundoff.

    Converged means the total gradient norm (root of summed squared knot
    gradients) fell below config.tol, which bounds every junction residual.
    Knots escaping to the boundary mark the problem degenerate.
    """
    config = config or DescentConfig()
    start = time.perf_counter()
    data = _Arrays(problem)
    grad_fn = _one(functools.partial(_gradient, data))

    def solve(x, members, grad, g):
        tangent, ok = _newton(data, x[0], grad[0], g[0])
        return tangent[None], np.array([ok])

    step = newton_step(solve, lambda x, members: _total_norm(x, grad_fn(x, members)))
    x, (report,) = _descend(
        _initial_values(data)[None], _one(functools.partial(_objective, data)),
        grad_fn, _total_norm,
        lambda x, members: off_scale(x[..., 0]).any(axis=1),
        _retract, step, config, classify=plateau_status)
    report.wall_time = time.perf_counter() - start
    return SplineFit(problem.times, [HPoint(z[0], z[1:]) for z in x[0]], report)


def evaluate(solution, t):
    """Value of the fitted path at time t.

    Constant before the first knot and after the last; constant-speed
    geodesic interpolation between consecutive knots.
    """
    t = float(t)
    times = solution.times
    values = solution.values
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    i = int(np.searchsorted(times, t, side="right")) - 1
    if times[i] == t:
        return values[i]
    frac = (t - times[i]) / (times[i + 1] - times[i])
    v = halfspace.log_map(values[i], values[i + 1])
    return halfspace.exp_map(values[i], v, frac)
