"""Geodesic descent engines shared by the family fitters.

Two engines live here, one for losses on the unit-determinant SPD manifold
and one for losses on the hyperbolic half-space; both, and the spline
solver, run one loop, each with its own step.  Under the default policy
the three take the same damped Newton step (`newton_step`); the `safe`
policy takes one gradient step of a certified length.  Each oracle gives
the gradient and the Riemannian Hessian in an orthonormal frame.  The SPD
engine moves a frame R of the point T = R R^T: its gradient is seen from
R, a symmetric trace-free p x p matrix whose Frobenius norm is the
Riemannian norm, and its Hessian is in an orthonormal basis of such
matrices (`spd.frame_basis`); a step is one symmetric eigendecomposition
(`spd.factor_step`), with no factorization of T.  The half-space engine
moves a point (a, b) held as arrays, in the frame (a d/da, a d/db), along
`halfspace.exp_kernel`.

The loop stops when the gradient norm falls below the configured
tolerance.  A fit of either engine that converged or ran out of budget
is then classified by the smallest eigenvalue of its Hessian at the
returned point: below (1 - PLATEAU_RATE) times the loss's curvature
bound L, a gradient step of length 1/L would contract the error slower
than PLATEAU_RATE, so the argmin is nearly degenerate along a geodesic
and the estimate is statistically unstable (ill-conditioned).  The
spline, which has no Hessian verdict yet, reads the same rate from the
tail of the gradient norms (`plateau_status`).
"""

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import halfspace, spd

STEP_POLICIES = ("safe", "backtracking")

PLATEAU_WINDOW = 20
PLATEAU_RATE = 0.9
# the supremum of one datum's geodesic curvature, in the frame metric, of
# the SPD losses: |(I - P) W U|^2 <= |W|^2 / 2 for every rank-m projector P
CURVATURE_BOUND = 0.5
ILL_CONDITIONED_EIG = (1.0 - PLATEAU_RATE) * CURVATURE_BOUND

# the Newton line search: halve from 1 down to 2^-39, and accept a flat
# loss within this relative slack when the gradient norm shrinks by SHRINK
NEWTON_HALVINGS = 40
FLAT_SLACK = 1e-12
SHRINK = 0.999

COND_CAP = 1e14          # SPD boundary-divergence guard
SCALE_CAP = 1e10         # half-space guard: a outside [1/cap, cap] diverged


class FitStatus(Enum):
    CONVERGED = "converged"
    ILL_CONDITIONED = "ill_conditioned"
    DEGENERATE_DATA = "degenerate_data"
    MAX_ITERS_EXCEEDED = "max_iters_exceeded"


@dataclass
class DescentConfig:
    """Knobs for the geodesic descent.

    step_policy: "safe" takes the provably non-increasing gradient step
    of certified length.  "backtracking", the default, takes the damped
    Newton step of `newton_step`, whose line search halves from the full
    step.  The spline takes its Newton step under either policy.  Under
    every policy the loss trace is non-increasing up to roundoff.
    """

    step_policy: str = "backtracking"
    tol: float = 1e-9
    max_iters: int = 200

    def __post_init__(self):
        if self.step_policy not in STEP_POLICIES:
            raise ValueError(f"unknown step policy {self.step_policy!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class FitReport:
    """Descent trace: outcome, iteration count, per-iteration diagnostics.

    Under both step policies the loss trace is non-increasing up to
    floating-point roundoff of the loss evaluations.
    loss_evals counts the solver's loss evaluations, the start included;
    backtracks counts the trial points among them that were rejected.
    hessian_min_eig is the smallest eigenvalue of the Riemannian Hessian at
    the returned point, in an orthonormal frame; None where the engine has
    no Hessian verdict (the spline) or the fit ended degenerate.
    """

    status: FitStatus
    iterations: int
    loss_trace: list = field(default_factory=list)
    grad_norm_trace: list = field(default_factory=list)
    wall_time: float = 0.0
    loss_evals: int = 0
    hessian_min_eig: float = None

    @property
    def backtracks(self):
        return self.loss_evals - 1 - self.iterations

    @property
    def converged(self):
        return self.status is FitStatus.CONVERGED

    @property
    def final_grad_norm(self):
        return self.grad_norm_trace[-1] if self.grad_norm_trace else float("nan")


def plateau_status(grad_norms, window=PLATEAU_WINDOW, rate=PLATEAU_RATE):
    """Classify a timed-out descent from the tail of its gradient-norm trace."""
    w = min(window, len(grad_norms) - 1)
    if w < 1 or grad_norms[-1 - w] <= 0:
        return FitStatus.MAX_ITERS_EXCEEDED
    decay = (grad_norms[-1] / grad_norms[-1 - w]) ** (1.0 / w)
    if decay > rate:
        return FitStatus.ILL_CONDITIONED
    return FitStatus.MAX_ITERS_EXCEEDED


def as_columns(X):
    # (N, d) rows as a contiguous (d, N) array: at small d the oracles'
    # products and reductions over N run several times faster on columns
    return np.ascontiguousarray(X.T)


def shared_oracle(forms, value, *derived):
    """(loss_fn, *derived_fns) for a descent engine that share one O(N) pass.

    forms(x) computes the per-datum quantities at x, value(x, f) the loss
    and each of derived, say grad(x, f) and hess(x, f), a quantity from
    them.  The engines take the gradient and the Hessian at the point of
    their last loss evaluation, so the derived functions reuse the forms
    that loss_fn computed when handed that same object, and recompute them
    at any other point.  Only the forms of the last loss evaluation are
    kept, and they are dropped before the next are computed.
    """
    last = [None, None]

    def loss_fn(x):
        last[:] = None, None
        f = forms(x)
        last[:] = x, f
        return value(x, f)

    def reusing(fn):
        def derived_fn(x):
            at, f = last
            return fn(x, f if x is at else forms(x))
        return derived_fn

    return (loss_fn, *map(reusing, derived))


def minimize_on_spd(T0, loss_fn, grad_fn, hess_fn, config):
    """Geodesic descent for a loss on unit-determinant SPD matrices.

    The descent moves a frame R of T = R R^T, starting from the Cholesky
    factor of T0.  loss_fn(R) is the loss at T, grad_fn(R) the Riemannian
    gradient V seen from the frame, R^-1 V R^-T (see `spd.frame_gradient`),
    and hess_fn(R) the Riemannian Hessian as a d x d matrix in the basis
    `spd.frame_basis`, positive semidefinite for a geodesically convex
    loss.  The "backtracking" policy takes damped Newton steps
    (`newton_step`): it solves (H + g^2 I) d = W, g the gradient norm, and
    moves along -d with `spd.factor_step`.  The "safe" policy takes the
    gradient step of length 1 (the loss is assumed to have geodesic second
    derivative at most ||gamma'||^2).  Both refuse frames past COND_CAP.  A
    fit that converged or ran out of budget is ill-conditioned when the
    smallest eigenvalue of the Hessian at the returned point, kept in
    FitReport.hessian_min_eig, is below ILL_CONDITIONED_EIG.  Returns
    (T, FitReport).
    """
    def solve(R, W, g):
        d = _damped_solve(hess_fn(R), spd.frame_coords(W), g)
        return None if d is None else spd.from_frame_coords(d)
    # no guard in the loop: the capped retraction keeps R inside COND_CAP
    R, report = _minimize(np.linalg.cholesky(T0), loss_fn, grad_fn, hess_fn,
                          solve, _capped_factor_step, lambda R: False, 1.0,
                          ILL_CONDITIONED_EIG, config)
    return spd.unit_det(spd.sym(R @ R.T)), report


def _capped_factor_step(R, D, t):
    """`spd.factor_step` refusing a frame R1 past COND_CAP as out of range.

    The SPD guard, cond(R1 R1^T) = (s_max / s_min)^2: a Newton trial that
    overshoots toward an optimum just inside the cap is halved, and data
    with no MLE end degenerate when no trial inside the cap is left.
    """
    R1 = spd.factor_step(R, D, t)
    s = np.linalg.svd(R1, compute_uv=False)
    if not s[0] ** 2 <= COND_CAP * s[-1] ** 2:
        raise spd.NumericRangeError("trial frame past the condition cap")
    return R1


def minimize_on_halfspace(x0, loss_fn, grad_fn, hess_fn, curvature, config):
    """Geodesic descent for a loss on the hyperbolic half-space.

    Points are pairs x = (a, b) of a scale a and a center array b (n,).
    grad_fn(x) is the Riemannian gradient and hess_fn(x) the Riemannian
    Hessian, positive semidefinite for a geodesically convex loss, both in
    the orthonormal frame (a d/da, a d/db).  curvature bounds the loss's
    second derivative along unit-speed geodesics.  The "backtracking"
    policy takes damped Newton steps (`newton_step`): it solves
    (H + g^2 I) d = grad and moves along -d with `halfspace.exp_kernel`.
    The "safe" policy takes the gradient step of length 1 / curvature,
    which cannot raise the loss.  A fit that converged or ran out of budget
    is ill-conditioned when the smallest eigenvalue of the Hessian at the
    returned point, kept in FitReport.hessian_min_eig, is below
    (1 - PLATEAU_RATE) * curvature.  Scales leaving SCALE_CAP around the
    start's end the fit degenerate, so that the guard commutes with the
    similarities of H^(n+1) as the steps do.  Returns ((a, b), FitReport).
    """
    a0 = x0[0]
    return _minimize(x0, loss_fn, grad_fn, hess_fn,
                     lambda x, v, g: _damped_solve(hess_fn(x), v, g),
                     _frame_exp, lambda x: off_scale(x[0] / a0),
                     1.0 / curvature, (1.0 - PLATEAU_RATE) * curvature, config)


def _frame_exp(x, d, t):
    """`halfspace.exp_kernel` from x = (a, b) along frame coordinates d."""
    a, b = x
    at, bt = halfspace.exp_kernel(a, b, a * d[0], a * d[1:], t)
    return float(at), bt


def off_scale(a):
    """Half-space guard: some scale left (1/SCALE_CAP, SCALE_CAP)."""
    return not np.all((a > 1.0 / SCALE_CAP) & (a < SCALE_CAP))


def _minimize(x, loss_fn, grad_fn, hess_fn, solve, retract, diverged,
              safe_length, threshold, config):
    """The two engines: a step by policy, the loop, the Hessian verdict.

    Gradients are measured by their Frobenius norm, the Riemannian norm in
    an orthonormal frame.  The verdict of a fit that did not end degenerate
    is ILL_CONDITIONED when the smallest eigenvalue of hess_fn at the
    returned point is below threshold; the report's wall time includes it.
    """
    start = time.perf_counter()
    if config.step_policy == "safe":
        step = _safe_step(retract, safe_length)
    else:
        step = newton_step(solve, retract, lambda x: _frobenius(grad_fn(x)))
    x, report = _descend(x, loss_fn, grad_fn, lambda x, v: _frobenius(v),
                         diverged, step, config)
    if report.status is not FitStatus.DEGENERATE_DATA:
        lam = float(np.linalg.eigvalsh(hess_fn(x))[0])
        report.hessian_min_eig = lam
        if lam < threshold:
            report.status = FitStatus.ILL_CONDITIONED
    report.wall_time = time.perf_counter() - start
    return x, report


def _frobenius(W):
    return float(np.linalg.norm(W))


def _damped_solve(H, v, g):
    """Newton coordinates d with (H + g^2 I) d = v, or None when singular.

    Damping by the squared gradient norm keeps a flat valley solvable and
    fades faster than damping by g, which took 1.6-1.9x the iterations on
    the Monte Carlo batches and on c08.  The step is unchanged when the
    metric is scaled by a constant, as H and g^2 scale alike.
    """
    try:
        return np.linalg.solve(H + g * g * np.eye(len(H)), v)
    except np.linalg.LinAlgError:
        return None


def newton_step(solve, retract, grad_norm):
    """Damped Newton step of the spline and of both engines.

    solve(x, v, g) returns the damped Newton tangent for the gradient v of
    norm g, or None when it cannot; retract(x, d, t) moves x along d by t;
    grad_norm(x) is the gradient norm at a point just evaluated.  The step
    multiplier halves from 1 down to 2^-39.  A trial is accepted when it
    decreases the loss, or keeps it flat within roundoff slack while the
    gradient norm shrinks by SHRINK: valid progress for a geodesically
    convex loss whose certifiable decrease has dropped below float
    resolution.  Trials leaving the floating-point range are skipped.
    Returns (point, loss), or None when no trial is accepted.
    """
    def step(x, v, g, cur, loss_fn):
        direction = solve(x, v, g)
        if direction is None:
            return None
        slack = FLAT_SLACK * max(1.0, abs(cur))
        for s in 0.5 ** np.arange(NEWTON_HALVINGS):
            try:
                cand = retract(x, direction, -s)
                cand_loss = loss_fn(cand)
                if np.isfinite(cand_loss) and (
                        cand_loss < cur
                        or (cand_loss <= cur + slack
                            and grad_norm(cand) < SHRINK * g)):
                    return cand, cand_loss
            except spd.NumericRangeError:
                pass
        return None
    return step


def _safe_step(retract, length):
    """Gradient step of the certified length: one trial, accepted as it is.

    Returns None when the trial leaves the floating-point range.
    """
    def step(x, v, g, cur, loss_fn):
        try:
            cand = retract(x, v, -length)
            return cand, loss_fn(cand)
        except spd.NumericRangeError:
            return None
    return step


def _descend(x, loss_fn, grad_fn, norm, diverged, step, config,
             classify=None):
    """Descent loop of every solver: the stop rules and the FitReport.

    norm(x, v) measures the gradient v = grad_fn(x), diverged(x) is the
    boundary guard, and step(x, v, norm, loss, loss_fn) returns the next
    point and its loss, or None when it cannot move; it evaluates the loss
    through the loss_fn it is handed, which counts the evaluations.  A fit
    that cannot move ends DEGENERATE_DATA, and one that runs out of budget
    MAX_ITERS_EXCEEDED, unless classify(grad_norms) names the outcome of
    both.
    """
    start = time.perf_counter()
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return loss_fn(x)

    losses = [counted(x)]
    grads = []
    status = None
    iters = 0
    for _ in range(config.max_iters + 1):
        v = grad_fn(x)
        g = norm(x, v)
        grads.append(g)
        if g < config.tol:
            status = FitStatus.CONVERGED
            break
        if diverged(x):
            status = FitStatus.DEGENERATE_DATA
            break
        if iters == config.max_iters:
            status = (classify(grads) if classify
                      else FitStatus.MAX_ITERS_EXCEEDED)
            break
        moved = step(x, v, g, losses[-1], counted)
        if moved is None:
            status = classify(grads) if classify else FitStatus.DEGENERATE_DATA
            break
        x, loss = moved
        losses.append(loss)
        iters += 1
    report = FitReport(status, iters, losses, grads, time.perf_counter() - start,
                       loss_evals=evals)
    return x, report
