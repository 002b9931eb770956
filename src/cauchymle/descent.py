"""Geodesic gradient descent drivers shared by the family fitters.

Two engines live here, one for losses on the unit-determinant SPD manifold
and one for losses on the hyperbolic half-space; both, and the spline
solver, run one loop, each with its own step.  The SPD engine moves a
frame R of the point T = R R^T: its oracle returns the gradient seen from
R, a symmetric trace-free p x p matrix whose Frobenius norm is the
Riemannian norm, and a step is one symmetric eigendecomposition of it
(`spd.factor_step`), with no factorization of T.  The loop stops when the
gradient norm falls below the configured tolerance and otherwise
classifies the outcome: a gradient norm that is still decaying
geometrically slower than PLATEAU_RATE per iteration when the iteration
budget runs out marks the problem ill-conditioned (the argmin is nearly
degenerate along a geodesic and the estimate is statistically unstable);
anything else is a plain iteration-budget overrun.
"""

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import halfspace, spd

STEP_POLICIES = ("safe", "backtracking")

PLATEAU_WINDOW = 20
PLATEAU_RATE = 0.9

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

    step_policy: "safe" takes the provably non-increasing unit step;
    "backtracking" tries a larger family-specific step first and halves
    until the loss decreases, never going below the safe step.  Under
    either policy the loss trace is non-increasing up to roundoff.
    """

    step_policy: str = "backtracking"
    tol: float = 1e-9
    max_iters: int = 200
    standardize: bool = False

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
    """

    status: FitStatus
    iterations: int
    loss_trace: list = field(default_factory=list)
    grad_norm_trace: list = field(default_factory=list)
    wall_time: float = 0.0
    loss_evals: int = 0

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


def shared_oracle(forms, value, grad):
    """(loss_fn, grad_fn) for a descent engine that share one O(N) pass.

    forms(x) computes the per-datum quantities at x, value(x, f) the loss
    and grad(x, f) the gradient from them.  The engines take the gradient
    at the point of their last loss evaluation, so grad_fn reuses the forms
    that loss_fn computed when handed that same object, and recomputes them
    at any other point.
    """
    last = [None, None]

    def loss_fn(x):
        f = forms(x)
        last[:] = x, f
        return value(x, f)

    def grad_fn(x):
        at, f = last
        return grad(x, f if x is at else forms(x))

    return loss_fn, grad_fn


def minimize_on_spd(T0, loss_fn, grad_fn, first_step, config):
    """Geodesic gradient descent for a loss on unit-determinant SPD matrices.

    The descent moves a frame R of T = R R^T, starting from the Cholesky
    factor of T0.  loss_fn(R) is the loss at T and grad_fn(R) the
    Riemannian gradient V seen from the frame, R^-1 V R^-T (see
    `spd.frame_gradient`).  The safe step is 1 (the loss is assumed to
    have geodesic second derivative at most ||gamma'||^2); backtracking
    starts from first_step and halves down to the safe step.  Returns
    (T, FitReport).
    """
    first = first_step if config.step_policy == "backtracking" else 1.0
    R, report = _descend(np.linalg.cholesky(T0), loss_fn, grad_fn,
                         lambda R, W: float(np.linalg.norm(W)), _past_cap,
                         _backtracking(spd.factor_step, first, 1.0), config)
    return spd.unit_det(spd.sym(R @ R.T)), report


def _past_cap(R):
    """SPD guard: cond(R R^T) = (s_max / s_min)^2 of R passed COND_CAP."""
    s = np.linalg.svd(R, compute_uv=False)
    return not s[0] ** 2 <= COND_CAP * s[-1] ** 2


def minimize_on_halfspace(z0, loss_fn, grad_fn, safe_step, config):
    """Gradient descent for a loss on the hyperbolic half-space.

    safe_step must make a full step provably non-increasing (second
    derivative of the loss along unit-speed geodesics at most
    1/safe_step).  Backtracking starts from twice the safe step and halves
    down to it.  Returns (HPoint, FitReport).
    """
    first = 2.0 * safe_step if config.step_policy == "backtracking" else safe_step
    return _descend(z0, loss_fn, grad_fn, lambda z, v: v.norm(),
                    lambda z: off_scale(z.a),
                    _backtracking(halfspace.exp_map, first, safe_step), config)


def off_scale(a):
    """Half-space guard: some scale left (1/SCALE_CAP, SCALE_CAP)."""
    return not np.all((a > 1.0 / SCALE_CAP) & (a < SCALE_CAP))


def _backtracking(retract, first, floor):
    """Family step: halve from first until the loss falls; accept the floor step."""
    def step(x, v, g, cur, loss_fn):
        s = first
        while True:
            try:
                cand = retract(x, v, -s)
                cand_loss = loss_fn(cand)
                if s <= floor or (np.isfinite(cand_loss) and cand_loss < cur):
                    return cand, cand_loss
            except spd.NumericRangeError:
                if s <= floor:
                    return None
            s = max(0.5 * s, floor)
    return step


def _descend(x, loss_fn, grad_fn, norm, diverged, step, config, stuck=None):
    """Descent loop of every solver: the stop rules and the FitReport.

    norm(x, v) measures the gradient v = grad_fn(x), diverged(x) is the
    boundary guard, and step(x, v, norm, loss, loss_fn) returns the next
    point and its loss, or None when it cannot move; it evaluates the loss
    through the loss_fn it is handed, which counts the evaluations.
    stuck(grad_norms) then names the outcome; by default the data are
    degenerate.
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
            status = plateau_status(grads)
            break
        moved = step(x, v, g, losses[-1], counted)
        if moved is None:
            status = stuck(grads) if stuck else FitStatus.DEGENERATE_DATA
            break
        x, loss = moved
        losses.append(loss)
        iters += 1
    report = FitReport(status, iters, losses, grads, time.perf_counter() - start,
                       loss_evals=evals)
    return x, report
