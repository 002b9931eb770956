"""Geodesic descent engines shared by the family fitters.

Two engines live here, one for losses on the unit-determinant SPD manifold
and one for losses on the hyperbolic half-space; both, and the spline
solver, run one loop, `_descend`, each with its own step.  The loop runs a
batch of fits in lockstep: the members' points are one float array with a
leading member axis, their gradients and directions arrays of the same
shape, and each member keeps its own traces, counts, status and
line-search multiplier, so that it takes the steps of its fit alone.
Each engine fits a stack of datasets at once (`minimize_on_spd`,
`minimize_on_halfspace_batch`), and returns its members' reports as one
BatchReport; a single fit, of either engine or of the spline, is the
batch of one.  Under the default policy
the three take the same damped Newton step (`newton_step`); the `safe`
policy takes one gradient step of a certified length.  Each oracle gives
the gradient and the Riemannian Hessian in an orthonormal frame, from the
one pass over the data that gave the loss at the point.  The SPD
engine moves a frame R of the point T = R R^T: its gradient is seen from
R, a symmetric trace-free p x p matrix whose Frobenius norm is the
Riemannian norm, and its Hessian is in an orthonormal basis of such
matrices (`spd.frame_basis`); a step is one stacked symmetric
eigendecomposition (`spd.factor_step_masked`), with no factorization of
T.  The half-space engine
moves a point x = (a, b) of H^(n+1), held as one array (n + 1,) with the
scale a in x[0] and the center b in x[1:], in the frame (a d/da, a d/db),
along `halfspace.exp_kernel`.

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
    wall_time is the time of the descent that made the fit: for a member
    of a batch fit in lockstep, that of the whole batch, the same for
    every member.
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


class BatchReport(list):
    """The FitReports of a batch fit in lockstep, one per member in order,
    and the batch's totals: iterations, loss_evals and backtracks summed
    over its members."""

    @property
    def iterations(self):
        return sum(r.iterations for r in self)

    @property
    def loss_evals(self):
        return sum(r.loss_evals for r in self)

    @property
    def backtracks(self):
        return sum(r.backtracks for r in self)


def plateau_status(grad_norms, window=PLATEAU_WINDOW, rate=PLATEAU_RATE):
    """Classify a timed-out descent from the tail of its gradient-norm trace."""
    w = min(window, len(grad_norms) - 1)
    if w < 1 or grad_norms[-1 - w] <= 0:
        return FitStatus.MAX_ITERS_EXCEEDED
    decay = (grad_norms[-1] / grad_norms[-1 - w]) ** (1.0 / w)
    if decay > rate:
        return FitStatus.ILL_CONDITIONED
    return FitStatus.MAX_ITERS_EXCEEDED


def minimize_on_spd(T0, loss_fn, grad_fn, hess_fn, config):
    """Geodesic descent for a batch of losses on unit-determinant SPD matrices.

    Member i starts at T0[i] (p, p), and the descent moves a frame R of
    its point T = R R^T, from the Cholesky factor of T0[i].
    loss_fn(x, members), grad_fn(x, members) and hess_fn(x, members) take
    the frames x (k, p, p) of the members with the sorted indices members
    (k,), and give each one's loss, its Riemannian gradient V seen from
    the frame, the trace-free R^-1 V R^-T (k, p, p), and its Riemannian
    Hessian (k, d, d) in the basis `spd.frame_basis`, positive
    semidefinite for a geodesically convex loss.  The loop asks for the
    gradient and the Hessian only at a member's last loss evaluation.  The
    "backtracking" policy takes damped Newton steps (`newton_step`): it
    solves (H + g^2 I) d = W, g the gradient norm, all members in one
    stacked solve, and moves along -d with `spd.factor_step_masked`.  The
    "safe" policy takes the gradient step of length 1 (the loss is assumed
    to have geodesic second derivative at most ||gamma'||^2).  Both refuse
    frames past COND_CAP.  A fit that converged or ran out of budget is
    ill-conditioned when the smallest eigenvalue of the Hessian at the
    returned point, kept in FitReport.hessian_min_eig, is below
    ILL_CONDITIONED_EIG.  Returns the points T (B, p, p) and a
    BatchReport; a single fit is the batch of one.
    """
    def solve(x, members, W, g):
        d, ok = _damped_solve(hess_fn(x, members), spd.frame_coords(W), g)
        return spd.from_frame_coords(d), ok

    # no guard in the loop: the capped retraction keeps R inside COND_CAP
    R, reports = _minimize(np.linalg.cholesky(np.asarray(T0, dtype=float)),
                           loss_fn, grad_fn, hess_fn, solve,
                           _capped_factor_step,
                           lambda x, members: np.zeros(len(members), dtype=bool),
                           1.0, ILL_CONDITIONED_EIG, config)
    return np.stack([spd.unit_det(spd.sym(Ri @ Ri.T)) for Ri in R]), reports


def _capped_factor_step(x, D, t):
    """`spd.factor_step_masked` of frames x (k, p, p), frames R1 past
    COND_CAP out of range too.

    The SPD guard, cond(R1 R1^T) = (s_max / s_min)^2, from one stacked
    singular-value call: a Newton trial that overshoots toward an optimum
    just inside the cap is halved, and data with no MLE end degenerate
    when no trial inside the cap is left.
    """
    R1, out = spd.factor_step_masked(x, D, t)
    s = np.linalg.svd(R1[~out], compute_uv=False)
    out[~out] = ~(s[:, 0] ** 2 <= COND_CAP * s[:, -1] ** 2)
    return R1, out


def minimize_on_halfspace(x0, loss_fn, grad_fn, hess_fn, curvature, config):
    """`minimize_on_halfspace_batch` of one fit: the batch of one.

    x0 (n + 1,) is a scale and a center; the functions are those of the
    batch.  Returns (x (n + 1,), FitReport).
    """
    x, (report,) = minimize_on_halfspace_batch(
        np.asarray(x0, dtype=float)[None], loss_fn, grad_fn, hess_fn,
        curvature, config)
    return x[0], report


def minimize_on_halfspace_batch(x0, loss_fn, grad_fn, hess_fn, curvature,
                                config):
    """Geodesic descent for a batch of losses on the hyperbolic half-space.

    Member i starts at x0[i] (n + 1,), the scale x0[i, 0] and the center
    x0[i, 1:].  loss_fn(x, members), grad_fn(x, members) and
    hess_fn(x, members) take the points x (k, n + 1) of the members with
    the sorted indices members (k,), and give each one's loss, Riemannian
    gradient (k, n + 1) and Riemannian Hessian (k, n + 1, n + 1), positive
    semidefinite for a geodesically convex loss, both in the orthonormal
    frame (a d/da, a d/db).  The loop asks for the gradient and the Hessian
    only at a member's last loss evaluation.  curvature bounds each loss's
    second derivative along unit-speed geodesics.  The "backtracking"
    policy takes damped Newton steps (`newton_step`): it solves
    (H + g^2 I) d = grad, all members in one stacked solve, and moves along
    -d with `halfspace.exp_kernel_masked`.  The "safe" policy takes the
    gradient step of length 1 / curvature, which cannot raise the loss.  A
    fit that converged or ran out of budget is ill-conditioned when the
    smallest eigenvalue of the Hessian at the returned point, kept in
    FitReport.hessian_min_eig, is below (1 - PLATEAU_RATE) * curvature.
    Scales leaving SCALE_CAP around the member's start end its fit
    degenerate, so that the guard commutes with the similarities of
    H^(n+1) as the steps do.  Returns (x (B, n + 1), BatchReport).
    """
    a0 = np.array(x0, dtype=float)[:, 0]

    def solve(x, members, v, g):
        return _damped_solve(hess_fn(x, members), v, g)

    def diverged(x, members):
        return off_scale(x[:, 0] / a0[members])

    return _minimize(x0, loss_fn, grad_fn, hess_fn, solve, _frame_exp,
                     diverged, 1.0 / curvature,
                     (1.0 - PLATEAU_RATE) * curvature, config)


def _frame_exp(x, d, t):
    """`halfspace.exp_kernel_masked` from points x (k, n + 1) along frame
    coordinates d (k, n + 1)."""
    a = x[:, 0]
    at, bt, out = halfspace.exp_kernel_masked(a, x[:, 1:], a * d[:, 0],
                                              a[:, None] * d[:, 1:], t)
    return np.column_stack([at, bt]), out


def off_scale(a):
    """Half-space guard, elementwise: a scale left (1/SCALE_CAP, SCALE_CAP)."""
    return ~((a > 1.0 / SCALE_CAP) & (a < SCALE_CAP))


def _minimize(x, loss_fn, grad_fn, hess_fn, solve, retract, diverged,
              safe_length, threshold, config):
    """The two engines: a step by policy, the loop, the Hessian verdict.

    Gradients are measured by their Frobenius norm, the Riemannian norm in
    an orthonormal frame.  The verdict of a fit that did not end degenerate
    is ILL_CONDITIONED when the smallest eigenvalue of hess_fn at the
    returned point is below threshold, one stacked eigvalsh for the batch.
    The wall time of every report is the batch's, the verdict included.
    """
    start = time.perf_counter()
    if config.step_policy == "safe":
        step = _safe_step(safe_length)
    else:
        step = newton_step(solve, lambda x, members:
                           _frame_norm(x, grad_fn(x, members)))
    x, reports = _descend(x, loss_fn, grad_fn, _frame_norm, diverged,
                          retract, step, config)
    live = np.array([i for i, r in enumerate(reports)
                     if r.status is not FitStatus.DEGENERATE_DATA], dtype=int)
    if live.size:
        lams = np.linalg.eigvalsh(hess_fn(x[live], live))[:, 0]
        for i, lam in zip(live.tolist(), lams.tolist()):
            reports[i].hessian_min_eig = lam
            if lam < threshold:
                reports[i].status = FitStatus.ILL_CONDITIONED
    wall = time.perf_counter() - start
    for report in reports:
        report.wall_time = wall
    return x, BatchReport(reports)


def _frame_norm(x, v):
    """Frobenius norms of the members' gradients v (k, ...)."""
    v = v.reshape(len(v), -1)
    return np.sqrt(np.einsum("ki,ki->k", v, v))


def _damped_solve(H, v, g):
    """Newton coordinates d (k, dim) with (H + g^2 I) d = v, and which solved.

    Damping by the squared gradient norm keeps a flat valley solvable and
    fades faster than damping by g, which took 1.6-1.9x the iterations on
    the Monte Carlo batches and on c08.  The step is unchanged when the
    metric is scaled by a constant, as H and g^2 scale alike.  The k systems
    are one stacked solve; should one be singular, each is solved alone.
    """
    A = H + (g * g)[:, None, None] * np.eye(H.shape[-1])
    ok = np.ones(len(A), dtype=bool)
    try:
        return np.linalg.solve(A, v[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        d = np.zeros_like(v)
        for i in range(len(A)):
            try:
                d[i] = np.linalg.solve(A[i], v[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return d, ok


def newton_step(solve, grad_norm):
    """Damped Newton step of the spline and of both engines.

    A step policy of the loop is a tuple (direction, first, trials,
    accept): direction(x, members, v, g) gives the members' directions
    from their gradients v of norms g, and a mask of those it could give;
    a trial moves a member along -direction by its own multiplier, at first
    and halved after each refused trial, for at most trials trials; and
    accept(x, members, loss, cur, g) says which trial points x of loss loss
    are taken from points of loss cur and gradient norm g.

    Here the direction is solve(x, members, v, g), the damped Newton
    tangent, and grad_norm(x, members) is the gradient norm at points just
    evaluated.  The multiplier halves from 1 down to 2^-39.  A trial is
    accepted when it decreases the loss, or keeps it flat within roundoff
    slack while the gradient norm shrinks by SHRINK: valid progress for a
    geodesically convex loss whose certifiable decrease has dropped below
    float resolution.  Trials leaving the floating-point range are skipped.
    """
    def accept(x, members, loss, cur, g):
        finite = np.isfinite(loss)
        take = finite & (loss < cur)
        flat = finite & ~take & (
            loss <= cur + FLAT_SLACK * np.maximum(1.0, np.abs(cur)))
        if flat.any():
            take[flat] = (grad_norm(x[flat], members[flat])
                          < SHRINK * g[flat])
        return take

    return solve, 1.0, NEWTON_HALVINGS, accept


def _safe_step(length):
    """Gradient step of the certified length: one trial, accepted as it is."""
    def everyone(x, members, *args):
        return np.ones(len(members), dtype=bool)

    def direction(x, members, v, g):
        return v, everyone(x, members)

    return direction, length, 1, everyone


def _descend(x, loss_fn, grad_fn, norm, diverged, retract, step, config,
             classify=None):
    """Descent loop of every solver: a batch of members, in lockstep.

    x (B, ...) holds the members' start points, one float array with a
    leading member axis; a single fit is a batch of one.  Gradients and
    directions have the shape of the points.  loss_fn, grad_fn and
    diverged take the points x of the members with the sorted indices
    members, as f(x, members); norm(x, v) measures their gradients v;
    retract(x, d, t) moves points x along directions d for times t (k,)
    and gives the new points and a mask of those out of range; step is
    the policy (see `newton_step`).  Each pass of the loop makes one trial
    for every member still descending: a member whose trial is taken
    starts its next iteration at once, and one whose trial is refused
    halves its own multiplier.  So each member takes the steps, and makes
    the loss evaluations, of its fit alone.  A member that cannot move
    ends DEGENERATE_DATA, and one that runs out of budget
    MAX_ITERS_EXCEEDED, unless classify(grad_norms) names the outcome of
    both.  Returns the points and one FitReport per member.
    """
    directions, first, trials, accept = step
    x = np.array(x, dtype=float)
    size = len(x)
    everyone = np.arange(size)
    cur = np.asarray(loss_fn(x, everyone), dtype=float)
    losses = [[c] for c in cur.tolist()]
    grads = [[] for _ in everyone]
    status = [None] * size
    evals, iters, tries = (np.zeros(size, dtype=int) for _ in range(3))
    evals += 1
    g, mult, d = np.empty(size), np.empty(size), np.empty_like(x)

    def stop(members, rule, classified=False):
        for i in members.tolist():
            status[i] = classify(grads[i]) if classified and classify else rule

    def arrive(members):
        """Start an iteration of each member; returns those that move."""
        if not members.size:
            return members
        xm = x[members]
        v = grad_fn(xm, members)
        g[members] = gm = norm(xm, v)
        for i, gi in zip(members.tolist(), gm.tolist()):
            grads[i].append(gi)
        done = gm < config.tol
        out = ~done & diverged(xm, members)
        spent = ~done & ~out & (iters[members] == config.max_iters)
        stop(members[done], FitStatus.CONVERGED)
        stop(members[out], FitStatus.DEGENERATE_DATA)
        stop(members[spent], FitStatus.MAX_ITERS_EXCEEDED, classified=True)
        going = ~(done | out | spent)
        if not going.any():
            return members[going]
        dm, ok = directions(xm[going], members[going], v[going], gm[going])
        stop(members[going][~ok], FitStatus.DEGENERATE_DATA, classified=True)
        moving = members[going][ok]
        d[moving] = dm[ok]
        mult[moving], tries[moving] = first, 0
        return moving

    active = arrive(everyone)
    while active.size:
        cand, out = retract(x[active], d[active], -mult[active])
        taken = np.zeros(len(active), dtype=bool)
        tried = active[~out]
        if tried.size:
            cand = cand[~out]
            loss = np.asarray(loss_fn(cand, tried), dtype=float)
            evals[tried] += 1
            taken[~out] = took = accept(cand, tried, loss, cur[tried], g[tried])
            moved = tried[took]
            x[moved] = cand[took]
            cur[moved] = loss[took]
            iters[moved] += 1
            for i, c in zip(moved.tolist(), loss[took].tolist()):
                losses[i].append(c)
        moved, refused = active[taken], active[~taken]
        mult[refused] *= 0.5
        tries[refused] += 1
        spent = tries[refused] == trials
        stop(refused[spent], FitStatus.DEGENERATE_DATA, classified=True)
        active = np.sort(np.concatenate([refused[~spent], arrive(moved)]))
    return x, [FitReport(status[i], int(iters[i]), losses[i], grads[i],
                         loss_evals=int(evals[i])) for i in everyone]
