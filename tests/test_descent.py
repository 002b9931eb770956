"""The SPD descent engine on a frame R of T = R R^T, and the solver counts."""

import numpy as np
import pytest

from cauchymle import cauchy, matrix_cauchy as mc, spd, spline
from cauchymle.datasets import GeneratorSpec, generate
from cauchymle.descent import (COND_CAP, NEWTON_HALVINGS, STEP_POLICIES,
                               DescentConfig, FitStatus, minimize_on_spd)
from cauchymle.gradcheck import random_spd_point

from test_matrix import one_frame


def random_frame(T, rng):
    """A frame of T that is not its Cholesky factor: L times a rotation."""
    O, _ = np.linalg.qr(rng.standard_normal(T.shape))
    return np.linalg.cholesky(T) @ O


@pytest.mark.parametrize("m, n", [(1, 2), (1, 4), (2, 2), (2, 3)])
def test_frame_gradient_norm_is_the_riemannian_norm(rng, m, n):
    F = mc.lift(rng.standard_normal((300, n, m)) * 2.0 + 0.5)
    _, grad_fn, _ = one_frame(F.transpose(2, 1, 0))
    for _ in range(20):
        R = random_frame(random_spd_point(m + n, rng), rng)
        T = R @ R.T
        W = grad_fn(R)
        assert np.array_equal(W, W.T)
        assert abs(np.trace(W)) < 1e-14 * np.linalg.norm(W)
        assert np.linalg.norm(W) == pytest.approx(
            spd.norm(T, mc.grad(T, F)), rel=1e-12)


@pytest.mark.parametrize("size", [1e3, 1e4])
def test_overflowing_floor_step_ends_degenerate(size):
    # a gradient so large that the safe step overflows the exponential of
    # T = R R^T; at 1e3 that of R alone would not overflow.  The Newton
    # step, damped by the squared gradient norm, is short and does not
    # overflow, but no trial lowers the flat loss or shrinks the gradient.
    # Either way the fit ends degenerate where it started.  The fit is a
    # batch of one: the functions take the frames x (1, 2, 2) of members [0]
    def loss_fn(x, members):
        return np.zeros(1)

    def grad_fn(x, members):
        return np.diag([size, -size])[None]

    def hess_fn(x, members):
        return np.zeros((1, 2, 2))

    for policy, evals in (("safe", 1), ("backtracking", 1 + NEWTON_HALVINGS)):
        T, (report,) = minimize_on_spd(np.eye(2)[None], loss_fn, grad_fn,
                                       hess_fn, DescentConfig(step_policy=policy))
        assert report.status is FitStatus.DEGENERATE_DATA
        assert report.iterations == 0 and report.loss_evals == evals
        assert np.array_equal(T[0], np.eye(2))


def test_newton_trials_out_of_range_are_skipped():
    # a Hessian that cancels the damping makes the Newton direction 2^20 W,
    # whose first trials overflow the exponential of T or pass COND_CAP:
    # they are skipped without a loss evaluation, and the in-range trials
    # that follow neither lower the flat loss nor shrink the gradient
    W = np.diag([1.0, -1.0])
    g2 = np.sum(W * W)
    direction = 2.0 ** 20 * W
    with pytest.raises(spd.NumericRangeError):
        spd.factor_step(np.eye(2), direction, -1.0)
    trials = []

    def loss_fn(x, members):
        trials.append(x[0])
        return np.zeros(1)

    T, (report,) = minimize_on_spd(
        np.eye(2)[None], loss_fn, lambda x, members: W[None],
        lambda x, members: (2.0 ** -20 - g2) * np.eye(2)[None],
        DescentConfig())
    skipped = sum(2.0 ** 21 * s > np.log(COND_CAP)
                  for s in 0.5 ** np.arange(NEWTON_HALVINGS))
    assert report.status is FitStatus.DEGENERATE_DATA
    assert report.iterations == 0
    assert report.loss_evals == 1 + NEWTON_HALVINGS - skipped
    assert 0 < skipped < NEWTON_HALVINGS
    assert all(np.linalg.cond(R @ R.T) <= COND_CAP for R in trials)
    assert np.array_equal(T[0], np.eye(2))


def test_safe_step_past_the_cap_ends_degenerate_inside_it():
    # the safe step retracts through the capped step of the Newton trials:
    # each step multiplies cond(T) by e, so the 32 steps up to
    # e^32 = 7.9e13 are taken and the 33rd, past COND_CAP, ends the fit
    # degenerate at the last frame inside the cap, with no loss evaluation
    W = np.diag([-0.5, 0.5])
    T, (report,) = minimize_on_spd(
        np.eye(2)[None],
        lambda x, members: -np.log(abs(x[:, 0, 0] / x[:, 1, 1])),
        lambda x, members: W[None], lambda x, members: np.zeros((1, 2, 2)),
        DescentConfig(step_policy="safe"))
    steps = int(np.log(COND_CAP))
    assert report.status is FitStatus.DEGENERATE_DATA
    assert report.iterations == steps and report.loss_evals == 1 + steps
    assert np.linalg.cond(T[0]) == pytest.approx(np.exp(steps), rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_fit_with_a_zero_coordinate_row_is_degenerate(rng, n):
    # no MLE: the zero row's scale runs to the boundary of the manifold
    X = rng.standard_normal((200, n, 2))
    X[:, 0, :] = 0.0
    _, report = mc.fit(mc.lift(X), 2, n)
    assert report.status is FitStatus.DEGENERATE_DATA


def test_spd_fits_use_no_factorization_per_iteration(rng, monkeypatch):
    # the engine needs no tangent-space API of spd, and factors T only
    # once, at the start
    def refuse(*args, **kwargs):
        raise AssertionError("called during an SPD fit")

    for name in ("geodesic", "norm", "project_tangent", "condition_number"):
        monkeypatch.setattr(spd, name, refuse)
    factorizations = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda T: factorizations.append(1) or cholesky(T))
    X = cauchy.lift(rng.standard_normal((300, 3)) @ rng.standard_normal((3, 3)))
    F = mc.lift(rng.standard_normal((300, 2, 2)))
    for policy in STEP_POLICIES:
        config = DescentConfig(step_policy=policy)
        T, report = cauchy.fit(X, config)
        assert report.status is FitStatus.CONVERGED and report.iterations > 2
        _, report = mc.fit(F, 2, 2, config)
        assert report.status is FitStatus.CONVERGED and report.iterations > 2
    assert len(factorizations) == 2 * len(STEP_POLICIES)


def test_reports_count_loss_evaluations_of_every_solver(rng):
    X = cauchy.lift(rng.standard_normal((200, 2)))
    _, spd_report = cauchy.fit(X)
    _, hs_report = cauchy.fit_univariate(rng.standard_cauchy(200))
    times = [0.0, 1.0, 2.0]
    values = [list(rng.standard_cauchy(5)) for _ in times]
    sp_report = spline.fit(spline.SplineProblem(times, values, 1.0)).report
    for report in (spd_report, hs_report, sp_report):
        assert report.status is FitStatus.CONVERGED
        assert report.backtracks >= 0
        assert report.loss_evals == 1 + report.iterations + report.backtracks
        assert len(report.loss_trace) == 1 + report.iterations


def test_reports_of_data_refused_before_descent_count_the_start():
    # an atom holding every datum fails the general-position check
    X = cauchy.lift(np.ones((20, 2)))
    data = np.ones(20)
    for _, report in (cauchy.fit(X), cauchy.fit_univariate(data)):
        assert report.status is FitStatus.DEGENERATE_DATA
        assert report.loss_evals == 1 and report.backtracks == 0
        assert len(report.loss_trace) == 1


def test_spd_verdict_does_not_depend_on_the_budget(rng):
    # the verdict is read from the Hessian at the returned point, so a fit
    # that reached the tolerance ends the same at any budget: a gaussian
    # sample, a c07 contamination run, a 2 x 2 matrix sample, and a
    # balanced bimodal c09 run that is flagged ill-conditioned
    c07 = GeneratorSpec(kind="mixture", sample_size=1000, seed=707,
                        weights=(0.9, 0.1),
                        components=((0.0, 1.0), (100.0, 100.0)))
    c09 = GeneratorSpec(kind="mixture", sample_size=1000, seed=909,
                        weights=(0.5, 0.5),
                        components=((0.0, 10.0), (300.0, 1.0)))
    fits = [lambda cfg, X=X: cauchy.fit(cauchy.lift(X), cfg) for X in
            (rng.standard_normal((300, 3)), generate(c07), generate(c09))]
    F = mc.lift(rng.standard_normal((300, 2, 2)))
    fits.append(lambda cfg: mc.fit(F, 2, 2, cfg))
    statuses = []
    for fit in fits:
        (T, short), (T_long, long) = (fit(DescentConfig(max_iters=k))
                                      for k in (200, 2000))
        assert short.final_grad_norm < DescentConfig().tol
        assert long.status is short.status
        assert long.iterations == short.iterations
        assert long.hessian_min_eig == short.hessian_min_eig
        assert np.array_equal(T, T_long)
        statuses.append(short.status)
    ok, ill = FitStatus.CONVERGED, FitStatus.ILL_CONDITIONED
    assert statuses == [ok, ok, ill, ok]


def test_offset_data_with_an_optimum_near_the_cap_converge():
    # at an offset of 1e3 against a spread of about 1, the MLE lies at
    # cond(T) = 8.2e13, just inside COND_CAP: Newton trials that overshoot
    # the cap are halved, not accepted, so the fit converges there
    rng = np.random.default_rng(20240817)
    A = rng.standard_normal((400, 4)) @ rng.standard_normal((4, 4))
    T, report = cauchy.fit(cauchy.lift(A + 1e3))
    assert report.status is FitStatus.CONVERGED
    assert 1e13 < np.linalg.cond(T) < COND_CAP


def test_offset_data_are_fit_in_their_own_frame():
    # far from the origin against their spread, the lifted data are nearly
    # one projective point and the MLE lies past COND_CAP in the raw frame;
    # the fit runs in the data's median/MAD frame, so it converges, with
    # the Hessian of the raw fit at the offset of 1e3 (affine equivariance)
    rng = np.random.default_rng(20240817)
    A = rng.standard_normal((400, 4)) @ rng.standard_normal((4, 4))
    _, near = cauchy.fit(cauchy.lift(A + 1e3))
    assert near.hessian_min_eig == pytest.approx(0.1217646631, rel=1e-8)
    for offset in (2e3, 1e5):
        _, report = cauchy.fit(cauchy.lift(A + offset))
        assert report.status is FitStatus.CONVERGED
        assert report.hessian_min_eig == pytest.approx(near.hessian_min_eig,
                                                       rel=1e-9)
    x = 1e5 + np.random.default_rng(47).standard_normal((20000, 3))
    _, report = cauchy.fit(cauchy.lift(x))
    assert report.status is FitStatus.CONVERGED


def test_data_mostly_on_a_line_end_degenerate():
    # n = 2 with 70% of the points on the line y = 2: the lifted line is a
    # 2-dimensional subspace holding more than 2/3 of the data, so no MLE
    # exists.  The Newton path runs to the boundary within the default
    # budget; at 50% the MLE exists and the fit converges
    X = np.random.default_rng(7).standard_normal((1000, 2))
    for frac, want in [(0.7, FitStatus.DEGENERATE_DATA),
                       (0.5, FitStatus.CONVERGED)]:
        Y = X.copy()
        Y[:int(1000 * frac), 1] = 2.0
        _, report = cauchy.fit(cauchy.lift(Y))
        assert report.status is want
        assert report.iterations < 50
