"""The SPD descent engine on a frame R of T = R R^T, and the solver counts."""

import numpy as np
import pytest

from cauchymle import cauchy, matrix_cauchy as mc, spd, spline
from cauchymle.descent import DescentConfig, FitStatus, minimize_on_spd
from cauchymle.gradcheck import random_spd_point


def random_frame(T, rng):
    """A frame of T that is not its Cholesky factor: L times a rotation."""
    O, _ = np.linalg.qr(rng.standard_normal(T.shape))
    return np.linalg.cholesky(T) @ O


@pytest.mark.parametrize("m, n", [(1, 2), (1, 4), (2, 2), (2, 3)])
def test_frame_gradient_norm_is_the_riemannian_norm(rng, m, n):
    F = mc.lift(rng.standard_normal((300, n, m)) * 2.0 + 0.5)
    _, grad_fn = mc._oracle(F)
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
    # a gradient so large that even the floor step overflows the exponential
    # of T = R R^T; at 1e3 that of R alone would not overflow
    def loss_fn(R):
        return 0.0

    def grad_fn(R):
        return np.diag([size, -size])

    for policy in ("safe", "backtracking"):
        T, report = minimize_on_spd(np.eye(2), loss_fn, grad_fn, 1.5,
                                    DescentConfig(step_policy=policy))
        assert report.status is FitStatus.DEGENERATE_DATA
        assert report.iterations == 0 and report.loss_evals == 1
        assert np.array_equal(T, np.eye(2))


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
    T, report = cauchy.fit(X)
    assert report.status is FitStatus.CONVERGED and report.iterations > 5
    F = mc.lift(rng.standard_normal((300, 2, 2)))
    _, report = mc.fit(F, 2, 2)
    assert report.status is FitStatus.CONVERGED and report.iterations > 5
    assert len(factorizations) == 2


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
