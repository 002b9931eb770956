import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cauchymle import cauchy, halfspace, matrix_cauchy as mc, spd
from cauchymle.datasets import GeneratorSpec, generate
from cauchymle.descent import DescentConfig, FitStatus
from cauchymle.gradcheck import check_gradients, random_spd_point, random_tangent


# The paper's closed forms through the Gram matrices G = Xt^T T Xt, a
# reference independent of the Gram-Schmidt oracle that the public
# functions and the fits run
def gram_loss(T, F):
    """(1/N) sum log det(Xt^T T Xt) over the frames F (N, p, m)."""
    return float(np.mean(np.linalg.slogdet(np.swapaxes(F, 1, 2) @ T @ F)[1]))


def gram_grad(T, F):
    """T M T - (m/p) T, with M = mean Xt G^-1 Xt^T over the frames F."""
    _, p, m = F.shape
    Ft = np.swapaxes(F, 1, 2)
    M = np.mean(F @ np.linalg.inv(Ft @ T @ F) @ Ft, axis=0)
    return spd.sym(T @ M @ T - (m / p) * T)


def test_lift_appends_identity():
    X = np.arange(6.0).reshape(1, 2, 3)
    F = mc.lift(X)
    assert F.shape == (1, 5, 3)
    assert np.array_equal(F[0, :2], X[0])
    assert np.array_equal(F[0, 2:], np.eye(3))


def test_loss_reduces_to_vector_family_at_m1(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        T = random_spd_point(n + 1, rng)
        data = rng.standard_normal((6, n, 1))
        F = mc.lift(data)
        X = cauchy.lift(data[:, :, 0])
        # at m = 1 the closed forms are those of the vector family
        assert mc.loss(T, F) == pytest.approx(gram_loss(T, X[:, :, None]),
                                              rel=1e-12)
        assert cauchy.loss(T, X) == pytest.approx(gram_loss(T, F), rel=1e-12)
        assert np.allclose(mc.grad(T, F), gram_grad(T, X[:, :, None]),
                           atol=1e-13)
        assert np.allclose(cauchy.loss_grad(T, X), gram_grad(T, F), atol=1e-13)


def test_loss_zero_observation():
    F = mc.lift(np.zeros((1, 2, 2)))
    assert mc.loss(np.eye(4), F) == pytest.approx(0.0)


@pytest.mark.parametrize("m", [1, 2])
def test_zero_frame_column_is_refused(rng, m):
    # a zero column is a zero lifted vector: its log det is -inf at every T
    n = 2
    F = mc.lift(rng.standard_normal((30, n, m)))
    F[7, :, m - 1] = 0.0
    T = np.eye(n + m)
    for call in (lambda: mc.fit(F, m, n), lambda: mc.loss(T, F),
                 lambda: mc.grad(T, F)):
        with pytest.raises(ValueError, match="zero frame column"):
            call()


def test_loss_matches_cholesky_oracle(rng):
    # independent evaluation path: log det via Cholesky per datum
    for _ in range(50):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        T = random_spd_point(m + n, rng)
        F = mc.lift(rng.standard_normal((4, n, m)))
        direct = 0.0
        for frame in F:
            G = frame.T @ T @ frame
            L = np.linalg.cholesky(G)
            direct += 2.0 * float(np.sum(np.log(np.diag(L))))
        assert mc.loss(T, F) == pytest.approx(direct / len(F), abs=1e-12)


def test_per_datum_grad_norm(rng):
    for _ in range(1000):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        T = random_spd_point(m + n, rng)
        frame = mc.lift(rng.standard_normal((1, n, m)) * 2)[0]
        G = mc.datum_grad(T, frame)
        expected = math.sqrt(m * n / (m + n))
        assert spd.norm(T, G) == pytest.approx(expected, abs=1e-8)


def test_grad_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(100):
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        T = random_spd_point(m + n, rng)
        F = mc.lift(rng.standard_normal((4, n, m)))
        V = random_tangent(T, rng)
        fd = (mc.loss(spd.geodesic(T, V, h), F)
              - mc.loss(spd.geodesic(T, V, -h), F)) / (2 * h)
        an = spd.inner(T, mc.grad(T, F), V)
        assert abs(an - fd) / max(abs(fd), 1e-8) < 1e-6


def test_hessian_band_along_geodesics(rng):
    h = 1e-3
    for _ in range(300):
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        T = random_spd_point(m + n, rng)
        F = mc.lift(rng.standard_normal((1, n, m)) * 2)
        V = random_tangent(T, rng)
        f = lambda t: mc.loss(spd.geodesic(T, V, t), F)
        second = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert -1e-6 <= second <= 1.0 + 1e-6


def test_safe_step_descent_guarantee(rng):
    config = DescentConfig(step_policy="safe", tol=1e-9, max_iters=40)
    for _ in range(20):
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        F = mc.lift(rng.standard_normal((8, n, m)))
        T, report = mc.fit(F, m, n, config)
        for k in range(len(report.loss_trace) - 1):
            drop = report.loss_trace[k] - report.loss_trace[k + 1]
            assert drop >= 0.5 * report.grad_norm_trace[k] ** 2 - 1e-9


def test_fit_agrees_with_vector_fit_at_m1(rng):
    # cauchy.fit is this fit on one-column frames, a datum at infinity
    # among the data
    n = 2
    X = cauchy.lift(rng.standard_cauchy((12, n)))
    X[3, :n], X[3, n] = rng.standard_normal(n), 0.0
    Tm, rep_m = mc.fit(X[:, :, None], 1, n)
    Tv, rep_v = cauchy.fit(X)
    assert rep_m.status is FitStatus.CONVERGED
    assert np.array_equal(Tm, Tv)
    assert dataclasses.replace(rep_m, wall_time=0.0) == dataclasses.replace(
        rep_v, wall_time=0.0)


def _hessian_at(F, R):
    return mc._oracle(F.transpose(2, 1, 0))[2](R)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_hessian_matches_finite_differences_of_gradient(rng, m, n):
    # seen from the frame R Q exp(t Lam / 2) that spd.factor_step moves to,
    # a parallel-transported tangent has the coordinates Q^T W Q: so the
    # covariant derivative of the gradient along V is d/dt Q g(t) Q^T
    F = mc.lift(rng.standard_normal((60, n, m)) * 2.0 + 0.3)
    _, grad_fn, hess_fn = mc._oracle(F.transpose(2, 1, 0))
    h = 1e-5
    for _ in range(10):
        O, _ = np.linalg.qr(rng.standard_normal((m + n, m + n)))
        R = np.linalg.cholesky(random_spd_point(m + n, rng)) @ O
        v = rng.standard_normal(len(spd.frame_basis(m + n)))
        V = spd.from_frame_coords(v)
        Q = np.linalg.eigh(V)[1]
        plus, minus = (Q @ grad_fn(spd.factor_step(R, V, t)) @ Q.T
                       for t in (h, -h))
        fd = spd.frame_coords((plus - minus) / (2 * h))
        an = hess_fn(R) @ v
        assert np.linalg.norm(fd - an) < 1e-7 * max(np.linalg.norm(an), 1.0)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_hessian_is_second_derivative_of_loss_along_geodesics(rng, m, n):
    # H(w, w) for the tangent V seen from the Cholesky frame L of T, against
    # the public loss (the quadratic-form kernel at m = 1) along spd.geodesic
    h = 1e-3
    data = rng.standard_normal((40, n, m)) * 2.0
    F = mc.lift(data)
    X = cauchy.lift(data[:, :, 0])
    loss = ((lambda P: cauchy.loss(P, X)) if m == 1
            else (lambda P: mc.loss(P, F)))
    for _ in range(10):
        T = random_spd_point(m + n, rng)
        V = random_tangent(T, rng)
        L = np.linalg.cholesky(T)
        w = spd.frame_coords(spd.sym(np.linalg.solve(L, np.linalg.solve(L, V).T)))
        f = lambda t: loss(spd.geodesic(T, V, t))
        second = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        want = w @ _hessian_at(F, L) @ w
        assert second == pytest.approx(want, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2)])
def test_hessian_blocks_add_up_to_one_pass(rng, m, n, monkeypatch):
    # the Hessian's pass sums its moments over blocks of HESSIAN_CHUNK data
    F = mc.lift(rng.standard_normal((50, n, m)) * 2.0)
    R = np.linalg.cholesky(random_spd_point(m + n, rng))
    whole = _hessian_at(F, R)
    monkeypatch.setattr(mc, "HESSIAN_CHUNK", 7)
    assert np.abs(_hessian_at(F, R) - whole).max() < 1e-14


def test_fit_at_twelve_dimensions_holds_little_memory(rng):
    # the Hessian's pass holds O(p^4) numbers: at p = 12 the fit's numpy
    # allocations peak at a few MiB, where a table of the O(p^8) products
    # of basis traces would take 289 MiB
    X = rng.standard_normal((300, 11)) @ rng.standard_normal((11, 11))
    tracemalloc.start()
    try:
        _, report = mc.fit(mc.lift(X[:, :, None]), 1, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status is FitStatus.CONVERGED
    assert peak < 16 * 2**20


@pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (2, 2), (3, 2)])
def test_hessian_is_psd_with_datum_curvature_at_most_half(rng, m, n):
    # one datum's H(W, W) = |(I - P) W U|^2 lies in [0, |W|^2 / 2], and the
    # bound is attained
    F = mc.lift(rng.standard_normal((30, n, m)) * 2.0)
    top = 0.0
    for _ in range(5):
        O, _ = np.linalg.qr(rng.standard_normal((m + n, m + n)))
        R = np.linalg.cholesky(random_spd_point(m + n, rng)) @ O
        lam = np.linalg.eigvalsh(_hessian_at(F, R))
        assert lam[0] > -1e-12 and lam[-1] <= 0.5 + 1e-12
        for i in range(len(F)):
            lam = np.linalg.eigvalsh(_hessian_at(F[i:i + 1], R))
            assert lam[0] > -1e-12 and lam[-1] <= 0.5 + 1e-12
            top = max(top, lam[-1])
    assert top == pytest.approx(0.5, abs=1e-12)


def test_fit_recovers_identity_from_standard_samples():
    spec = GeneratorSpec(kind="matrix_standard", sample_size=10000, seed=11,
                         rows=2, cols=2)
    data = generate(spec)
    T, report = mc.fit(mc.lift(data), 2, 2)
    assert report.status is FitStatus.CONVERGED
    assert spd.distance(T, np.eye(4)) < 0.1


@pytest.mark.parametrize("seed", [130, 147, 154])
def test_fit_of_standard_samples_does_not_stall_on_roundoff(seed):
    # a log det read from the Gram matrix Y^T Y carries roundoff of about
    # eps cond(Y)^2, which hid the decrease the Newton line search looks
    # for: these fits ended degenerate_data after 2-6 iterations at
    # gradient norms of about 1e-6
    spec = GeneratorSpec(kind="matrix_standard", sample_size=10000,
                         seed=seed, rows=2, cols=2)
    _, report = mc.fit(mc.lift(generate(spec)), 2, 2)
    assert report.status is FitStatus.CONVERGED


@pytest.mark.skipif(not np.finfo(np.longdouble).eps < 1e-18,
                    reason="long double is not extended precision here")
def test_frame_forms_log_det_is_accurate_to_eps_cond(rng):
    # the log det of 2-column frames Y = U diag(1, 1/c) V^T, c from 1 to
    # 1e7, against the Cauchy-Binet sum of their squared 2 x 2 minors in
    # long double.  Gram-Schmidt's factor is exact for some Y + dY with
    # |dY| about p eps |Y| (Higham 2002, ch. 19), which moves log det by
    # 2 tr(Y^+ dY), at most 2 m p eps cond(Y); the logarithms add
    # eps |log det|, since every column has norm at most one.  A log det
    # read from Y^T Y would carry eps cond(Y)^2
    m, p, N = 2, 4, 2000
    eps = np.finfo(float).eps
    U = np.linalg.qr(rng.standard_normal((N, p, m)))[0]
    V = np.linalg.qr(rng.standard_normal((N, m, m)))[0]
    s = np.ones((N, m))
    s[:, 1] = 10.0 ** -rng.uniform(0.0, 7.0, N)
    Y = (U * s[:, None, :]) @ np.swapaxes(V, 1, 2)
    _, logdet = mc._frame_forms(np.eye(p),
                                np.ascontiguousarray(Y.transpose(2, 1, 0)))
    Z = Y.astype(np.longdouble)
    a, b = np.triu_indices(p, 1)
    minors = Z[:, a, 0] * Z[:, b, 1] - Z[:, b, 0] * Z[:, a, 1]
    want = np.log(np.sum(minors * minors, axis=1))
    err = np.abs(logdet - want).astype(float)
    cond = np.linalg.cond(Y)
    assert cond.max() > 1e6
    assert np.all(err <= 2 * m * p * eps * cond + eps * np.abs(logdet))


def test_fit_congruence_equivariance(rng):
    m = n = 2
    data = rng.standard_normal((30, n, m))
    config = DescentConfig(tol=1e-11, max_iters=2000)
    T, rep = mc.fit(mc.lift(data), m, n, config)
    assert rep.status is FitStatus.CONVERGED
    for _ in range(5):
        A = rng.standard_normal((n, n)) + 2 * np.eye(n)
        B = rng.standard_normal((m, m)) + 2 * np.eye(m)
        C = rng.standard_normal((n, m))
        mapped = np.einsum("ij,njk,kl->nil", A, data, B) + C
        Tp, rep_p = mc.fit(mc.lift(mapped), m, n, config)
        assert rep_p.status is FitStatus.CONVERGED
        # lifted frames transform as M Xt B with M = [[A, C B^-1], [0, B^-1]]
        M = np.zeros((n + m, n + m))
        M[:n, :n] = A
        M[:n, n:] = C @ np.linalg.inv(B)
        M[n:, n:] = np.linalg.inv(B)
        Minv = np.linalg.inv(M)
        expected = spd.unit_det(spd.sym(Minv.T @ T @ Minv))
        assert spd.distance(Tp, expected) < 1e-5


def test_equilibrium_of_unit_forces_at_optimum(rng):
    m = n = 2
    data = rng.standard_normal((20, n, m))
    F = mc.lift(data)
    config = DescentConfig(tol=1e-10, max_iters=1000)
    T, report = mc.fit(F, m, n, config)
    assert report.status is FitStatus.CONVERGED
    total = np.zeros((m + n, m + n))
    for frame in F:
        total += mc.datum_grad(T, frame)
    bound = F.shape[0] * config.tol * (1 + math.sqrt(m * n / (m + n)))
    assert spd.norm(T, total) < bound


def test_to_params_splits_quadratic_form(rng):
    m, n = 2, 3
    T = random_spd_point(m + n, rng)
    B, row_scatter, col_scatter = mc.to_params(T, n, m)
    X = rng.standard_normal((n, m))
    frame = mc.lift(X[None])[0]
    lhs = frame.T @ T @ frame
    rhs = (X - B).T @ np.linalg.inv(row_scatter) @ (X - B) + col_scatter
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_fit_is_row_affine_equivariant(rng):
    # X -> M X + C maps the frames by B = [[M, C], [0, I]], and the MLE
    # by T -> B^-T T B^-1
    m = n = 2
    data = rng.standard_normal((30, n, m)) * 15 + 40.0
    M, C = np.array([[0.5, -2.0], [1.5, 1.0]]), np.array([[3.0, -9.0],
                                                            [60.0, 0.25]])
    B = np.block([[M, C], [np.zeros((m, n)), np.eye(m)]])
    config = DescentConfig(tol=1e-11, max_iters=3000)
    T0, rep0 = mc.fit(mc.lift(data), m, n, config)
    T1, rep1 = mc.fit(mc.lift(M @ data + C), m, n, config)
    assert rep0.status is FitStatus.CONVERGED
    assert rep1.status is FitStatus.CONVERGED
    Binv = np.linalg.inv(B)
    assert spd.distance(T1, spd.unit_det(Binv.T @ T0 @ Binv)) < 1e-6


def test_loss_trace_is_the_loss_of_the_data(rng):
    # the descent runs on the frames A Xt, and the trace is read back as
    # the likelihood of the frames as given, also when refused at once
    X = rng.standard_normal((300, 2, 2))
    for data in (X, X * 20.0 + 1e3):
        F = mc.lift(data)
        T, report = mc.fit(F, 2, 2)
        assert report.status is FitStatus.CONVERGED
        assert report.loss_trace[-1] == pytest.approx(mc.loss(T, F))
    for x in (X[:, :, 0], X[:, :, 0] * 20.0 + 1e3):
        F = cauchy.lift(x)[:, :, None]
        for rows in (F, F[[0, 0, 0, 1]]):
            T, report = mc.fit(rows, 1, 2)
            assert report.loss_trace[-1] == pytest.approx(mc.loss(T, rows))
        assert report.status is FitStatus.DEGENERATE_DATA


def test_fit_rejects_mismatched_dims(rng):
    F = mc.lift(rng.standard_normal((5, 2, 2)))
    with pytest.raises(ValueError):
        mc.fit(F, 3, 2, DescentConfig())


def test_fused_oracle_matches_public_functions(rng):
    # the fit's oracle, which the public loss and grad run at chol(T), is
    # the Gram-Schmidt kernel of Y = R^T Xt; the reference is the Gram
    # closed form of T, at every m.  The oracle takes a frame R of
    # T = R R^T and returns the gradient seen from R.
    frames = mc.lift(rng.standard_normal((200, 2, 2)))
    vectors = mc.lift(rng.standard_normal((300, 3, 1)) * 3.0 + 1.0)
    vectors[7, :, 0] = [0.5, -2.0, 1.5, 0.0]   # a datum at infinity
    for F in (frames, vectors):
        loss_fn, grad_fn, _ = mc._oracle(F.transpose(2, 1, 0))

        def gap(R):
            want = gram_grad(R @ R.T, F)
            got = spd.from_frame(R, grad_fn(R))
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        R0 = np.eye(4)
        assert loss_fn(R0) == pytest.approx(gram_loss(R0, F), rel=1e-12)
        assert gap(R0) < 1e-12
        want = gram_grad(R0, F)
        assert mc.loss(R0, F) == pytest.approx(gram_loss(R0, F), rel=1e-12)
        assert np.linalg.norm(mc.grad(R0, F) - want) < 1e-12 * np.linalg.norm(want)
        # a backtracked trial: a long step, then a shorter one from the base
        W = grad_fn(R0)
        far, near = (spd.factor_step(R0, W, -t) for t in (8.0, 1.0))
        for R in (far, near):
            assert loss_fn(R) == pytest.approx(gram_loss(R @ R.T, F),
                                               rel=1e-12)
        assert gap(near) < 1e-12
        # away from the last loss evaluation the forms are recomputed
        assert gap(far) < 1e-12
        assert gap(R0) < 1e-12


def test_check_grad_runs_the_fit_kernel(monkeypatch):
    # check-grad differentiates the public functions, which run the
    # Gram-Schmidt kernel the fits descend on, for vectors and for frames
    kernel = mc._frame_forms
    widths = []

    def counted(R, Fc):
        widths.append(Fc.shape[0])
        return kernel(R, Fc)

    monkeypatch.setattr(mc, "_frame_forms", counted)
    assert check_gradients("cauchy", n=2)["passed"]
    assert len(widths) > 0 and set(widths) == {1}
    widths.clear()
    assert check_gradients("matrix", n=2, m=2)["passed"]
    assert len(widths) > 0 and set(widths) == {2}


def test_parameter_not_positive_definite_is_refused(rng):
    # symmetric with eigenvalues 3, -1, 1, 1: every datum's quadratic form
    # may still be positive, the parameter is refused all the same
    T = np.eye(4)
    T[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    F = mc.lift(rng.standard_normal((5, 2, 2)))
    X = cauchy.lift(rng.standard_normal((5, 3)))
    for call in (lambda: mc.loss(T, F), lambda: mc.grad(T, F),
                 lambda: cauchy.loss(T, X)):
        with pytest.raises(ValueError, match="not positive definite"):
            call()


def test_parameter_is_read_through_its_symmetric_part(rng):
    # the forms Xt^T T Xt of a likelihood see only sym(T)
    T = random_spd_point(4, rng)
    K = np.zeros((4, 4))
    K[0, 3], K[3, 0] = 0.25, -0.25
    F = mc.lift(rng.standard_normal((20, 2, 2)))
    assert mc.loss(T + K, F) == pytest.approx(mc.loss(T, F), rel=1e-14)
    assert np.abs(mc.grad(T + K, F) - mc.grad(T, F)).max() < 1e-14


@pytest.mark.parametrize("n, m, N", [(2, 1, 7), (3, 2, 8), (2, 2, 1000),
                                     (1, 3, 1001)])
def test_standardizing_map_is_the_median_mad_of_each_row(rng, n, m, N):
    # the reference takes each row's observations, pooled over the m
    # columns, through halfspace.median_mad; frames at infinity, a zero
    # observation and ties are among the data, and the map is bit-identical
    F = mc.lift(np.round(rng.standard_cauchy((N, n, m)), 1))
    F[:N // 5, n:, :] = rng.standard_normal((N // 5, m, m))
    F[N // 5, :n, :] = 0.0
    finite = np.all(F[:, n:, :] == np.eye(m), axis=(1, 2))
    A = mc._standardizing_map(F, n, m)
    for i in range(n):
        med, mad = halfspace.median_mad(F[finite, i, :])
        assert A[i, i] == 1.0 / mad
        assert np.array_equal(A[i, n:], -med / mad)
    # with every frame at infinity the map is the identity
    F[:, n:, :] = 2.0 * np.eye(m)
    assert np.array_equal(mc._standardizing_map(F, n, m), np.eye(n + m))
