import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchymle import (cauchy, conformal, descent, halfspace,
                       matrix_cauchy as mc, spd)
from cauchymle.datasets import GeneratorSpec, generate
from cauchymle.descent import STEP_POLICIES, DescentConfig, FitStatus
from cauchymle.gradcheck import (check_gradients, random_hpoint,
                                 random_spd_point, random_tangent)


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


def one_frame(Fc):
    """The oracle of the frames Fc (m, p, N), laid out column by column, as
    functions of one frame R.

    `matrix_cauchy._oracle` serves a batch: its functions take the frames
    of the members they name; these are its batch of one.
    """
    one = np.zeros(1, dtype=int)

    def at(fn):
        return lambda R: fn(np.asarray(R, dtype=float)[None], one)[0]

    return [at(fn) for fn in mc._oracle(np.asarray(Fc)[None])]


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
    return one_frame(F.transpose(2, 1, 0))[2](R)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_hessian_matches_finite_differences_of_gradient(rng, m, n):
    # seen from the frame R Q exp(t Lam / 2) that spd.factor_step moves to,
    # a parallel-transported tangent has the coordinates Q^T W Q: so the
    # covariant derivative of the gradient along V is d/dt Q g(t) Q^T
    F = mc.lift(rng.standard_normal((60, n, m)) * 2.0 + 0.3)
    _, grad_fn, hess_fn = one_frame(F.transpose(2, 1, 0))
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


@pytest.mark.parametrize("N", [13, 14, 15])
@pytest.mark.parametrize("m", [1, 2, 3, "conformal"])
def test_chunked_oracle_matches_per_datum_sums(rng, m, N, monkeypatch):
    # the oracles' one pass sums over chunks of descent.CHUNK frame entries
    # (m p per datum), or of CHUNK data of the conformal family, here of 7
    # data, so that N straddles a chunk boundary.  The reference works
    # datum by datum.  For the frames: log det(Xt^T T Xt), T M T - (m/p) T,
    # and the Hessian of each datum's projector P = U U^T, U an orthonormal
    # basis of R^T Xt from a QR factorization.  For the conformal family,
    # 3 of whose N data lie at infinity: n log(q / a), or -n log a at
    # infinity, and n u and n (I - u u^T) of each datum's unit force u
    n = 2
    if m == "conformal":
        monkeypatch.setattr(descent, "CHUNK", 7)
        X = rng.standard_normal((N - 3, n)) * 2.0
        z = random_hpoint(n, rng)
        q = z.a ** 2 + np.sum((z.b - X) ** 2, axis=1)
        u = np.vstack([np.column_stack([2 * z.a ** 2 / q - 1,
                                        2 * z.a * (z.b - X) / q[:, None]]),
                       np.tile(-np.eye(n + 1)[0], (3, 1))])
        x, one = np.append(z.a, z.b)[None], np.zeros(1, dtype=int)
        got = [fn(x, one)[0] for fn in conformal._oracle([X], [3])]
        want = [n * (np.sum(np.log(q)) - N * np.log(z.a)) / N,
                n * u.mean(axis=0), n * (np.eye(n + 1) - u.T @ u / N)]
    else:
        p = m + n
        monkeypatch.setattr(descent, "CHUNK", 7 * m * p)
        F = mc.lift(rng.standard_normal((N, n, m)) * 2.0)
        R = np.linalg.cholesky(random_spd_point(p, rng))
        T = R @ R.T
        E = spd.frame_basis(p)
        H = np.zeros((len(E), len(E)))
        for frame in F:
            U = np.linalg.qr(R.T @ frame)[0]
            P = U @ U.T
            H += (np.einsum("kab,lbc,ca->kl", E, E, P)
                  - np.einsum("ab,kbc,cd,lda->kl", P, E, P, E))
        loss_fn, grad_fn, hess_fn = one_frame(F.transpose(2, 1, 0))
        got = [loss_fn(R), spd.from_frame(R, grad_fn(R)), hess_fn(R)]
        want = [gram_loss(T, F), gram_grad(T, F), H / N]
    for value, reference in zip(got, want):
        assert np.abs(value - reference).max() < 1e-13


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


@pytest.mark.parametrize("n, m", [(1, 1), (3, 1), (2, 2), (2, 3)])
def test_fit_observations_is_the_fit_of_the_lifted_frames(rng, n, m):
    # both lay the same frames out for the one core; (N, n) vectors are
    # the (N, n, 1) observations
    X = rng.standard_cauchy((300, n, m)) + 5.0
    T, report = mc.fit(mc.lift(X), m, n)
    for data in [X] + ([X[:, :, 0]] if m == 1 else []):
        T_obs, report_obs = mc.fit_observations(data)
        assert np.array_equal(T_obs, T)
        assert dataclasses.replace(report_obs, wall_time=0.0) == \
            dataclasses.replace(report, wall_time=0.0)


SPD_KINDS = ("cauchy", "normal", "refused", "cap")


def spd_batch(seed, m, kinds, N=30, n=2):
    """Datasets (N, n, m) of one shape, one of each kind: Cauchy data at a
    drawn scale and offset; normal data, which take other iterations; an
    atom holding half the data, which m = 1 refuses before the descent;
    and data with no MLE, whose trials run into COND_CAP (70% of the
    points on a line at m = 1, a zero row at m = 2)."""
    rng = np.random.default_rng(seed)
    datas = []
    for kind in kinds:
        X = (rng.standard_cauchy((N, n, m)) * rng.uniform(0.1, 10.0)
             + rng.uniform(-5.0, 5.0))
        if kind == "normal":
            X = rng.standard_normal((N, n, m))
        elif kind == "refused":
            X[:N // 2] = X[0]
        elif kind == "cap" and m == 1:
            X[:int(0.7 * N), 1, 0] = 2.0
        elif kind == "cap":
            X[:, 0, :] = 0.0
        datas.append(X)
    return datas


def same_fit(a, b):
    """Bit for bit the same (T, FitReport), but for the wall time."""
    (Ta, ra), (Tb, rb) = a, b
    return np.array_equal(Ta, Tb) and dataclasses.replace(
        ra, wall_time=0.0) == dataclasses.replace(rb, wall_time=0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2]),
       kinds=st.lists(st.sampled_from(SPD_KINDS), min_size=1, max_size=5),
       policy=st.sampled_from(STEP_POLICIES), max_iters=st.sampled_from([3, 200]))
def test_spd_batch_members_are_their_fits_alone(seed, m, kinds, policy,
                                                max_iters):
    # one descent runs the members in lockstep, yet each takes the steps,
    # the loss evaluations and the verdict of its own fit: its estimate,
    # status, counts, traces and Hessian eigenvalue are those of its batch
    # of one, bit for bit
    datas = spd_batch(seed, m, kinds)
    config = DescentConfig(step_policy=policy, max_iters=max_iters)
    batch = mc.fit_observations_batch(datas, config)
    assert len(batch) == len(datas)
    for kind, data, fit in zip(kinds, datas, batch):
        assert same_fit(fit, mc.fit_observations(data, config))
        if kind == "refused" and m == 1:
            assert fit[1].status is FitStatus.DEGENERATE_DATA
            assert fit[1].loss_evals == 1 and fit[1].iterations == 0


@pytest.mark.parametrize("m", [1, 2])
def test_mixed_spd_batch_holds_every_outcome(m):
    # the batches of the test above end each way they are built to end:
    # members converge at different iterations, a member is refused at
    # m = 1, and the trials of a member with no MLE cross COND_CAP
    kinds = ["cauchy", "normal", "refused", "cap"]
    crossed = []
    step = descent._capped_factor_step

    def watched(x, D, t):
        R1, out = step(x, D, t)
        crossed.append(out.any())
        return R1, out

    with mock.patch.object(descent, "_capped_factor_step", watched):
        (_, cap), = mc.fit_observations_batch(spd_batch(0, m, kinds[3:]))
    assert any(crossed)
    assert cap.status is FitStatus.DEGENERATE_DATA and cap.iterations > 0
    reports = [r for _, r in mc.fit_observations_batch(spd_batch(0, m, kinds))]
    assert [r.status for r in reports[:2]] == [FitStatus.CONVERGED] * 2
    assert len({r.iterations for r in reports}) >= 3
    # m >= 2 has no precheck: the Hessian verdict flags the atom
    assert reports[2].status is (FitStatus.DEGENERATE_DATA if m == 1
                                 else FitStatus.ILL_CONDITIONED)
    assert reports[3].status is FitStatus.DEGENERATE_DATA


def test_fit_observations_batch_refuses_datasets_of_other_shapes(rng):
    with pytest.raises(ValueError, match="shape"):
        mc.fit_observations_batch([rng.standard_normal((30, 2)),
                                   rng.standard_normal((31, 2))])
    with pytest.raises(ValueError):
        mc.fit_observations_batch([])


@pytest.mark.parametrize("bad", [np.empty((0, 2)), np.ones(5),
                                 np.ones((4, 0)), np.ones((2, 2, 2, 2)),
                                 np.array([[0.5, 1.0], [np.nan, 1.0]])])
def test_fit_observations_rejects_malformed_data(bad):
    with pytest.raises(ValueError):
        mc.fit_observations(bad)


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
        loss_fn, grad_fn, _ = one_frame(F.transpose(2, 1, 0))

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
    # observation and ties are among the data, and the map is bit-identical.
    # The fit's one copy of the frames, in the oracle's column layout, is
    # mapped in place
    F = mc.lift(np.round(rng.standard_cauchy((N, n, m)), 1))
    F[:N // 5, n:, :] = rng.standard_normal((N // 5, m, m))
    F[N // 5, :n, :] = 0.0
    finite = np.all(F[:, n:, :] == np.eye(m), axis=(1, 2))
    Fc = np.ascontiguousarray(F.transpose(2, 1, 0))[None]
    (A,) = mc._standardize(Fc, n)
    for i in range(n):
        med, mad = halfspace.median_mad(F[finite, i, :])
        assert A[i, i] == 1.0 / mad
        assert np.array_equal(A[i, n:], -med / mad)
    mapped = np.matmul(A, F.transpose(2, 1, 0))
    assert np.abs(Fc[0] - mapped).max() <= 1e-15 * np.abs(mapped).max()
    # with every frame at infinity the map is the identity
    F[:, n:, :] = 2.0 * np.eye(m)
    Fc = np.ascontiguousarray(F.transpose(2, 1, 0))[None]
    assert np.array_equal(mc._standardize(Fc, n)[0], np.eye(n + m))
    assert np.array_equal(Fc[0], F.transpose(2, 1, 0))


@pytest.mark.parametrize("at_infinity", [False, True])
@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (1, 3)])
def test_standardizing_a_batch_maps_each_member_as_alone(rng, n, m,
                                                         at_infinity):
    # one partition of each row serves a batch with no frame at infinity;
    # with one, each member is mapped alone.  Either way every member's
    # map and frames are bit-identical to its batch of one's
    F = np.stack([mc.lift(np.round(rng.standard_cauchy((101, n, m)), 1))
                  for _ in range(4)])
    if at_infinity:
        F[2, :7, n:, :] = 0.5 * np.eye(m)
    Fc = np.ascontiguousarray(F.transpose(0, 3, 2, 1))
    alone = [np.array(member[None]) for member in Fc]
    A = mc._standardize(Fc, n)
    for i, one in enumerate(alone):
        assert np.array_equal(A[i], mc._standardize(one, n)[0])
        assert np.array_equal(Fc[i], one[0])
