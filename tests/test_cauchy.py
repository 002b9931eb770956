import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchymle import cauchy, matrix_cauchy, spd
from cauchymle.datasets import GeneratorSpec, generate
from cauchymle.descent import DescentConfig, FitStatus
from cauchymle.gradcheck import random_spd_point, random_tangent
from cauchymle.halfspace import INFINITY

from test_matrix import gram_grad, gram_loss, one_frame

SQ3_2 = math.sqrt(3.0) / 2.0


def uv_matrix(u, v):
    """Matrix parameter of the univariate family with center u and width v."""
    return np.array([[1.0, -u], [-u, u * u + v * v]]) / v


def test_loss_symmetric_pair():
    X = cauchy.lift(np.array([-1.0, 1.0]))
    assert cauchy.loss(np.eye(2), X) == pytest.approx(math.log(2.0))


def test_loss_single_datum_at_origin():
    X = cauchy.lift(np.array([0.0]))
    assert cauchy.loss(np.eye(2), X) == pytest.approx(0.0)


def test_loss_congruence_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        T = random_spd_point(n + 1, rng)
        X = cauchy.lift(rng.standard_normal((6, n)))
        A = rng.standard_normal((n + 1, n + 1))
        A = A / np.abs(np.linalg.det(A)) ** (1.0 / (n + 1))
        lhs = cauchy.loss(spd.sym(A.T @ T @ A), X)
        rhs = cauchy.loss(T, X @ A.T)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_loss_rejects_empty_and_zero_rows():
    with pytest.raises(ValueError):
        cauchy.loss(np.eye(2), np.empty((0, 2)))
    with pytest.raises(ValueError):
        cauchy.loss(np.eye(2), np.array([[0.0, 0.0]]))


def test_grad_vanishes_at_symmetric_optimum():
    X = cauchy.lift(np.array([-1.0, 1.0]))
    G = cauchy.loss_grad(np.eye(2), X)
    assert np.allclose(G, 0.0, atol=1e-14)


def test_per_datum_grad_norm_is_constant(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        T = random_spd_point(n + 1, rng)
        xt = np.append(rng.standard_normal(n) * 2, 1.0)
        if rng.random() < 0.1:
            xt[-1] = 0.0  # boundary datum
        G = cauchy.datum_grad(T, xt)
        assert spd.norm(T, G) == pytest.approx(math.sqrt(n / (n + 1.0)), abs=1e-8)


def test_grad_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(1, 4))
        T = random_spd_point(n + 1, rng)
        X = cauchy.lift(rng.standard_normal((5, n)))
        V = random_tangent(T, rng)
        fd = (cauchy.loss(spd.geodesic(T, V, h), X)
              - cauchy.loss(spd.geodesic(T, V, -h), X)) / (2 * h)
        an = spd.inner(T, cauchy.loss_grad(T, X), V)
        assert abs(an - fd) / max(abs(fd), 1e-8) < 1e-6


def test_hessian_band_along_geodesics(rng):
    # per-datum loss has geodesic second derivative in [0, ||gamma'||^2]
    h = 1e-3
    for _ in range(500):
        n = int(rng.integers(1, 4))
        T = random_spd_point(n + 1, rng)
        xt = np.append(rng.standard_normal(n) * 2, 1.0)[None, :]
        V = random_tangent(T, rng)
        f = lambda t: cauchy.loss(spd.geodesic(T, V, t), xt)
        second = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert -1e-6 <= second <= 1.0 + 1e-6


def test_safe_step_descent_guarantee(rng):
    config = DescentConfig(step_policy="safe", tol=1e-9, max_iters=60)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        X = cauchy.lift(rng.standard_normal((n + 4, n)) * (1 + rng.random()))
        T, report = cauchy.fit(X, config)
        losses = report.loss_trace
        grads = report.grad_norm_trace
        for k in range(len(losses) - 1):
            drop = losses[k] - losses[k + 1]
            assert drop >= 0.5 * grads[k] ** 2 - 1e-9


def test_fit_three_point_symmetric_configuration():
    X = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    T, report = cauchy.fit(X)
    assert report.status is FitStatus.CONVERGED
    u, v = cauchy.location_scale(T)
    assert u == pytest.approx(0.5, abs=1e-6)
    assert v == pytest.approx(SQ3_2, abs=1e-6)


def test_fit_unit_force_equilibrium(rng):
    n = 2
    X = cauchy.lift(rng.standard_normal((12, n)))
    config = DescentConfig(tol=1e-9)
    T, report = cauchy.fit(X, config)
    assert report.status is FitStatus.CONVERGED
    total = np.zeros((n + 1, n + 1))
    for row in X:
        total += cauchy.datum_grad(T, row)
    bound = X.shape[0] * config.tol * (1 + math.sqrt(n / (n + 1.0)))
    assert spd.norm(T, total) < bound


def test_fit_affine_equivariance(rng):
    n = 2
    base = rng.standard_normal((40, n))
    X = cauchy.lift(base)
    T, _ = cauchy.fit(X, DescentConfig(tol=1e-11, max_iters=400))
    params = cauchy.to_params(T)
    for _ in range(20):
        M = rng.standard_normal((n, n)) + 2 * np.eye(n)
        if abs(np.linalg.det(M)) < 0.2:
            continue
        m = rng.standard_normal(n)
        Xp = cauchy.lift(base @ M.T + m)
        Tp, _ = cauchy.fit(Xp, DescentConfig(tol=1e-11, max_iters=400))
        pp = cauchy.to_params(Tp)
        b_expected = M @ params.location + m
        assert np.allclose(pp.location, b_expected,
                           atol=1e-5 * max(1.0, np.abs(b_expected).max()))
        S_mapped = M @ params.scatter @ M.T
        ratio = pp.scatter / S_mapped
        scale = np.trace(pp.scatter) / np.trace(S_mapped)
        assert np.allclose(pp.scatter, scale * S_mapped,
                           atol=1e-5 * abs(scale) * np.abs(S_mapped).max())


def test_to_params_identity():
    params = cauchy.to_params(np.eye(2))
    assert params.location == pytest.approx([0.0])
    assert params.scatter[0, 0] == pytest.approx(1.0)


def test_to_params_rejects_non_positive_scatter_scale():
    # the top-left block is positive definite, the Schur complement
    # d - c^T A^-1 c = -1/2 is not: T is indefinite
    T = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="non-positive scatter scale"):
        cauchy.to_params(T)


def test_univariate_dictionary():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = float(rng.standard_normal())
        v = float(np.exp(rng.standard_normal()))
        T = uv_matrix(u, v)
        assert np.linalg.det(T) == pytest.approx(1.0, abs=1e-12)
        # x~ = (x, 1) gives x~^T T x~ = ((x - u)^2 + v^2)/v
        x = float(rng.standard_normal())
        got = np.array([x, 1.0]) @ T @ np.array([x, 1.0])
        assert got == pytest.approx(((x - u) ** 2 + v * v) / v, rel=1e-12)
        assert cauchy.location_scale(T) == pytest.approx((u, v), rel=1e-10)


def test_params_round_trip(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        T = random_spd_point(n + 1, rng)
        back = cauchy.from_params(cauchy.to_params(T))
        assert np.allclose(back, T, atol=1e-10)


def test_check_general_position_cases():
    three = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    assert cauchy.check_general_position(three, 1)
    dup = cauchy.lift(np.array([0.0, 0.0, 1.0]))
    assert not cauchy.check_general_position(dup, 1)
    two = cauchy.lift(np.array([0.0, 1.0]))
    assert not cauchy.check_general_position(two, 1)


def test_check_general_position_large_sample_heuristic(rng):
    X = cauchy.lift(rng.standard_normal(500))
    assert cauchy.check_general_position(X, 1)
    # an isolated float collision is harmless above the exact cap ...
    Xdup = np.vstack([X, X[17]])
    assert cauchy.check_general_position(Xdup, 1)
    # ... a dominant atom is not
    Xatom = cauchy.lift(np.concatenate([rng.standard_normal(200),
                                        np.full(300, 7.25)]))
    assert not cauchy.check_general_position(Xatom, 1)
    Xflat = np.hstack([np.ones((30, 1)), np.zeros((30, 1))])
    assert not cauchy.check_general_position(Xflat, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_atom_threshold_scales_with_dimension(seed):
    # at n = 4 an atom must hold fewer than N / 5 points: 15% converges,
    # 25% and 40% are refused before any descent however long it may run.
    # So near the bound the likelihood is flat: the 15% fits reach the
    # tolerance, and their Hessian may flag them ill-conditioned.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1000, 4))
    atom = rng.standard_normal(4)
    for frac, ok in [(0.15, True), (0.25, False), (0.40, False)]:
        k = int(1000 * frac)
        X = cauchy.lift(np.vstack([np.tile(atom, (k, 1)), x[k:]]))
        assert cauchy.check_general_position(X, 4) is ok
        if ok:
            report = cauchy.fit(X)[1]
            assert report.status in (FitStatus.CONVERGED,
                                     FitStatus.ILL_CONDITIONED)
            assert report.final_grad_norm < DescentConfig().tol
            continue
        for max_iters in (200, 2000):
            _, report = cauchy.fit(X, DescentConfig(max_iters=max_iters))
            assert report.status is FitStatus.DEGENERATE_DATA
            assert report.iterations == 0


def _largest_atom_reference(X):
    """Brute force: the most rows equal to one row up to sign and scale."""
    Y = X / np.linalg.norm(X, axis=1)[:, None]
    gap = np.minimum(np.abs(Y[:, None] - Y[None]).max(axis=2),
                     np.abs(Y[:, None] + Y[None]).max(axis=2))
    return int((gap < cauchy.PROJECTIVE_DUP_TOL).sum(axis=1).max())


def _general_position_reference(X, n):
    N = X.shape[0]
    return bool(np.linalg.matrix_rank(X) == n + 1
                and _largest_atom_reference(X) * (n + 1) < N)


def _seam_row(p):
    """A row x with x.r2 = 0 exactly for the second form of the atom key."""
    R = cauchy._key_forms(p)
    x = np.zeros(p)
    x[0], x[1] = R[1, 1], -R[0, 1]
    assert (R.T @ x[:, None])[1, 0] == 0.0
    return x


@st.composite
def planted_atoms(draw):
    """(X, n): lifted data, N 21..300, with atoms about N/(n+1) rows large.

    Every row is scaled by a nonzero factor of either sign; atoms sit at a
    random point, at (1, 0, ..., 0) or on the seam x.r2 = 0 of the key.
    """
    n = draw(st.integers(1, 4))
    N = draw(st.integers(21, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = cauchy.lift(rng.standard_normal((N, n)))
    need = -(-N // (n + 1))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.sampled_from([need - 1, need, need + 1, need // 2, 2]))
        point = draw(st.sampled_from(["random", "axis", "seam"]))
        X[rng.choice(N, k, replace=False)] = {
            "random": rng.standard_normal(n + 1),
            "axis": np.eye(n + 1)[0],
            "seam": _seam_row(n + 1)}[point]
    scale = rng.uniform(0.1, 10.0, N) * rng.choice((-1.0, 1.0), N)
    return X * scale[:, None], n


@settings(max_examples=200, deadline=None)
@given(planted_atoms())
def test_check_general_position_matches_brute_force(case):
    X, n = case
    assert cauchy.check_general_position(X, n) is _general_position_reference(X, n)


@settings(max_examples=100, deadline=None)
@given(planted_atoms(), st.integers(0, 2**32 - 1))
def test_check_general_position_invariances(case, seed):
    # the answer depends only on the projective points, not on their order,
    # their representatives or the linear frame they are written in
    X, n = case
    rng = np.random.default_rng(seed)
    want = cauchy.check_general_position(X, n)
    N = X.shape[0]
    scale = rng.uniform(0.01, 100.0, N) * rng.choice((-1.0, 1.0), N)
    Q = np.linalg.qr(rng.standard_normal((n + 1, n + 1)))[0]
    A = Q * rng.uniform(0.5, 2.0, n + 1)
    for Y in (X[rng.permutation(N)], X * scale[:, None], X @ A):
        assert cauchy.check_general_position(Y, n) is want


def test_seam_atom_of_scaled_copies_is_found():
    # x.r2 = 0 exactly for one copy; its scaled copies have x.r2 at roundoff
    # of either sign, so their keys sit at both ends of [-1, 1]
    x = _seam_row(3)
    X = np.vstack([x * c for c in np.linspace(-5.0, 5.0, 41) if c != 0.0])
    assert cauchy.has_atom(np.vstack([X, np.eye(3)]), 40)
    assert not cauchy.has_atom(np.vstack([X, np.eye(3)]), 41)


def test_atom_split_by_the_key_floor_is_counted_whole():
    # copies of a point at the floor of trusted keys fall on both sides of
    # it by roundoff: the atom is a run of keys plus the untrusted rows
    R = cauchy._key_forms(3)

    def untrusted(X):
        a, b = R.T @ X.T
        scale = np.abs(X) @ np.abs(R).sum(axis=1)
        return ~(np.abs(a) + np.abs(b) > cauchy.ATOM_KEY_FLOOR * scale)

    u = np.linalg.svd(R.T)[2][-1]  # both forms vanish on u
    e0 = np.eye(3)[0]
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if untrusted((u + mid * e0)[None])[0]:
            lo = mid
        else:
            hi = mid
    X = (u + hi * e0) * np.linspace(1.0, 3.0, 41)[:, None]
    assert 0 < untrusted(X).sum() < 40
    assert cauchy.has_atom(np.vstack([X, np.eye(3)]), 41)
    assert not cauchy.has_atom(np.vstack([X, np.eye(3)]), 42)
    # far below the floor the keys of copies scatter by far more than tol
    X = (u + 1e-9 * e0) * np.linspace(1.0, 3.0, 41)[:, None]
    assert untrusted(X).all()
    assert cauchy.has_atom(np.vstack([X, np.eye(3)]), 41)


def _traced_peak(fn):
    """fn's result, and the peak of the memory tracemalloc sees it take."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_atom_check_holds_few_arrays_of_the_sample_size():
    # the fit's copy of the data is alive while the check runs.  The rank
    # comes from the QR factors of chunks of rows, and has_atom builds the
    # keys and their flags a chunk at a time: the check holds the keys,
    # their sort and the flags, 2 1/8 arrays of N floats, and a few arrays
    # of CHUNK floats at a time
    N = 200000
    X = cauchy.lift(np.random.default_rng(48).standard_normal(N))
    bound = (2.125 * N + 8 * cauchy.CHUNK) * X.itemsize
    atom, peak = _traced_peak(lambda: cauchy.has_atom(X, N // 2))
    assert not atom and peak < bound
    general, peak = _traced_peak(lambda: cauchy.check_general_position(X, 1))
    assert general and peak < bound


def test_fit_holds_few_arrays_of_the_sample_size():
    # the twin of the conformal fit's test.  Beside the caller's lifted
    # data, the fit holds its column copy of them (p = 2 arrays of N
    # floats) and the precheck's 2 1/8; the oracle's pass keeps O(p^4)
    # sums and no per-datum array, and every chunk's temporaries are a few
    # arrays of CHUNK floats
    N = 200000
    X = cauchy.lift(np.random.default_rng(49).standard_cauchy(N))
    (_, report), peak = _traced_peak(lambda: cauchy.fit(X))
    assert report.status is FitStatus.CONVERGED
    assert peak < (4.125 * N + 8 * cauchy.CHUNK) * X.itemsize


def test_fit_from_observations_holds_few_arrays_of_the_sample_size():
    # the observations twin: the data, passed straight in, die once the
    # fit's column copy of them exists (p = 2 arrays of N floats); the
    # median/MAD scratch of N floats is freed before the precheck's 2 1/8
    N = 200000
    (_, report), peak = _traced_peak(lambda: matrix_cauchy.fit_observations(
        np.random.default_rng(49).standard_cauchy((N, 1))))
    assert report.status is FitStatus.CONVERGED
    assert peak < (4.125 * N + 8 * cauchy.CHUNK) * 8


def test_exact_branch_matches_subset_loop(rng):
    # reference: one matrix_rank per subset of n + 1 rows; half the sets
    # get a point on the affine hull of n others
    outcomes = set()
    for trial in range(40):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(n + 2, cauchy.GENERAL_POSITION_EXACT_CAP + 1))
        x = rng.standard_normal((N, n))
        if trial % 2:
            w = rng.standard_normal(n)
            x[-1] = (w / w.sum()) @ x[:n]
        X = cauchy.lift(x)
        want = all(np.linalg.matrix_rank(X[list(idx)]) == n + 1
                   for idx in combinations(range(N), n + 1))
        assert cauchy.check_general_position(X, n) is want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_fit_degenerate_data_status():
    X = cauchy.lift(np.array([0.0, 0.0, 1.0]))
    T, report = cauchy.fit(X)
    assert report.status is FitStatus.DEGENERATE_DATA
    assert report.iterations == 0


@pytest.mark.xfail(strict=True, reason="D4, ROADMAP item 3: the N <= 20 "
                   "precheck asks for general position, not the Kent-Tyler "
                   "counts, so the lifted fit refuses data that have an MLE")
def test_lifted_fit_agrees_with_fit_univariate_on_a_double_point():
    # the double point holds 2 < N/2 of the data, so the MLE exists
    data = [0.0, 0.0, 1.0, 2.0, 3.0]
    (u, v), ru = cauchy.fit_univariate(data)
    assert ru.status is FitStatus.CONVERGED
    T, report = cauchy.fit(cauchy.lift(data))
    assert report.status is FitStatus.CONVERGED
    assert cauchy.location_scale(T) == pytest.approx((u, v), abs=1e-6)


def test_fit_univariate_symmetric_pair():
    (u, v), report = cauchy.fit_univariate([-1.0, 1.0, 3.0, -3.0])
    assert report.status is FitStatus.CONVERGED
    assert u == pytest.approx(0.0, abs=1e-8)


def test_fit_univariate_three_point():
    (u, v), report = cauchy.fit_univariate([0.0, 1.0, INFINITY])
    assert report.status is FitStatus.CONVERGED
    assert u == pytest.approx(0.5, abs=1e-6)
    assert v == pytest.approx(SQ3_2, abs=1e-6)


def test_fit_univariate_agrees_with_manifold_fit(rng):
    # small samples can be legitimately ill-conditioned (near-bimodal), so
    # give both solvers budget enough to converge before comparing
    config = DescentConfig(max_iters=5000)
    # the SPD frame metric is twice the half-plane metric at n = 1, so the
    # lifted fit's gradient norms are 1/sqrt(2) of the half-plane ones: at
    # this tolerance both fits stop at the same iterate
    lifted = DescentConfig(max_iters=5000, tol=config.tol / math.sqrt(2.0))
    for _ in range(100):
        N = int(rng.integers(4, 30))
        data = rng.standard_normal(N) * (1 + 2 * rng.random())
        (u1, v1), rep1 = cauchy.fit_univariate(data, config)
        T, rep2 = cauchy.fit(cauchy.lift(data), lifted)
        u2, v2 = cauchy.location_scale(T)
        # both fits read their verdict from the Hessian, which may flag a
        # small sample; they still have to reach the tolerance, and the
        # half-plane metric, half the SPD frame metric, doubles the Hessian
        assert rep1.final_grad_norm < config.tol
        assert rep2.final_grad_norm < config.tol
        assert rep1.status is rep2.status
        assert rep1.hessian_min_eig == pytest.approx(
            2.0 * rep2.hessian_min_eig, rel=1e-9)
        assert u1 == pytest.approx(u2, abs=1e-6)
        assert v1 == pytest.approx(v2, abs=1e-6)


def test_fit_univariate_retraces_the_lifted_fit_on_mixtures():
    # two engines on one loss: the half-plane metric is half the SPD frame
    # metric at n = 1, so the g^2-damped Newton steps coincide, gradient
    # norms differ by sqrt(2) and Hessian eigenvalues by 2.  With the
    # lifted fit's tolerance scaled by 1/sqrt(2) both stop at one iterate.
    tol = DescentConfig().tol / math.sqrt(2.0)
    mixtures = [((0.9, 0.1), ((0.0, 1.0), (100.0, 100.0))),
                ((0.5, 0.5), ((0.0, 10.0), (300.0, 1.0))),
                ((0.6, 0.4), ((0.0, 10.0), (300.0, 1.0)))]
    for weights, components in mixtures:
        for seed in range(5):
            data = generate(GeneratorSpec(
                kind="mixture", sample_size=1000, seed=seed, weights=weights,
                components=components))
            (u1, v1), rep1 = cauchy.fit_univariate(data)
            T, rep2 = cauchy.fit(cauchy.lift(data), DescentConfig(tol=tol))
            u2, v2 = cauchy.location_scale(T)
            assert rep1.status is rep2.status
            assert rep1.iterations == rep2.iterations
            assert rep1.grad_norm_trace[0] == pytest.approx(
                math.sqrt(2.0) * rep2.grad_norm_trace[0], rel=1e-12)
            assert rep1.hessian_min_eig == pytest.approx(
                2.0 * rep2.hessian_min_eig, rel=1e-9)
            assert u1 == pytest.approx(u2, abs=1e-9 * max(1.0, abs(u2)))
            assert v1 == pytest.approx(v2, abs=1e-9 * max(1.0, v2))


def test_fit_is_affine_equivariant(rng):
    data = rng.standard_normal((60, 2)) * 40 + [300.0, -90.0]
    # rows at infinity are directions: an affine map moves them by its
    # linear part only, and they take no part in the median/MAD of the fit
    X = np.vstack([cauchy.lift(data), [[1.0, 2.0, 0.0], [-3.0, 0.5, 0.0]]])
    M, c = np.array([[2.0, 0.5], [-1.0, 3.0]]), np.array([-7.0, 40.0])
    B = np.block([[M, c[:, None]], [np.zeros((1, 2)), np.ones((1, 1))]])
    config = DescentConfig(tol=1e-11, max_iters=500)
    T, rep0 = cauchy.fit(X, config)
    T_img, rep = cauchy.fit(X @ B.T, config)
    assert rep0.status is FitStatus.CONVERGED
    assert rep.status is FitStatus.CONVERGED
    Binv = np.linalg.inv(B)
    assert spd.distance(T_img, spd.unit_det(Binv.T @ T @ Binv)) < 1e-8
    p0 = cauchy.to_params(T)
    p1 = cauchy.to_params(T_img)
    scatter = M @ p0.scatter @ M.T
    assert np.allclose(p1.location, M @ p0.location + c, atol=1e-5)
    assert np.allclose(p1.scatter, scatter,
                       rtol=1e-5, atol=1e-5 * np.abs(scatter).max())


def test_fit_validates_data_once(rng, monkeypatch):
    # one check of the values, in matrix_cauchy.fit; the precheck and the
    # oracle take the checked data as they are
    calls = []
    check = matrix_cauchy._check_frames

    def counted(frames):
        calls.append(np.shape(frames))
        return check(frames)

    monkeypatch.setattr(matrix_cauchy, "_check_frames", counted)
    X = cauchy.lift(rng.standard_normal((50, 2)))
    _, report = cauchy.fit(X)
    assert report.status is FitStatus.CONVERGED
    assert calls == [(50, 3, 1)]


def test_fit_univariate_is_similarity_equivariant(rng):
    # both fits descend in the data's median/MAD frame, which a similarity
    # x -> s x + t maps onto itself: the same iterates, mapped
    data = rng.standard_normal(50) * 1000 + 5e4
    s, t = -1e-3, 7.0
    (u0, v0), rep0 = cauchy.fit_univariate(list(data))
    (u1, v1), rep = cauchy.fit_univariate(list(s * data + t))
    assert rep0.status is FitStatus.CONVERGED
    assert rep.status is FitStatus.CONVERGED
    assert rep.iterations == rep0.iterations
    assert u1 == pytest.approx(s * u0 + t, abs=1e-4)
    assert v1 == pytest.approx(abs(s) * v0, rel=1e-5)


def test_descent_config_validation():
    with pytest.raises(TypeError):
        DescentConfig(standardize=True)
    with pytest.raises(ValueError):
        DescentConfig(step_policy="newton")
    with pytest.raises(ValueError):
        DescentConfig(step_policy="improved")
    with pytest.raises(ValueError):
        DescentConfig(tol=0.0)
    with pytest.raises(ValueError):
        DescentConfig(max_iters=0)


def test_loss_trace_monotone_with_default_policy(rng):
    # non-increasing up to floating-point roundoff of the loss evaluations
    X = cauchy.lift(rng.standard_normal((25, 2)))
    _, report = cauchy.fit(X)
    diffs = np.diff(report.loss_trace)
    assert np.all(diffs <= 1e-12)


def _rel_gap(got, want):
    return np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want)


def _frame_gap(R, W, want):
    # gap between W, a gradient seen from the frame R, and the tangent want
    # at R R^T, in the Riemannian norm relative to the larger of the
    # gradient and a unit force: two frames round the O(1) unit forces
    # differently, and near the optimum those forces cancel
    gap = spd.norm(R @ R.T, spd.from_frame(R, W) - want)
    return gap / max(np.linalg.norm(W), 1.0)


def test_fused_oracle_matches_public_functions(rng):
    # the oracle takes a frame R of T = R R^T and returns the gradient seen
    # from R; the public functions run it at chol(T) and return the tangent
    # at T.  Both are held to the Gram closed forms of T
    X = cauchy.lift(rng.standard_normal((300, 2)) * 3.0 + 1.0)
    F = X[:, :, None]
    loss_fn, grad_fn, _ = one_frame(X.T[None])

    def gap(R):
        return _rel_gap(spd.from_frame(R, grad_fn(R)), gram_grad(R @ R.T, F))

    R0 = np.eye(3)
    assert loss_fn(R0) == pytest.approx(gram_loss(R0, F), rel=1e-12)
    assert gap(R0) < 1e-12
    assert cauchy.loss(R0, X) == pytest.approx(gram_loss(R0, F), rel=1e-12)
    assert _rel_gap(cauchy.loss_grad(R0, X), gram_grad(R0, F)) < 1e-12
    # a backtracked trial: a long step, then a shorter one from the same base
    W = grad_fn(R0)
    far, near = (spd.factor_step(R0, W, -t) for t in (8.0, 1.0))
    for R in (far, near):
        assert loss_fn(R) == pytest.approx(gram_loss(R @ R.T, F), rel=1e-12)
    assert gap(near) < 1e-12
    # away from the last loss evaluation the forms are recomputed
    assert gap(far) < 1e-12
    assert gap(R0) < 1e-12


def test_fit_oracle_agrees_with_public_functions_along_descent(rng, monkeypatch):
    # every loss, gradient and Hessian the engine sees equals the Gram
    # closed forms' or a fresh oracle's, rejected trials included, and the
    # report counts what it saw.  Newton steps are seldom rejected, so the
    # engine is shown a non-finite loss at its first trial
    X = cauchy.lift(rng.standard_normal((400, 4)) @ rng.standard_normal((4, 4)))
    # the engine sees the data in their median/MAD frame, A x, which the
    # fit's core maps its column copy of the data to
    Fc = np.ascontiguousarray(X.T[None, None])
    matrix_cauchy._standardize(Fc, 4)
    Xs = Fc[0, 0].T
    seen = {"loss": 0, "grad": 0}
    engine = matrix_cauchy.minimize_on_spd
    # an oracle whose loss_fn is never called recomputes the forms each time
    _, fresh_grad, fresh_hess = one_frame(Xs.T[None])

    # the fit is a batch of one: the functions take the frames x (1, p, p)
    # of the members [0]
    def checked(T0, loss_fn, grad_fn, hess_fn, config):
        assert T0.shape == (1, 5, 5)

        def loss_chk(x, members):
            seen["loss"] += 1
            val = loss_fn(x, members)
            R = x[0]
            assert val[0] == pytest.approx(
                gram_loss(R @ R.T, Xs[:, :, None]), rel=1e-12)
            return np.full(1, np.inf) if seen["loss"] == 2 else val

        def grad_chk(x, members):
            seen["grad"] += 1
            W = grad_fn(x, members)
            R = x[0]
            # the forms grad_fn reuses are those at R: the same kernel in
            # the same frame, so the gap is relative to the gradient itself
            assert _rel_gap(W[0], fresh_grad(R)) < 1e-12
            assert _frame_gap(R, W[0],
                              gram_grad(R @ R.T, Xs[:, :, None])) < 1e-12
            return W

        def hess_chk(x, members):
            H = hess_fn(x, members)
            assert _rel_gap(H[0], fresh_hess(x[0])) < 1e-12
            return H

        return engine(T0, loss_chk, grad_chk, hess_chk, config)

    monkeypatch.setattr(matrix_cauchy, "minimize_on_spd", checked)
    T, report = cauchy.fit(X)
    assert report.status is FitStatus.CONVERGED
    backtracks = seen["loss"] - 1 - report.iterations
    assert seen["grad"] == report.iterations + 1 and backtracks > 0
    assert report.loss_evals == seen["loss"]
    assert report.backtracks == backtracks


@pytest.mark.parametrize("bad", [
    np.array([[0.5, 1.0], [np.nan, 1.0], [2.0, 1.0], [3.0, 1.0]]),
    np.array([[0.5, 1.0], [0.0, 0.0], [2.0, 1.0], [3.0, 1.0]]),
    np.ones(5),
    np.ones((5, 1)),
    np.empty((0, 3)),
])
def test_fit_rejects_malformed_lifted_data(bad):
    with pytest.raises(ValueError):
        cauchy.fit(bad)


@pytest.mark.parametrize("bad", [[1.0, float("nan"), 2.0, 3.0], [],
                                 np.ones((4, 2))])
def test_fit_univariate_rejects_malformed_data(bad):
    with pytest.raises(ValueError):
        cauchy.fit_univariate(bad)


def test_lift_univariate_rows():
    X = cauchy.lift_univariate([2.5, INFINITY, -1.0, INFINITY])
    assert np.array_equal(X, [[2.5, 1.0], [1.0, 0.0], [-1.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(cauchy.lift_univariate(np.array([0.0, 3.0])),
                          [[0.0, 1.0], [3.0, 1.0]])
