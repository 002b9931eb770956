import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

from cauchymle import cauchy, conformal, descent, halfspace
from cauchymle.descent import (DescentConfig, FitStatus, _frame_norm,
                               minimize_on_halfspace)
from cauchymle.gradcheck import random_hpoint, random_htangent
from cauchymle.halfspace import INFINITY, HPoint, exp_map


def one_point(F, n_inf):
    """The oracle of the data F (N, n) as functions of one point (a, b).

    `conformal._oracle` serves a batch: its functions take the points of
    the members they name; these are its batch of one.
    """
    one = np.arange(1)

    def at(fn):
        return lambda x: fn(np.append(x[0], x[1])[None], one)[0]

    return [at(fn) for fn in conformal._oracle([F], [n_inf])]


def test_loss_equals_univariate_cauchy_loss_at_n1(rng):
    # through the dictionary (u, v) -> T = [[1, -u], [-u, u^2 + v^2]] / v the
    # two loss surfaces are identical, constants included
    for _ in range(50):
        z = random_hpoint(1, rng)
        data = rng.standard_normal((6, 1))
        got = conformal.loss(z, data, 1)
        T = np.array([[1.0, -z.b[0]],
                      [-z.b[0], z.b[0] ** 2 + z.a ** 2]]) / z.a
        want = cauchy.loss(T, cauchy.lift(data[:, 0]))
        assert got == pytest.approx(want, rel=1e-12)


def test_loss_two_unit_vectors():
    z = HPoint(1.0, [0.0, 0.0])
    data = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    assert conformal.loss(z, data, 2) == pytest.approx(2.0 * math.log(2.0))


def test_loss_translation_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        z = random_hpoint(n, rng)
        data = rng.standard_normal((5, n))
        shift = rng.standard_normal(n)
        a = conformal.loss(z, data, n)
        b = conformal.loss(HPoint(z.a, z.b + shift), data + shift, n)
        assert a == pytest.approx(b, abs=1e-12)


def test_grad_symmetric_data_has_no_center_component():
    z = HPoint(1.3, [0.0, 0.0])
    x = np.array([0.7, -0.4])
    g = conformal.grad(z, [x, -x], 2)
    assert np.allclose(g.db, 0.0, atol=1e-15)


def test_grad_single_datum_norm_is_n(rng):
    for _ in range(200):
        n = int(rng.integers(1, 5))
        z = random_hpoint(n, rng)
        x = rng.standard_normal(n) * 2
        g = conformal.grad(z, [x], n)
        assert g.norm() == pytest.approx(n, abs=1e-10)


def test_grad_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(1, 4))
        z = random_hpoint(n, rng)
        data = list(rng.standard_normal((5, n)))
        if rng.random() < 0.3:
            data.append(INFINITY)
        v = random_htangent(z, rng)
        f = lambda t: conformal.loss(exp_map(z, v, t), data, n)
        fd = (f(h) - f(-h)) / (2 * h)
        g = conformal.grad(z, data, n)
        an = (g.da * v.da + float(g.db @ v.db)) / (z.a * z.a)
        assert abs(an - fd) / max(abs(fd), 1e-8) < 1e-6


def test_loss_convexity_along_geodesics(rng):
    h = 1e-3
    for _ in range(200):
        n = int(rng.integers(1, 3))
        z = random_hpoint(n, rng)
        data = list(rng.standard_normal((4, n)))
        v = random_htangent(z, rng)
        f = lambda t: conformal.loss(exp_map(z, v, t), data, n)
        second = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert second >= -1e-6


def test_fit_symmetric_pair_matches_univariate():
    # every point of the geodesic |z| = 1 minimises, so the Hessian at the
    # returned point has the eigenvalue 0 along it
    z, report = conformal.fit([np.array([-1.0]), np.array([1.0])], 1)
    assert report.status is FitStatus.ILL_CONDITIONED
    assert z.b[0] == pytest.approx(0.0, abs=1e-9)
    assert z.a == pytest.approx(1.0, abs=1e-9)


def test_fit_four_unit_vectors():
    data = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
            np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    z, report = conformal.fit(data, 2)
    assert report.status is FitStatus.CONVERGED
    assert np.allclose(z.b, 0.0, atol=1e-9)
    assert z.a == pytest.approx(1.0, abs=1e-9)


def test_fit_four_points_at_radius_two_converge():
    # at the optimum a = 2 the Hessian is diag(2, 1, 1): the damped Newton
    # step lands there in a few iterations instead of bouncing around it
    data = [np.array(v) for v in ([2.0, 0.0], [-2.0, 0.0],
                                  [0.0, 2.0], [0.0, -2.0])]
    z, report = conformal.fit(data, 2)
    assert report.status is FitStatus.CONVERGED
    assert report.iterations <= 10
    assert z.a == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(z.b, 0.0, atol=1e-9)
    assert report.hessian_min_eig == pytest.approx(1.0, abs=1e-9)


def test_fit_small_four_dimensional_samples_converge():
    # no point holds half of five distinct points: each sample has an MLE
    for seed in range(20):
        data = np.random.default_rng(seed).standard_normal((5, 4))
        _, report = conformal.fit(data, 4)
        assert report.status is FitStatus.CONVERGED, seed


def test_fit_matches_univariate_cauchy_argmin(rng):
    config = DescentConfig(max_iters=5000)
    for _ in range(20):
        data = rng.standard_normal(12) * (1 + rng.random())
        z, rep_c = conformal.fit(data[:, None], 1, config)
        (u, v), rep_u = cauchy.fit_univariate(data, config)
        assert rep_c.status is FitStatus.CONVERGED
        assert rep_u.status is FitStatus.CONVERGED
        assert z.b[0] == pytest.approx(u, abs=1e-6)
        assert z.a == pytest.approx(v, abs=1e-6)


def test_fit_accepts_infinity_datum():
    data = [np.array([0.0]), np.array([1.0]), INFINITY]
    z, report = conformal.fit(data, 1)
    assert report.status is FitStatus.CONVERGED
    assert z.b[0] == pytest.approx(0.5, abs=1e-6)
    assert z.a == pytest.approx(math.sqrt(3) / 2, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("share", [0.5, 0.6])
def test_fit_refuses_a_point_holding_half(n, share):
    # no conformal barycenter: refused before descent, where it used to end
    # ill_conditioned after 200 iterations (50%) or degenerate after ~57 (60%)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((1000, n))
    x[:int(1000 * share)] = x[0]
    z, report = conformal.fit(x, n)
    assert report.status is FitStatus.DEGENERATE_DATA
    assert report.iterations == 0
    x[:int(1000 * share)] = rng.standard_normal((int(1000 * share), n))
    x[:400] = x[0]
    assert conformal.fit(x, n)[1].status is FitStatus.CONVERGED


@pytest.mark.parametrize("n", [1, 2])
def test_fit_refuses_infinity_holding_half(n):
    rng = np.random.default_rng(42)
    data = list(rng.standard_normal((500, n))) + [INFINITY] * 500
    z, report = conformal.fit(data, n)
    assert report.status is FitStatus.DEGENERATE_DATA
    assert report.iterations == 0
    assert report.loss_trace == [conformal.loss(z, data, n)]
    assert conformal.fit(data[:800], n)[1].status is FitStatus.CONVERGED


def test_two_points_of_half_each_are_not_dominant():
    # every point of the geodesic between them minimises; any other half
    # leaves no minimiser
    F = np.array([[0.0], [0.0], [3.0], [3.0]])
    assert not conformal.has_dominant_point(F, 0)
    assert not conformal.has_dominant_point(F[:2], 2)
    assert conformal.has_dominant_point(np.array([[0.0], [0.0], [3.0], [4.0]]), 0)
    assert conformal.has_dominant_point(F[:2], 3)


def test_dominant_points_are_counted_exactly():
    # a shared first coordinate is no repeated point
    rng = np.random.default_rng(44)
    F = rng.standard_normal((1000, 2))
    F[:600, 0] = 0.0
    assert not conformal.has_dominant_point(F, 0)
    F[:600, 1] = 0.0
    assert conformal.has_dominant_point(F, 0)


def _dominant_reference(F, n_inf):
    """has_dominant_point from counts of the rows as tuples."""
    counts = [c for c in Counter(map(tuple, F.tolist())).values()] + [n_inf]
    N, top = F.shape[0] + n_inf, max(counts)
    return 2 * top > N or (2 * top == N and sorted(c for c in counts if c)
                           != [N // 2, N // 2])


@st.composite
def stacked_members(draw):
    """(F (B, N, n), n_inf (B,)): few distinct values, so ties, dominant
    points and halves are common; N even or odd, counts at infinity."""
    B, N, n = draw(st.integers(1, 5)), draw(st.integers(0, 9)), draw(
        st.integers(1, 2))
    value = st.sampled_from([-1.5, 0.0, 0.25, 2.0, 1e3])
    F = np.array(draw(st.lists(value, min_size=B * N * n,
                               max_size=B * N * n))).reshape(B, N, n)
    n_inf = draw(st.lists(st.integers(0 if N else 1, N + 2), min_size=B,
                          max_size=B))
    return F, n_inf


@settings(max_examples=300, deadline=None)
@given(stacked_members())
def test_stacked_starts_match_each_member(case):
    # one partition and one sort over the stack give each member the start
    # and the refusal that its own median_mad and has_dominant_point give
    F, n_inf = case
    n = F.shape[2]
    dominant = conformal.has_dominant_point(F, n_inf)
    for (x, refused), X, k, d in zip(conformal._starts(F, n_inf, n), F,
                                     n_inf, dominant):
        med, mad = halfspace.median_mad(X)
        assert np.array_equal(x, np.append(mad, med))
        if X.shape[0]:
            want = np.median(X, axis=0)
            assert np.array_equal(med, want)
            dev = np.median(np.abs(X - want))
            assert mad == (dev if dev > 0 else 1.0)
        alone = conformal.has_dominant_point(X, k)
        assert d == alone == _dominant_reference(X, k)
        if alone:
            assert refused.status is FitStatus.DEGENERATE_DATA
            assert refused.loss_trace == [conformal._evaluate(X, k, x)[0]]
        else:
            assert refused is None


def test_fit_accepts_offset_data():
    # neighbours 2.5e-5 apart at 1e5 are distinct points, although their
    # lifted rows agree to 1e-12 up to scale; the fit descends in the data's
    # median/MAD frame, which the translation by 1e5 maps onto itself
    x = 1e5 + np.random.default_rng(45).standard_normal((100000, 1))
    z, report = conformal.fit(x, 1)
    z0, report0 = conformal.fit(x - 1e5, 1)
    assert report.status is FitStatus.CONVERGED
    assert report0.status is FitStatus.CONVERGED
    assert report.iterations == report0.iterations
    assert z.b[0] == pytest.approx(1e5, abs=0.05)
    assert z.b[0] - 1e5 == pytest.approx(z0.b[0], abs=0.05)
    assert z.a == pytest.approx(z0.a, rel=1e-9)


def test_fit_of_a_tiny_spread_stays_inside_the_scale_caps():
    # the caps on a are taken around the start's, as the similarity that
    # standardizes the data maps them
    x = 1e-12 * np.random.default_rng(49).standard_normal((1000, 2))
    z, report = conformal.fit(x, 2)
    z0, report0 = conformal.fit(x * 1e12, 2)
    assert report.status is FitStatus.CONVERGED
    assert report.iterations == report0.iterations
    assert z.a == pytest.approx(1e-12 * z0.a, rel=1e-9)


def test_loss_trace_is_the_loss_of_the_data():
    rng = np.random.default_rng(50)
    for x in (rng.standard_normal((500, 2)),
              rng.standard_normal((500, 2)) * 20.0 + 1e3):
        z, report = conformal.fit(x, 2)
        assert report.status is FitStatus.CONVERGED
        assert report.loss_trace[-1] == pytest.approx(conformal.loss(z, x))


def test_fit_univariate_runs_one_check(monkeypatch):
    calls = []
    for module, name in [(cauchy, "check_general_position"),
                         (conformal, "has_dominant_point")]:
        check = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, check=check:
                            calls.append(1) or check(*args))
    data = np.random.default_rng(43).standard_normal(1000)
    assert cauchy.fit_univariate(data)[1].status is FitStatus.CONVERGED
    assert len(calls) == 1


@pytest.mark.parametrize("data", [[1.0, 2.0], [1.0, 1.0, 2.0, 2.0]])
def test_fit_univariate_two_halves_converge_onto_the_geodesic(data):
    # two points of half each are not refused: every point of the geodesic
    # |z - 1.5| = 0.5 between them minimises, and either step reaches it in
    # a few iterations; the Hessian is singular along that geodesic, so the
    # fit is flagged.  The fit starts at (MAD, median), a point of the
    # geodesic already; the engine from (1, 0) has to walk to it
    F = np.array(data)[:, None]
    for policy in ("safe", "backtracking"):
        config = DescentConfig(step_policy=policy)
        (u, v), report = cauchy.fit_univariate(data, config)
        assert report.status is FitStatus.ILL_CONDITIONED
        assert report.iterations <= 10
        assert math.hypot(u - 1.5, v) == pytest.approx(0.5, abs=1e-9)
        x, (report,) = minimize_on_halfspace(
            np.array([[1.0, 0.0]]), *conformal._oracle([F], [0]), curvature=1,
            config=config)
        v, u = x[0]
        assert report.status is FitStatus.ILL_CONDITIONED
        assert 0 < report.iterations <= 10
        assert math.hypot(u - 1.5, v) == pytest.approx(0.5, abs=1e-9)


def test_fit_normal_samples_match_scalar_oracle():
    rng = np.random.default_rng(99)
    data = rng.standard_normal((100000, 2))
    z, report = conformal.fit(data, 2, DescentConfig(max_iters=500))
    assert report.status is FitStatus.CONVERGED
    assert np.allclose(z.b, 0.0, atol=0.05)

    # oracle: minimize E[2 log((a^2 + R2)/a)] with R2 ~ chi-square(2) by
    # solving the stationarity condition E[2 a^2/(a^2 + R2)] = 1
    def stationarity(a):
        f = lambda r: (2.0 * a * a / (a * a + r) - 1.0) * 0.5 * np.exp(-r / 2)
        val, _ = integrate.quad(f, 0.0, 300.0, limit=200)
        return val

    a_star = optimize.brentq(stationarity, 0.3, 3.0, xtol=1e-12)
    assert z.a == pytest.approx(a_star, abs=0.05)


def test_fit_similarity_equivariance(rng):
    n = 2
    data = rng.standard_normal((40, n))
    config = DescentConfig(tol=1e-11, max_iters=2000)
    z, rep = conformal.fit(data, n, config)
    assert rep.status is FitStatus.CONVERGED
    for _ in range(10):
        lam = float(np.exp(rng.standard_normal()))
        theta = float(rng.uniform(0, 2 * np.pi))
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        c = rng.standard_normal(n)
        mapped = lam * data @ R.T + c
        zp, rep_p = conformal.fit(mapped, n, config)
        assert rep_p.status is FitStatus.CONVERGED
        assert zp.a == pytest.approx(lam * z.a, rel=1e-6)
        assert np.allclose(zp.b, lam * R @ z.b + c, atol=1e-6 * max(1.0, lam))


def test_equilibrium_mean_unit_force(rng):
    n = 2
    data = rng.standard_normal((15, n))
    config = DescentConfig(tol=1e-10, max_iters=2000)
    z, report = conformal.fit(data, n, config)
    assert report.status is FitStatus.CONVERGED
    g = conformal.grad(z, data, n)
    assert g.norm() / n < config.tol * (1 + 1.0 / n)


def test_fused_oracle_matches_public_functions(rng):
    # the oracle takes (a, b) as arrays and returns the gradient and the
    # Hessian in the orthonormal frame (a d/da, a d/db); the public
    # functions take an HPoint and return the tangent at it
    data = list(rng.standard_normal((300, 2)) * 2.0 + 0.5) + [INFINITY] * 7
    F, n_inf = conformal._split_data(data, 2)
    loss_fn, grad_fn, hess_fn = one_point(F, n_inf)
    _, _, fresh_hess = one_point(F, n_inf)

    def check(x):
        z = HPoint(*x)
        g, want = grad_fn(x), conformal.grad(z, data, 2)
        gap = math.hypot(z.a * g[0] - want.da,
                         float(np.linalg.norm(z.a * g[1:] - want.db)))
        assert gap <= 1e-12 * want.norm() * z.a
        H = hess_fn(x)
        assert np.abs(H - fresh_hess(x)).max() <= 1e-14 * np.abs(H).max()

    x0 = (1.0, np.zeros(2))
    assert loss_fn(x0) == pytest.approx(conformal.loss(HPoint(*x0), data, 2),
                                        rel=1e-12)
    check(x0)
    # a backtracked trial: a long step, then a shorter one from the same base
    g = grad_fn(x0)
    far, near = (halfspace.exp_kernel(*x0, g[0], g[1:], -t) for t in (1.0, 0.5))
    for x in (far, near):
        assert loss_fn(x) == pytest.approx(conformal.loss(HPoint(*x), data, 2),
                                           rel=1e-12)
    check(near)
    # away from the last loss evaluation the forms are recomputed
    check(far)
    check(x0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_hessian_matches_finite_differences_of_gradient(rng, n):
    # along the geodesic with frame velocity v the frame e_a = a d/da,
    # e_j = a d/db_j is not parallel: its covariant derivatives are
    # -v_j e_j for e_a and v_j e_a for e_j.  So the covariant derivative of
    # the gradient g is d/dt g - Omega g, Omega the frame's rotation rate
    data = list(rng.standard_normal((40, n)) * 2.0 + 0.3) + [INFINITY] * 3
    F, n_inf = conformal._split_data(data, n)
    _, grad_fn, hess_fn = one_point(F, n_inf)
    h = 1e-5
    for _ in range(10):
        z = random_hpoint(n, rng)
        x = (z.a, z.b)
        v = rng.standard_normal(n + 1)
        plus, minus = (grad_fn(halfspace.exp_kernel(
            z.a, z.b, z.a * v[0], z.a * v[1:], t)) for t in (h, -h))
        g = grad_fn(x)
        Omega = np.zeros((n + 1, n + 1))
        Omega[1:, 0] = v[1:]
        Omega[0, 1:] = -v[1:]
        fd = (plus - minus) / (2 * h) - Omega @ g
        an = hess_fn(x) @ v
        assert np.linalg.norm(fd - an) < 1e-7 * max(np.linalg.norm(an), 1.0)


@pytest.mark.parametrize("bad", [np.array([[0.0, np.nan], [1.0, 2.0]]),
                                 np.ones((4, 3)), np.empty((0, 2)), []])
def test_fit_rejects_malformed_data(bad):
    with pytest.raises(ValueError):
        conformal.fit(bad, 2)


def mixed_batch(seed, half, n):
    """Datasets of 2 half finite data each: a gaussian sample, a c09-like
    pair of clusters (ill-conditioned), one with a dominant point (refused
    at the start), a Cauchy sample with data at infinity and two without."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((2 * half, n))
    c09 = np.concatenate([10 * rng.standard_normal((half, n)),
                          300 + rng.standard_normal((half, n))])
    dominant = np.concatenate([np.full((half + 1, n), 2.0),
                               rng.standard_normal((half - 1, n))])
    at_infinity = list(rng.standard_cauchy((2 * half, n))) + [INFINITY] * half
    return [gauss, c09, dominant, at_infinity,
            *rng.standard_cauchy((2, 2 * half, n))]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.sampled_from([1, 2]),
       st.sampled_from([1, 3, 8, 200]),
       st.sampled_from(["backtracking", "safe"]),
       st.sampled_from([1e-9, 1e-16]))
def test_batch_members_are_their_fits_alone(seed, half, n, max_iters, policy,
                                            tol):
    # one descent runs the members in lockstep, yet each takes the steps,
    # the loss evaluations and the verdict of its own fit.  A tolerance
    # below roundoff makes Newton trials fail near the optimum, so the
    # members' line searches fall out of step
    datas = mixed_batch(seed, half, n)
    config = DescentConfig(step_policy=policy, max_iters=max_iters, tol=tol)
    batch = conformal.fit_batch([conformal._split_data(d, n) for d in datas],
                                n, config)
    for data, (z, report) in zip(datas, batch):
        z1, alone = conformal.fit(data, n, config)
        assert report.status is alone.status
        assert report.iterations == alone.iterations
        assert report.loss_evals == alone.loss_evals
        assert report.backtracks == alone.backtracks
        assert report.hessian_min_eig == pytest.approx(alone.hessian_min_eig,
                                                       rel=1e-12)
        assert z.a == pytest.approx(z1.a, rel=1e-12)
        assert np.allclose(z.b, z1.b, rtol=1e-12, atol=1e-12 * z1.a)
    refused = batch[2][1]
    assert refused.status is FitStatus.DEGENERATE_DATA
    assert refused.loss_evals == 1 and refused.iterations == 0


def test_mixed_batch_holds_every_outcome():
    # the batch of the test above ends each way it is built to end
    datas = mixed_batch(0, 4, 1)
    batch = conformal.fit_batch([conformal._split_data(d, 1) for d in datas], 1)
    assert [r.status for _, r in batch] == [
        FitStatus.CONVERGED, FitStatus.ILL_CONDITIONED,
        FitStatus.DEGENERATE_DATA] + [FitStatus.CONVERGED] * 3
    _, report = conformal.fit_batch(
        [conformal._split_data(d, 1) for d in datas], 1,
        DescentConfig(max_iters=1))[0]
    assert report.status is FitStatus.MAX_ITERS_EXCEEDED


def test_singular_damped_system_ends_only_its_member():
    # a Hessian of -g^2 I makes member 0's damped system H + g^2 I exactly
    # zero: the stacked solve raises, each member is then solved alone, and
    # member 0 ends degenerate at its start while member 1 takes the steps
    # of its batch of one
    rng = np.random.default_rng(5)
    F = [rng.standard_cauchy((50, 2)) for _ in range(2)]
    x0 = np.stack([x for x, _ in conformal._starts(np.stack(F), [0, 0], 2)])
    loss_fn, grad_fn, hess_fn = conformal._oracle(F, [0, 0])

    def singular_first(x, members):
        H = hess_fn(x, members)
        g = _frame_norm(x, grad_fn(x, members))
        first = members == 0
        H[first] = -(g * g)[first, None, None] * np.eye(3)
        return H

    config = DescentConfig()
    x, (stuck, moved) = minimize_on_halfspace(
        x0, loss_fn, grad_fn, singular_first, curvature=2, config=config)
    assert stuck.status is FitStatus.DEGENERATE_DATA
    assert stuck.iterations == 0 and stuck.loss_evals == 1
    assert np.array_equal(x[0], x0[0])
    x1, (alone,) = minimize_on_halfspace(
        x0[1:], *conformal._oracle(F[1:], [0]), curvature=2, config=config)
    assert moved.status is alone.status
    assert moved.iterations == alone.iterations > 0
    assert moved.loss_evals == alone.loss_evals
    assert np.array_equal(x[1], x1[0])


def test_fit_holds_few_arrays_of_the_sample_size():
    # one pass gives the loss, the gradient and the Hessian at a point: the
    # offsets, the forms q and the scale parts of the unit forces, the
    # center parts overwriting the offsets.  Forming 1/q again for the
    # Hessian, with a (2, N) array of forces, held five at once
    N = 200000
    x = np.random.default_rng(49).standard_cauchy(N)
    tracemalloc.start()
    try:
        _, report = conformal.fit(x, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.status is FitStatus.CONVERGED
    assert peak < 3.5 * N * x.itemsize


@pytest.mark.parametrize("n", [1, 3])
def test_loss_evaluation_holds_no_array_of_the_sample_size(n):
    # a member larger than CHUNK data is summed in slices of CHUNK data:
    # besides the oracle's column copy of the data, one loss evaluation
    # holds a few arrays of CHUNK (n + 1) floats, whatever N
    N = 1000000 // n
    F = np.random.default_rng(50).standard_cauchy((N, n))
    loss_fn, grad_fn, hess_fn = conformal._oracle([F], [0])
    x, one = np.append(1.0, np.zeros(n))[None], np.zeros(1, dtype=int)
    tracemalloc.start()
    try:
        loss = loss_fn(x, one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * descent.CHUNK * (n + 1) * F.itemsize
    # the sums of the slices are those of one pass over the data
    u = np.empty((N, n + 1))
    q = 1.0 + np.sum(F * F, axis=1)
    u[:, 0] = 2.0 / q - 1.0
    u[:, 1:] = -2.0 * F / q[:, None]
    assert loss[0] == pytest.approx(n * np.mean(np.log(q)), rel=1e-12)
    assert np.allclose(grad_fn(x, one)[0], n * u.mean(axis=0), rtol=1e-10,
                       atol=1e-12)
    assert np.allclose(hess_fn(x, one)[0],
                       n * (np.eye(n + 1) - u.T @ u / N), rtol=1e-10,
                       atol=1e-12)
