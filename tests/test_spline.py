import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.linalg import LinAlgError

from cauchymle import cauchy, cli, conformal, descent, halfspace as hs, spline
from cauchymle.descent import DescentConfig, FitStatus, plateau_status
from cauchymle.gradcheck import random_hpoint, random_htangent
from cauchymle.halfspace import INFINITY, HPoint


def mobius_point(coeffs, z):
    """Apply (a z + b)/(c z + d) to a half-plane point via complex arithmetic."""
    a, b, c, d = coeffs
    w = complex(z.b[0], z.a)
    img = (a * w + b) / (c * w + d)
    return HPoint(img.imag, [img.real])


def mobius_boundary(coeffs, x):
    a, b, c, d = coeffs
    if hs.is_infinity(x):
        return INFINITY if c == 0 else a / c
    if abs(c * x + d) < 1e-300:
        return INFINITY
    return (a * x + b) / (c * x + d)


def knot_groups(prob):
    """Each knot's finite observations, in order, and its count at infinity."""
    return [(prob.x[prob.knot == i, 0].tolist(), int(prob.n_inf[i]))
            for i in range(prob.k)]


def test_problem_groups_duplicate_times():
    prob = spline.SplineProblem.from_pairs([1.0, 0.0, 1.0], [5.0, 1.0, 7.0],
                                           alpha=1.0)
    assert prob.times.tolist() == [0.0, 1.0]
    assert knot_groups(prob) == [([1.0], 0), ([5.0, 7.0], 0)]


def test_problem_validation():
    with pytest.raises(ValueError):
        spline.SplineProblem((0.0, 0.0), ((1.0,), (2.0,)), 1.0)
    with pytest.raises(ValueError):
        spline.SplineProblem((0.0,), ((1.0,),), 0.0)
    with pytest.raises(ValueError):
        spline.SplineProblem.from_pairs([], [], 1.0)
    # non-finite penalties and times are refused before any fit runs
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            spline.SplineProblem.from_pairs([0.0, 1.0], [0.0, 1.0], alpha)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            spline.SplineProblem.from_pairs([0.0, t], [0.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="one time per observation"):
        spline.SplineProblem.from_pairs([0.0, 1.0], [0.0], 1.0)
    # a time gap so small that the energy weight alpha / gap overflows: a
    # subnormal gap, or a large alpha over a small one
    for times, alpha in (([0.0, 5e-324, 1.0], 1.0), ([0.0, 1e-10], 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gap"):
                spline.SplineProblem.from_pairs(times, [0.0] * len(times),
                                                alpha)
    # observations that are not finite 1-d boundary points are refused when
    # the problem is built, by either constructor, INFINITY among them or not
    for xs in ([0.0, math.nan], [0.0, math.inf], [INFINITY, -math.inf],
               [[0.0, 1.0], [1.0, 2.0]], [INFINITY, np.array([1.0, 2.0])]):
        with pytest.raises(ValueError, match="boundary point"):
            spline.SplineProblem.from_pairs([0.0, 1.0], xs, 1.0)
        with pytest.raises(ValueError, match="boundary point"):
            spline.SplineProblem((0.0, 1.0), ([xs[0]], [xs[1]]), 1.0)


def reference_groups(times, values):
    """The grouping of (t, x) pairs, one pair at a time in stable time order:
    the knot times, and each knot's finite values in order with its count
    at infinity."""
    pairs = sorted(zip([float(t) for t in times], values), key=lambda p: p[0])
    knot_times, groups = [], []
    for t, x in pairs:
        if not (knot_times and t == knot_times[-1]):
            knot_times.append(t)
            groups.append(([], 0))
        finite, n_inf = groups[-1]
        if hs.is_infinity(x):
            groups[-1] = (finite, n_inf + 1)
        else:
            finite.append(float(x))
    return knot_times, groups


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
           st.sampled_from([-0.0, 0.0, 1.0, -2.5])
           | st.floats(-5.0, 5.0, allow_subnormal=False),
           st.just(INFINITY) | st.floats(-1e3, 1e3)), min_size=1, max_size=30),
       st.booleans(), st.booleans())
def test_from_pairs_groups_as_the_pairwise_loop(pairs, times_array,
                                                values_array):
    times, values = [t for t, _ in pairs], [x for _, x in pairs]
    knot_times, groups = reference_groups(times, values)
    if times_array:
        times = np.array(times)
    if values_array:
        values = np.array(values, dtype=object if INFINITY in values else float)
    prob = spline.SplineProblem.from_pairs(times, values, 1.0)
    # bit for bit: a knot at -0.0 and 0.0 takes the first of them
    assert prob.times.tobytes() == np.array(knot_times).tobytes()
    assert knot_groups(prob) == groups
    assert prob.counts.tolist() == [len(f) + n for f, n in groups]
    assert np.all(np.diff(prob.knot) >= 0)  # the observations in knot order


def test_objective_reads_a_knot_array_or_points(rng):
    prob = FD_PROBLEMS[0]
    values = [random_hpoint(1, rng) for _ in range(prob.k)]
    x = np.array([[z.a, z.b[0]] for z in values])
    assert spline.objective(prob, x) == spline.objective(prob, values)
    assert (spline.junction_residuals(prob, x)
            == spline.junction_residuals(prob, values))
    for bad in (x[:-1], x[:, :1], x.T, x[None]):
        with pytest.raises(ValueError, match="knots"):
            spline.objective(prob, bad)
        with pytest.raises(ValueError, match="knots"):
            spline.junction_residuals(prob, bad)


def test_fit_objective_and_regress_build_no_points(rng, tmp_path, monkeypatch):
    # the knots stay one array from the problem to the JSON: with every
    # HPoint refused, the fit, the objective of its knots and regress run
    def refuse(self):
        raise AssertionError("a half-plane point was built")

    monkeypatch.setattr(HPoint, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        HPoint(1.0, [0.0])
    t = np.arange(300.0)
    xs = np.sin(t / 50) + 0.3 * rng.standard_cauchy(300)
    prob = spline.SplineProblem.from_pairs(t, xs, 1.0)
    sol = spline.fit(prob)
    assert sol.report.status is FitStatus.CONVERGED
    assert spline.objective(prob, sol.knots) == sol.report.loss_trace[-1]
    path, out = tmp_path / "r.csv", tmp_path / "r.json"
    path.write_text("".join(f"{a!r},{b!r}\n"
                            for a, b in zip(t.tolist(), xs.tolist())))
    assert cli.main(["regress", "--input", str(path), "--alpha", "1.0",
                     "--output", str(out)]) == 0


def test_objective_single_knot_is_data_term():
    prob = spline.SplineProblem.from_pairs([0.0], [0.5], alpha=2.0)
    z = HPoint(1.2, [0.3])
    assert spline.objective(prob, [z]) == pytest.approx(
        hs.busemann(np.array([0.5]), z))


def test_objective_equal_knots_have_zero_energy():
    prob = spline.SplineProblem.from_pairs([0.0, 1.0], [0.0, 0.0], alpha=7.0)
    z = HPoint(1.0, [0.0])
    assert spline.objective(prob, [z, z]) == pytest.approx(0.0)


def test_objective_energy_term():
    prob = spline.SplineProblem.from_pairs([0.0, 2.0], [0.0, 0.0], alpha=3.0)
    z1 = HPoint(1.0, [0.0])
    z2 = HPoint(math.e, [0.0])
    # busemann(0, z2) = log((e^2)/e) = 1; energy = (3/2) * 1 / 2
    assert spline.objective(prob, [z1, z2]) == pytest.approx(1.0 + 0.75)


def test_start_is_median_and_mad_of_finite_observations():
    # finite data 0, 1, 3, 10: median 2, absolute deviations 2, 1, 1, 8
    prob = spline.SplineProblem.from_pairs(
        [0.0, 1.0, 1.0, 2.0, 3.0, 3.0], [0.0, 1.0, INFINITY, 3.0, 10.0, INFINITY],
        alpha=1.0)
    x = spline._initial_values(prob)
    a, b = x[:, 0], x[:, 1:]
    np.testing.assert_array_equal(a, np.full(4, 1.5))
    np.testing.assert_array_equal(b, np.full((4, 1), 2.0))
    # a vanishing MAD gives scale 1; no finite datum gives (1, 0)
    for xs, (a0, b0) in [([2.0, 2.0, 5.0], (1.0, 2.0)),
                         ([INFINITY, INFINITY], (1.0, 0.0))]:
        prob = spline.SplineProblem.from_pairs(range(len(xs)), xs, alpha=1.0)
        x = spline._initial_values(prob)
        a, b = x[:, 0], x[:, 1:]
        np.testing.assert_array_equal(a, np.full(len(xs), a0))
        np.testing.assert_array_equal(b, np.full((len(xs), 1), b0))


def test_fit_runs_no_family_fit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the spline fit ran a family fit")

    monkeypatch.setattr(conformal, "fit", refuse)
    monkeypatch.setattr(cauchy, "check_general_position", refuse)
    monkeypatch.setattr(descent, "minimize_on_halfspace", refuse)
    monkeypatch.setattr(cauchy, "fit_univariate", refuse)
    monkeypatch.setattr(spline, "fit_univariate", refuse)
    prob = spline.SplineProblem.from_pairs([0.0, 1.0, 2.0], [0.0, 2.0, -1.0],
                                           alpha=0.8)
    assert spline.fit(prob).report.status is FitStatus.CONVERGED


def test_fit_large_alpha_matches_pooled_mle():
    xs = [-2.0, 1.0, 0.3, 4.0, -0.5]
    ts = [0.0, 1.0, 2.0, 3.0, 4.0]
    prob = spline.SplineProblem.from_pairs(ts, xs, alpha=1e6)
    sol = spline.fit(prob, DescentConfig(tol=1e-7, max_iters=5000))
    assert sol.report.status is FitStatus.CONVERGED
    (u, v), _ = cauchy.fit_univariate(xs)
    for z in sol.values:
        assert z.b[0] == pytest.approx(u, abs=1e-3)
        assert z.a == pytest.approx(v, abs=1e-3)


def test_fit_mirror_symmetric_pair_with_grid_oracle():
    prob = spline.SplineProblem.from_pairs([0.0, 1.0], [-1.0, 1.0], alpha=1.0)
    sol = spline.fit(prob, DescentConfig(tol=1e-9, max_iters=5000))
    assert sol.report.status is FitStatus.CONVERGED
    z1, z2 = sol.values
    # the map z -> -conj(z) swaps the data and the knots
    assert z2.b[0] == pytest.approx(-z1.b[0], abs=1e-6)
    assert z2.a == pytest.approx(z1.a, abs=1e-6)
    # grid-search oracle over (u1, v1, u2, v2): descent must beat the grid.
    # The objective of all 21*17*21*17 knot pairs in one broadcast: the two
    # Busemann terms plus (alpha / 2) d^2 over the unit time gap.
    us = np.linspace(-1.0, 1.0, 21)
    vs = np.linspace(0.4, 2.0, 17)
    v, u = (g.ravel() for g in np.meshgrid(vs, us))
    b = u[:, None]
    first = hs.busemann_kernel(v, b, np.array([-1.0]))[:, None]
    second = hs.busemann_kernel(v, b, np.array([1.0]))[None, :]
    d = hs.distance_kernel(v[:, None], b[:, None], v[None, :], b[None, :])
    grid = first + second + 0.5 * d * d
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    best = grid[i, j]
    # the broadcast agrees with the public objective at the grid minimum
    assert best == pytest.approx(spline.objective(
        prob, [HPoint(v[i], [u[i]]), HPoint(v[j], [u[j]])]), rel=1e-12)
    fitted = spline.objective(prob, sol.values)
    assert fitted <= best + 1e-9


def test_junction_residuals_vanish_at_convergence(rng):
    for i in range(20):
        k = int(rng.integers(2, 7))
        ts = np.sort(rng.uniform(0, 5, size=k))
        ts = ts + np.arange(k) * 0.5  # enforce separation
        xs = rng.standard_normal(k) * 2
        alpha = float(np.exp(rng.uniform(-1.5, 2.5)))
        prob = spline.SplineProblem.from_pairs(ts, xs, alpha)
        sol = spline.fit(prob, DescentConfig(tol=1e-7, max_iters=20000))
        assert sol.report.status is FitStatus.CONVERGED
        res = spline.junction_residuals(prob, sol.values)
        assert max(res) < 1e-6
        if i in (1, 18, 19):
            # first-order steps took 6945, 5592 and 4027 iterations here
            assert sol.report.iterations <= 50


def summed_knot_residuals(prob, values):
    """The objective gradient norm at each knot, summed term by term: unit
    data forces minus the energy pulls alpha / gap * log toward each
    neighbour."""
    out = []
    for i, z in enumerate(values):
        da, db = 0.0, np.zeros(1)
        for x in [*prob.x[prob.knot == i], *[INFINITY] * int(prob.n_inf[i])]:
            g = hs.busemann_grad(x, z)
            da, db = da + g.da, db + g.db
        for j in (i - 1, i + 1):
            if 0 <= j < prob.k:
                pull = hs.log_map(z, values[j])
                w = prob.alpha / abs(prob.times[j] - prob.times[i])
                da -= w * pull.da
                db -= w * pull.db
        out.append(hs.HTangent(z, da, db).norm())
    return out


def test_residuals_equal_negative_gradient(rng):
    prob = spline.SplineProblem.from_pairs([0.0, 1.0, 3.0], [0.5, -1.0, 2.0], 0.7)
    values = [HPoint(float(np.exp(rng.standard_normal() * 0.3)),
                     [float(rng.standard_normal())]) for _ in range(3)]
    res = spline.junction_residuals(prob, values)
    for r, ref in zip(res, summed_knot_residuals(prob, values)):
        assert r == pytest.approx(ref, rel=1e-12)


def test_thousands_of_knots(rng):
    # one knot per distinct time, as `cli regress` builds them from a file;
    # the per-knot sums must stay linear in the knots and observations
    k = 3000
    times = np.repeat(np.arange(k) * 0.01, 2)
    xs = list(rng.standard_cauchy(2 * k))
    xs[7] = INFINITY
    prob = spline.SplineProblem.from_pairs(times, xs, 0.3)
    assert prob.k == k
    values = [HPoint(float(np.exp(rng.standard_normal() * 0.3)),
                     [float(rng.standard_normal())]) for _ in range(k)]
    tracemalloc.start()
    try:
        res = spline.junction_residuals(prob, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # dense (k, m) summing matrices would take ~290 MiB
    np.testing.assert_allclose(res, summed_knot_residuals(prob, values),
                               rtol=1e-12)
    fit = spline.fit(prob, DescentConfig(max_iters=3))
    assert fit.report.iterations == 3
    losses = fit.report.loss_trace
    assert all(b <= a + 1e-9 * abs(a) for a, b in zip(losses, losses[1:]))
    # Newton steps to convergence: the Hessian stays banded, where a dense
    # (2k, 2k) one would take ~275 MiB
    tracemalloc.start()
    try:
        fit = spline.fit(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.report.status is FitStatus.CONVERGED
    assert peak < 16 * 2**20


FD_PROBLEMS = [
    # several observations at a knot, one at infinity, and a single knot
    spline.SplineProblem.from_pairs([0.0, 1.0, 1.0, 2.5, 4.0],
                                    [0.3, -1.0, 2.0, INFINITY, 1.5], 1.3),
    spline.SplineProblem.from_pairs([0.0, 0.5], [-2.0, 2.0], 40.0),
    spline.SplineProblem.from_pairs([0.0], [0.7], 1.0),
]


def test_gradient_matches_finite_differences_along_knot_geodesics(rng):
    h = 1e-5
    for prob in FD_PROBLEMS:
        for _ in range(10):
            values = [random_hpoint(1, rng) for _ in range(prob.k)]
            g = spline._gradient(prob, spline._knots(prob, values))
            da, db = g[:, 0], g[:, 1:]
            for i, z in enumerate(values):
                v = random_htangent(z, rng)

                def moved(t):
                    out = list(values)
                    out[i] = hs.exp_map(z, v, t)
                    return spline.objective(prob, out)

                fd = (moved(h) - moved(-h)) / (2 * h)
                analytic = (da[i] * v.da + db[i] @ v.db) / (z.a * z.a)
                assert abs(analytic - fd) / max(abs(fd), 1e-3) < 1e-6


def chart_gradient(prob, a, b):
    """The differential of the objective in the chart (log a, b), knots
    interleaved as (s_0, b_0, s_1, b_1, ...)."""
    da, db = spline._gradient(prob, np.column_stack([a, b])).T
    return np.column_stack([da / a, db / a**2]).ravel()


def dense_from_upper_band(ab):
    u, m = ab.shape[0] - 1, ab.shape[1]
    out = np.zeros((m, m))
    for off in range(u + 1):
        j = np.arange(off, m)
        out[j - off, j] = out[j, j - off] = ab[u - off, off:]
    return out


def test_hessian_matches_finite_differences_of_gradient(rng):
    # the Riemannian Hessian in the chart y = (log a, b), metric
    # diag(1, 1/a^2): the Jacobian of the differential, corrected by the
    # Levi-Civita connection (H_sb += f_b, H_bb -= f_s / a^2)
    h = 1e-5
    pair = FD_PROBLEMS[1]
    cases = [(prob, spline._knots(prob, [
                 random_hpoint(1, rng) for _ in range(prob.k)]))
             for prob in FD_PROBLEMS for _ in range(5)]
    cases += [(pair, np.array([[1.3, 0.2], [1.3, 0.2]])),  # d = 0
              (pair, np.array([[0.5, 0.2], [2.0, 0.2]]))]  # vertical
    for prob, x in cases:
        a, b, k = x[:, 0], x[:, 1:], len(x)
        fd = np.zeros((2 * k, 2 * k))
        for j in range(2 * k):
            step = np.zeros((k, 2))
            step[j // 2, j % 2] = h
            up = chart_gradient(prob, a * np.exp(step[:, 0]), b + step[:, 1:])
            down = chart_gradient(prob, a * np.exp(-step[:, 0]), b - step[:, 1:])
            fd[:, j] = (up - down) / (2 * h)
        fs, fb = chart_gradient(prob, a, b).reshape(k, 2).T
        si, bi = 2 * np.arange(k), 2 * np.arange(k) + 1
        fd[si, bi] += fb
        fd[bi, si] += fb
        fd[bi, bi] -= fs / a**2
        hess = dense_from_upper_band(spline._hessian(prob, x))
        assert np.abs(hess - fd).max() <= 1e-6 * np.abs(fd).max()
        # geodesic convexity: positive definite once damped by |g| G
        g = spline._total_norm(x, spline._gradient(prob, x))
        damped = dense_from_upper_band(spline._hessian(prob, x, g))
        metric = np.column_stack([np.ones(k), 1.0 / a**2]).ravel()
        np.testing.assert_allclose(damped - hess, g * np.diag(metric),
                                   atol=1e-12 * np.abs(damped).max())
        np.linalg.cholesky(damped)


def band_from_dense(dense, u=3):
    ab = np.zeros((u + 1, dense.shape[0]))
    for off in range(u + 1):
        ab[u - off, off:] = np.diagonal(dense, off)
    return ab


def dense_from_blocks(diag, off):
    """The symmetric block-tridiagonal matrix with 2 x 2 diagonal blocks
    diag (k, 2, 2) and blocks off (k - 1, 2, 2) above them."""
    k = len(diag)
    dense = np.zeros((2 * k, 2 * k))
    for i in range(k):
        dense[2 * i:2 * i + 2, 2 * i:2 * i + 2] = diag[i]
    for i in range(k - 1):
        dense[2 * i:2 * i + 2, 2 * i + 2:2 * i + 4] = off[i]
        dense[2 * i + 2:2 * i + 4, 2 * i:2 * i + 2] = off[i].T
    return dense


def block_tridiagonal(k, rng):
    """A random SPD block-tridiagonal matrix (2k, 2k), kept well
    conditioned: each diagonal block's smallest eigenvalue exceeds the
    norms of its two off-diagonal blocks by at least 0.5."""
    off = rng.standard_normal((k - 1, 2, 2))
    norms = np.linalg.norm(off, 2, axis=(1, 2))
    margin = np.append(norms, 0.0) + np.append(0.0, norms) + 0.5
    m = rng.standard_normal((k, 2, 2))
    diag = m @ m.transpose(0, 2, 1) + margin[:, None, None] * np.eye(2)
    return dense_from_blocks(diag, off)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_solve_banded_matches_dense_solve(k, seed, cut):
    # the shipped base and a base of 8, which runs up to six reduction
    # levels at k = 300 (the shipped one at most two)
    rng = np.random.default_rng(seed)
    dense = block_tridiagonal(k, rng)
    ab = band_from_dense(dense)
    assert np.array_equal(dense_from_upper_band(ab), dense)
    rhs = rng.standard_normal(2 * k)
    ref = np.linalg.solve(dense, rhs)
    # shifted past its j lowest eigenvalues, halfway to the next: indefinite
    # for j >= 1, and at least half a gap from singular either way
    lam = np.linalg.eigvalsh(dense)
    j = min(int(cut * 2 * k), 2 * k - 1)
    tau = lam[0] / 2 if j == 0 else (lam[j - 1] + lam[j]) / 2
    assume(j == 0 or lam[j] - lam[j - 1] > 1e-6 * lam[-1])
    shifted = ab.copy()
    shifted[3] -= tau
    try:
        np.linalg.cholesky(dense - tau * np.eye(2 * k))
        indefinite = False
    except LinAlgError:
        indefinite = True
    assert indefinite == (j >= 1)
    for base in (spline.BASE, 8):
        with mock.patch.object(spline, "BASE", base):
            x = spline._solve_banded(ab, rhs)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            if indefinite:
                with pytest.raises(LinAlgError):
                    spline._solve_banded(shifted, rhs)
            else:
                spline._solve_banded(shifted, rhs)


def test_solve_banded_refuses_negative_definite_pivots():
    # -I on every odd knot: its determinant is positive, and the reduced
    # system 3 I + L L^T + R^T R of the even knots is positive definite, so
    # only the d00 > 0 test of the pivots sees it, at the shipped base in
    # the sequential pass and at a base of 8 in the reduction
    k = 16
    diag = [np.eye(2) * (-1.0 if i % 2 else 3.0) for i in range(k)]
    dense = dense_from_blocks(diag, np.random.default_rng(5).standard_normal(
        (k - 1, 2, 2)))
    with pytest.raises(LinAlgError):
        np.linalg.cholesky(dense)
    for base in (spline.BASE, 8):
        with mock.patch.object(spline, "BASE", base):
            with pytest.raises(LinAlgError):
                spline._solve_banded(band_from_dense(dense), np.ones(2 * k))


@pytest.mark.parametrize("k", [100, 1000, 10000])
def test_solve_banded_matches_lapack_on_damped_hessians(k):
    # the sin(t / 50) + 0.3 Cauchy problem of the damping test, at its
    # start and at convergence, against LAPACK's banded Cholesky solve
    from scipy.linalg import solveh_banded
    t = np.arange(k, dtype=float)
    xs = np.sin(t / 50) + 0.3 * np.random.default_rng(1).standard_cauchy(k)
    prob = spline.SplineProblem.from_pairs(t, xs, 1.0)
    sol = spline.fit(prob, DescentConfig(tol=1e-7))
    for x in (spline._initial_values(prob), sol.knots):
        grad = spline._gradient(prob, x)
        g = spline._total_norm(x, grad)
        a = x[:, 0]
        rhs = np.column_stack([grad[:, 0] / a, grad[:, 1] / a**2]).ravel()
        ab = spline._hessian(prob, x, g / np.sqrt(k))
        ref = solveh_banded(ab, rhs)
        got = spline._solve_banded(ab, rhs)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_objective_non_increasing_along_descent():
    # Newton steps to convergence, under the default and the safe policy
    cases = [([0.0, 1.0, 2.0], [0.0, 2.0, -1.0], 0.8,
              DescentConfig(tol=1e-8, max_iters=3000)),
             ([0.0, 1.0, 2.5, 4.0], [0.3, -1.2, 2.0, 0.9], 1.3,
              DescentConfig(step_policy="safe", tol=1e-12, max_iters=50))]
    for ts, xs, alpha, config in cases:
        prob = spline.SplineProblem.from_pairs(ts, xs, alpha)
        sol = spline.fit(prob, config)
        if config.step_policy == "safe":
            default = spline.fit(prob, DescentConfig(tol=1e-12, max_iters=50))
            assert sol.report.loss_trace == default.report.loss_trace
        losses = np.array(sol.report.loss_trace)
        assert np.all(np.diff(losses) <= 1e-12 * np.maximum(
            1.0, np.abs(losses[:-1])))


def test_fit_stops_where_newton_fails(monkeypatch):
    # two Newton steps, then a factorization that fails: the fit stops
    # there, and the gradient-norm tail names the outcome
    solve = spline._solve_banded
    calls = []

    def fails_on_third_call(ab, rhs):
        calls.append(None)
        if len(calls) > 2:
            raise LinAlgError("not positive definite")
        return solve(ab, rhs)

    monkeypatch.setattr(spline, "_solve_banded", fails_on_third_call)
    prob = spline.SplineProblem.from_pairs([0.0, 1.0, 2.0], [0.0, 2.0, -1.0],
                                           alpha=0.8)
    sol = spline.fit(prob, DescentConfig(tol=1e-12, max_iters=5000))
    assert len(calls) == 3
    assert sol.report.iterations == 2
    assert sol.report.status is plateau_status(sol.report.grad_norm_trace)
    assert sol.report.status is FitStatus.MAX_ITERS_EXCEEDED
    assert sol.report.loss_trace[-1] == spline.objective(prob, sol.values)


def test_mobius_equivariance(rng):
    ts = [0.0, 1.0, 2.5, 4.0]
    xs = [0.3, -1.2, 2.0, 0.9]
    prob = spline.SplineProblem.from_pairs(ts, xs, alpha=1.3)
    config = DescentConfig(tol=1e-10, max_iters=20000)
    sol = spline.fit(prob, config)
    assert sol.report.status is FitStatus.CONVERGED
    for coeffs in [(1.0, 1.5, 0.0, 1.0),       # translation
                   (2.0, 0.0, 0.0, 0.5),       # dilation
                   (0.8, 0.3, -0.4, 1.1)]:     # generic
        a, b, c, d = coeffs
        det = a * d - b * c
        coeffs = (a / math.sqrt(det), b / math.sqrt(det),
                  c / math.sqrt(det), d / math.sqrt(det))
        mapped_xs = [mobius_boundary(coeffs, x) for x in xs]
        prob2 = spline.SplineProblem.from_pairs(ts, mapped_xs, alpha=1.3)
        sol2 = spline.fit(prob2, config)
        assert sol2.report.status is FitStatus.CONVERGED
        for z_fit, z_ref in zip(sol2.values, sol.values):
            z_exp = mobius_point(coeffs, z_ref)
            assert z_fit.b[0] == pytest.approx(z_exp.b[0], abs=1e-5)
            assert z_fit.a == pytest.approx(z_exp.a, abs=1e-5)


def test_fit_accepts_infinity_observation():
    prob = spline.SplineProblem.from_pairs([0.0, 1.0, 2.0],
                                           [0.0, INFINITY, 1.0], alpha=2.0)
    sol = spline.fit(prob, DescentConfig(tol=1e-8, max_iters=5000))
    assert sol.report.status is FitStatus.CONVERGED
    assert max(spline.junction_residuals(prob, sol.values)) < 1e-7


def test_fit_degenerates_with_negligible_penalty():
    # one observation per knot and nearly no coupling: each knot dives to
    # its boundary datum and the objective is unbounded below
    prob = spline.SplineProblem.from_pairs([0.0, 1.0, 2.0, 3.0],
                                           [-1.0, 2.0, 0.5, 1.0], alpha=1e-3)
    sol = spline.fit(prob, DescentConfig(max_iters=3000))
    assert sol.report.status is FitStatus.DEGENERATE_DATA


def same_point(z, w):
    """Whether two half-plane points are bit for bit the same."""
    return (z.a, z.b.tolist()) == (w.a, w.b.tolist())


def test_evaluate_interpolation():
    prob = spline.SplineProblem.from_pairs([0.0, 1.0], [-1.0, 1.0], alpha=1.0)
    sol = spline.fit(prob, DescentConfig(tol=1e-9, max_iters=5000))
    z1, z2 = sol.values
    assert same_point(spline.evaluate(sol, 0.0), z1)
    assert same_point(spline.evaluate(sol, 1.0), z2)
    assert same_point(spline.evaluate(sol, -5.0), z1)
    assert same_point(spline.evaluate(sol, 7.0), z2)
    mid = spline.evaluate(sol, 0.5)
    d1 = hs.distance(mid, z1)
    d2 = hs.distance(mid, z2)
    full = hs.distance(z1, z2)
    assert d1 == pytest.approx(d2, abs=1e-8)
    assert d1 == pytest.approx(0.5 * full, abs=1e-8)


def test_evaluate_finds_the_knot_of_every_time():
    # the segment of t is the knot of searchsorted's right side, before,
    # at, between and after the knots; a knot time gives its value
    prob = spline.SplineProblem.from_pairs([0.0, 1.0, 2.5, 4.0],
                                           [-1.0, 1.0, 0.5, 3.0], alpha=1.0)
    sol = spline.fit(prob, DescentConfig(tol=1e-9, max_iters=5000))
    times, values = sol.times, sol.values
    for t in (-1.0, 0.0, 1e-9, 0.5, 1.0, 2.0, 2.5, 4.0 - 1e-9, 4.0, 9.0):
        i = int(np.searchsorted(np.array(times), t, side="right")) - 1
        got = spline.evaluate(sol, t)
        if i < 0 or i == len(times) - 1 or times[i] == t:
            assert same_point(got, values[min(max(i, 0), len(times) - 1)])
        else:
            frac = (t - times[i]) / (times[i + 1] - times[i])
            want = hs.exp_map(values[i], hs.log_map(values[i], values[i + 1]),
                              frac)
            assert same_point(got, want)


def test_evaluate_refuses_nan_and_holds_the_end_knots_at_infinity():
    prob = spline.SplineProblem.from_pairs([0.0, 1.0], [-1.0, 1.0], alpha=1.0)
    sol = spline.fit(prob)
    with pytest.raises(ValueError, match="NaN"):
        spline.evaluate(sol, math.nan)
    z1, z2 = sol.values
    assert same_point(spline.evaluate(sol, -math.inf), z1)
    assert same_point(spline.evaluate(sol, math.inf), z2)


@pytest.mark.parametrize("k", [1000, 10000])
def test_damping_does_not_grow_with_the_knot_count(k):
    # sin(t / 50) + 0.3 Cauchy at 1000 knots: damping by the total gradient
    # norm, which grows like sqrt(k), shrank the steps to 82 iterations;
    # damping by the RMS knot norm takes the 7-8 of a 100-knot problem.
    # At 10000 knots every Newton solve runs seven levels of reduction.
    t = np.arange(k, dtype=float)
    x = np.sin(t / 50) + 0.3 * np.random.default_rng(1).standard_cauchy(k)
    sol = spline.fit(spline.SplineProblem.from_pairs(t, x, 1.0),
                     DescentConfig(tol=1e-7))
    assert sol.report.status is FitStatus.CONVERGED
    assert sol.report.iterations <= 12
