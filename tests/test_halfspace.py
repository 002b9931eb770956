import math

import numpy as np
import pytest

from cauchymle import halfspace as hs
from cauchymle.gradcheck import random_hpoint, random_htangent


def test_busemann_normalization():
    assert hs.busemann(np.array([0.0]), hs.HPoint(1.0, [0.0])) == pytest.approx(0.0)


def test_busemann_vertical_value():
    assert hs.busemann(np.array([0.0]), hs.HPoint(2.0, [0.0])) == pytest.approx(
        math.log(2.0))


def test_busemann_at_infinity():
    assert hs.busemann(hs.INFINITY, hs.HPoint(math.e, [7.5])) == pytest.approx(-1.0)


def test_busemann_matches_cauchy_density():
    # -log f(x | u + i v) - log(pi) equals the Busemann function, with
    # f = (1/pi) v / ((x - u)^2 + v^2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = float(rng.standard_normal() * 3)
        u = float(rng.standard_normal())
        v = float(np.exp(rng.standard_normal()))
        f = v / ((x - u) ** 2 + v ** 2) / math.pi
        z = hs.HPoint(v, [u])
        assert -math.log(f) - math.log(math.pi) == pytest.approx(
            hs.busemann(np.array([x]), z), abs=1e-12)


def test_busemann_grad_simple_cases():
    g = hs.busemann_grad(np.array([0.0]), hs.HPoint(1.0, [0.0]))
    assert g.da == pytest.approx(1.0)
    assert np.allclose(g.db, 0.0)
    z = hs.HPoint(2.5, [1.0, -3.0])
    ginf = hs.busemann_grad(hs.INFINITY, z)
    assert ginf.da == pytest.approx(-2.5)
    assert np.allclose(ginf.db, 0.0)
    assert ginf.norm() == pytest.approx(1.0)


def test_busemann_grad_unit_norm(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        z = random_hpoint(n, rng, spread=1.0)
        if rng.random() < 0.1:
            x = hs.INFINITY
        else:
            x = rng.standard_normal(n) * 3
        g = hs.busemann_grad(x, z)
        assert abs(g.norm() - 1.0) < 1e-10


def test_busemann_grad_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(200):
        n = int(rng.integers(1, 4))
        z = random_hpoint(n, rng)
        x = hs.INFINITY if rng.random() < 0.15 else rng.standard_normal(n) * 2
        g = hs.busemann_grad(x, z)
        v = random_htangent(z, rng)
        fd = (hs.busemann(x, hs.exp_map(z, v, h))
              - hs.busemann(x, hs.exp_map(z, v, -h))) / (2 * h)
        analytic = (g.da * v.da + float(g.db @ v.db)) / (z.a * z.a)
        assert abs(analytic - fd) / max(abs(fd), 1e-3) < 1e-6


def test_busemann_convexity_band(rng):
    # second derivative along unit-speed geodesics lies in [0, 1]
    h = 1e-3
    for _ in range(500):
        n = int(rng.integers(1, 3))
        z = random_hpoint(n, rng)
        x = hs.INFINITY if rng.random() < 0.15 else rng.standard_normal(n) * 2
        v = random_htangent(z, rng)
        f = lambda t: hs.busemann(x, hs.exp_map(z, v, t))
        second = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        assert -1e-6 <= second <= 1.0 + 1e-6


def test_exp_map_vertical_geodesic():
    z = hs.HPoint(1.0, [0.0])
    up = hs.HTangent(z, 1.0, [0.0])
    w = hs.exp_map(z, up, 1.0)
    assert w.a == pytest.approx(math.e)
    assert np.allclose(w.b, 0.0)


def test_exp_map_zero_time(rng):
    z = random_hpoint(2, rng)
    v = random_htangent(z, rng)
    assert hs.exp_map(z, v, 0.0) is z


def test_exp_map_unit_semicircle():
    # from i horizontally: the unit semicircle with feet at -1 and 1
    z = hs.HPoint(1.0, [0.0])
    v = hs.HTangent(z, 0.0, [1.0])
    for t in (0.3, 1.0, 4.0, 20.0):
        w = hs.exp_map(z, v, t)
        assert hs.distance(z, w) == pytest.approx(t, abs=1e-9)
        assert w.b[0] ** 2 + w.a ** 2 == pytest.approx(1.0, abs=1e-12)
    far = hs.exp_map(z, v, 30.0)
    assert far.b[0] == pytest.approx(1.0, abs=1e-12)


def test_exp_map_speed(rng):
    for _ in range(300):
        n = int(rng.integers(1, 4))
        z = random_hpoint(n, rng)
        v = random_htangent(z, rng, unit=False)
        t = float(rng.uniform(-3, 3))
        w = hs.exp_map(z, v, t)
        assert hs.distance(z, w) == pytest.approx(abs(t) * v.norm(), abs=1e-9)


def test_exp_map_overflow_raises():
    z = hs.HPoint(1.0, [0.0])
    v = hs.HTangent(z, -1.0, [0.0])
    with pytest.raises(hs.NumericRangeError):
        hs.exp_map(z, v, 1e6)


def test_log_map_trivial_cases():
    z = hs.HPoint(1.0, [0.0])
    zero = hs.log_map(z, z)
    assert zero.da == 0.0 and np.allclose(zero.db, 0.0)
    v = hs.log_map(z, hs.HPoint(math.e, [0.0]))
    assert v.da == pytest.approx(1.0)
    assert np.allclose(v.db, 0.0)


def test_log_exp_round_trip(rng):
    for _ in range(300):
        n = int(rng.integers(1, 4))
        z = random_hpoint(n, rng)
        w = random_hpoint(n, rng, spread=1.2)
        v = hs.log_map(z, w)
        back = hs.exp_map(z, v, 1.0)
        assert hs.distance(back, w) < 1e-8
        assert v.norm() == pytest.approx(hs.distance(z, w), abs=1e-10)


def test_log_map_nearly_vertical_is_stable():
    z = hs.HPoint(1.0, [0.0])
    w = hs.HPoint(2.0, [1e-9])
    v = hs.log_map(z, w)
    back = hs.exp_map(z, v, 1.0)
    assert hs.distance(back, w) < 1e-10


def test_distance_vertical_segment():
    assert hs.distance(hs.HPoint(1.0, [0.0]),
                       hs.HPoint(math.e, [0.0])) == pytest.approx(1.0)


def test_distance_zero_and_scaling_invariance(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        z = random_hpoint(n, rng)
        w = random_hpoint(n, rng)
        assert hs.distance(z, z) == 0.0
        lam = float(np.exp(rng.standard_normal()))
        z2 = hs.HPoint(lam * z.a, lam * z.b)
        w2 = hs.HPoint(lam * w.a, lam * w.b)
        assert hs.distance(z2, w2) == pytest.approx(hs.distance(z, w), abs=1e-10)
        shift = rng.standard_normal(n)
        z3 = hs.HPoint(z.a, z.b + shift)
        w3 = hs.HPoint(w.a, w.b + shift)
        assert hs.distance(z3, w3) == pytest.approx(hs.distance(z, w), abs=1e-10)


def test_hpoint_validation():
    with pytest.raises(ValueError):
        hs.HPoint(0.0, [0.0])
    with pytest.raises(ValueError):
        hs.HPoint(-1.0, [0.0])
    with pytest.raises(ValueError):
        hs.HPoint(1.0, [np.inf])


def test_infinity_is_a_singleton():
    assert hs.is_infinity(hs.INFINITY)
    assert not hs.is_infinity(1e308)
    assert hs._Infinity() is hs.INFINITY


def _stack(points):
    return (np.array([z.a for z in points]), np.array([z.b for z in points]))


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_kernels_match_wrappers_point_by_point(rng):
    for n in (1, 2):
        k = 7
        zs = [random_hpoint(n, rng) for _ in range(k)]
        ws = [random_hpoint(n, rng, spread=1.2) for _ in range(k)]
        vs = [random_htangent(z, rng, unit=False) for z in zs]
        # a vertical tangent, a zero tangent, and a vertical pair of points
        vs[1] = hs.HTangent(zs[1], 0.7)
        vs[2] = hs.HTangent(zs[2], 0.0)
        ws[3] = hs.HPoint(2.0 * zs[3].a, zs[3].b)
        xs = rng.standard_normal((k, n)) * 2
        a, b = _stack(zs)
        a2, b2 = _stack(ws)
        da = np.array([v.da for v in vs])
        db = np.array([v.db for v in vs])

        at, bt = hs.exp_kernel(a, b, da, db, 0.8)
        moved = [hs.exp_map(z, v, 0.8) for z, v in zip(zs, vs)]
        _assert_close(at, [w.a for w in moved])
        _assert_close(bt, [w.b for w in moved])

        la, lb = hs.log_kernel(a, b, a2, b2)
        logs = [hs.log_map(z, w) for z, w in zip(zs, ws)]
        _assert_close(la, [v.da for v in logs])
        _assert_close(lb, [v.db for v in logs])

        _assert_close(hs.distance_kernel(a, b, a2, b2),
                      [hs.distance(z, w) for z, w in zip(zs, ws)])
        _assert_close(hs.norm_kernel(a, da, db), [v.norm() for v in vs])

        _assert_close(hs.busemann_kernel(a, b, xs),
                      [hs.busemann(x, z) for x, z in zip(xs, zs)])
        _assert_close(hs.busemann_kernel(a, b),
                      [hs.busemann(hs.INFINITY, z) for z in zs])
        ga, gb = hs.busemann_grad_kernel(a, b, xs)
        grads = [hs.busemann_grad(x, z) for x, z in zip(xs, zs)]
        _assert_close(ga, [g.da for g in grads])
        _assert_close(gb, [g.db for g in grads])
        ia, ib = hs.busemann_grad_kernel(a, b)
        infs = [hs.busemann_grad(hs.INFINITY, z) for z in zs]
        _assert_close(ia, [g.da for g in infs])
        _assert_close(ib, [g.db for g in infs])


def test_exp_kernel_moves_vertical_rays_apart(rng):
    # only the vertical rows take the ray's a exp(t da / a), bit for bit
    # as a batch of all rows would give it; every row of a mixed batch,
    # vertical, still or on a semicircle, has the bits it has alone
    a, b = np.exp(rng.standard_normal(9)), rng.standard_normal((9, 2))
    da, db = rng.standard_normal(9), rng.standard_normal((9, 2))
    db[[1, 4, 7]] = 0.0
    da[7] = 0.0
    t = rng.uniform(-3.0, 3.0, 9)
    at, bt, out = hs.exp_kernel_masked(a, b, da, db, t)
    ray = a * np.exp(t * da / a)
    assert at[[1, 4]].tobytes() == ray[[1, 4]].tobytes()
    assert at[7] == a[7] and not out.any()
    for i in range(9):
        row = slice(i, i + 1)
        alone = hs.exp_kernel_masked(a[row], b[row], da[row], db[row], t[row])
        for got, want in zip(alone, (at[row], bt[row], out[row])):
            assert got.tobytes() == want.tobytes()


def test_kernels_raise_where_a_wrapper_call_raises(rng):
    good = [random_hpoint(1, rng) for _ in range(3)]

    def check_exp(bad_z, bad_v, t):
        zs = good + [bad_z]
        # the good rows move a unit distance
        vs = [random_htangent(z, rng).scaled(1.0 / t) for z in good] + [bad_v]
        for z, v in zip(good, vs):
            hs.exp_map(z, v, t)
        with pytest.raises(hs.NumericRangeError):
            hs.exp_map(bad_z, bad_v, t)
        a, b = _stack(zs)
        with pytest.raises(hs.NumericRangeError):
            hs.exp_kernel(a, b, np.array([v.da for v in vs]),
                          np.array([v.db for v in vs]), t)

    z = hs.HPoint(1.0, [0.0])
    # exp overflow on a vertical ray
    check_exp(z, hs.HTangent(z, 1.0, [0.0]), 800.0)
    # |ds| > 700 on a semicircle
    check_exp(z, hs.HTangent(z, 0.0, [1.0]), 701.0)

    # a non-positive Busemann form: a^2 underflows at a datum under the point
    tiny = hs.HPoint(1e-310, [0.5])
    with pytest.raises(hs.NumericRangeError):
        hs.busemann(np.array([0.5]), tiny)
    a, b = _stack(good + [tiny])
    xs = np.array([[0.0], [1.0], [-1.0], [0.5]])
    with pytest.raises(hs.NumericRangeError):
        hs.busemann_kernel(a, b, xs)
    hs.busemann_kernel(a[:3], b[:3], xs[:3])
