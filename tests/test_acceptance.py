"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from cauchymle import cauchy, conformal, matrix_cauchy as mcau, spd, spline
from cauchymle.cli import main as cli_main
from cauchymle.datasets import GeneratorSpec, generate
from cauchymle.descent import DescentConfig, FitStatus
from cauchymle.gradcheck import (check_gradients, random_hpoint,
                                 random_htangent, random_spd_point,
                                 random_tangent)
from cauchymle.halfspace import INFINITY, busemann, exp_map
from cauchymle.montecarlo import run_mc

from test_matrix import gram_grad, gram_loss
from test_spline import mobius_boundary, mobius_point

SQ3_2 = math.sqrt(3.0) / 2.0


def report(num, name, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


def test_c01_gradient_correctness(capsys):
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 4):
        r = check_gradients("cauchy", n=n, trials=100, seed=100 + n)
        assert r["passed"], f"cauchy n={n}: {r['max_rel_error']}"
        worst = max(worst, r["max_rel_error"])
    for m in (1, 2):
        for n in (1, 2):
            r = check_gradients("matrix", n=n, m=m, trials=100,
                                seed=200 + 10 * m + n)
            assert r["passed"], f"matrix m={m} n={n}: {r['max_rel_error']}"
            worst = max(worst, r["max_rel_error"])
    for n in (1, 2):
        r = check_gradients("conformal", n=n, trials=100, seed=300 + n)
        assert r["passed"], f"conformal n={n}: {r['max_rel_error']}"
        worst = max(worst, r["max_rel_error"])
    # the command-line surface agrees
    code = cli_main(["check-grad", "--family", "cauchy", "--n", "2",
                     "--trials", "100"])
    capsys.readouterr()
    assert code == 0
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 10.0
    with capsys.disabled():
        report(1, "gradient correctness",
               f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_unit_force_norms(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        T = random_spd_point(n + 1, rng)
        xt = np.append(rng.standard_normal(n) * 2, 1.0)
        G = cauchy.datum_grad(T, xt)
        worst = max(worst, abs(spd.norm(T, G) - math.sqrt(n / (n + 1.0))))
    assert worst < 1e-8
    worst_m = 0.0
    for _ in range(1000):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        T = random_spd_point(m + n, rng)
        frame = mcau.lift(rng.standard_normal((1, n, m)) * 2)[0]
        G = mcau.datum_grad(T, frame)
        worst_m = max(worst_m, abs(spd.norm(T, G) - math.sqrt(m * n / (m + n))))
    assert worst_m < 1e-8
    with capsys.disabled():
        report(2, "unit-force norms",
               f"vector dev {worst:.2e}, matrix dev {worst_m:.2e}")


def test_c03_descent_guarantee(capsys):
    rng = np.random.default_rng(31)
    config = DescentConfig(step_policy="safe", tol=1e-9, max_iters=50)
    worst = math.inf
    for _ in range(50):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(n + 4, 40))
        X = cauchy.lift(rng.standard_normal((N, n)) * (0.5 + 2 * rng.random()))
        _, rep = cauchy.fit(X, config)
        for k in range(len(rep.loss_trace) - 1):
            margin = (rep.loss_trace[k] - rep.loss_trace[k + 1]
                      - 0.5 * rep.grad_norm_trace[k] ** 2)
            worst = min(worst, margin)
            assert margin >= -1e-9
    with capsys.disabled():
        report(3, "descent guarantee", f"worst margin {worst:.2e}")


def test_c04_hessian_band(capsys):
    rng = np.random.default_rng(44)
    h = 1e-3
    lo, hi = math.inf, -math.inf
    for _ in range(500):
        n = int(rng.integers(1, 4))
        T = random_spd_point(n + 1, rng)
        xt = cauchy.lift(rng.standard_normal((1, n)) * 2)
        V = random_tangent(T, rng)
        f = lambda t: cauchy.loss(spd.geodesic(T, V, t), xt)
        second = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        lo, hi = min(lo, second), max(hi, second)
        assert -1e-6 <= second <= 1.0 + 1e-6
    blo, bhi = math.inf, -math.inf
    for _ in range(500):
        z = random_hpoint(1, rng)
        x = INFINITY if rng.random() < 0.15 else rng.standard_normal(1) * 2
        v = random_htangent(z, rng)
        f = lambda t: busemann(x, exp_map(z, v, t))
        second = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        blo, bhi = min(blo, second), max(bhi, second)
        assert -1e-6 <= second <= 1.0 + 1e-6
    with capsys.disabled():
        report(4, "hessian band",
               f"loss [{lo:.2e}, {hi:.6f}], busemann [{blo:.2e}, {bhi:.6f}]")


def test_c05_symmetry_optimum(capsys):
    start = time.perf_counter()
    X = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    T, rep = cauchy.fit(X)
    assert rep.status is FitStatus.CONVERGED
    u, v = cauchy.location_scale(T)
    assert abs(u - 0.5) < 1e-6
    assert abs(v - 0.8660254) < 1e-6
    # independent grid-search oracle on (u, v) in [0,1] x [0.5,1.5] at 1e-3
    us = np.linspace(0.0, 1.0, 1001)
    vs = np.linspace(0.5, 1.5, 1001)
    U, V = np.meshgrid(us, vs, indexing="ij")
    L = (np.log((U ** 2 + V ** 2) / V)
         + np.log(((1 - U) ** 2 + V ** 2) / V) + np.log(1.0 / V))
    i, j = np.unravel_index(np.argmin(L), L.shape)
    assert abs(us[i] - u) < 2e-3 and abs(vs[j] - v) < 2e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(5, "symmetry optimum",
               f"(u, v) = ({u:.8f}, {v:.8f}), grid agrees, {elapsed:.2f}s")


def test_c06_normal_limit_scale(capsys):
    start = time.perf_counter()
    data = generate(GeneratorSpec(kind="gaussian", sample_size=10 ** 6,
                                  seed=606))
    T, rep = cauchy.fit(cauchy.lift(data))
    assert rep.status is FitStatus.CONVERGED
    _, v = cauchy.location_scale(T)
    elapsed = time.perf_counter() - start
    assert 0.602 <= v <= 0.622
    assert elapsed < 30.0
    with capsys.disabled():
        report(6, "normal limit scale", f"v = {v:.4f}, {elapsed:.1f}s")


def test_c07_contamination_mc(capsys):
    spec = GeneratorSpec(kind="mixture", sample_size=1000, seed=707,
                         weights=(0.9, 0.1),
                         components=((0.0, 1.0), (100.0, 100.0)))
    summary = run_mc(spec, runs=100)
    mean_u = summary.aggregates["u"]["mean"]
    mean_v = summary.aggregates["v"]["mean"]
    assert abs(mean_u) < 0.1
    assert 0.6 <= mean_v <= 0.9
    with capsys.disabled():
        report(7, "contamination",
               f"mean u = {mean_u:+.3f}, mean v = {mean_v:.3f}")


def test_c08_four_dimensional_fit(capsys):
    start = time.perf_counter()
    mu = np.array([1.0, 2.0, 3.0, 4.0])
    Sigma = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 2.0],
                      [1.0, 2.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0]])
    spec = GeneratorSpec(kind="gaussian_nd", sample_size=10 ** 5, seed=808,
                         mean_vector=mu, covariance=Sigma)
    data = generate(spec)
    T, rep = cauchy.fit(cauchy.lift(data))
    assert rep.status is FitStatus.CONVERGED
    assert rep.iterations < 100
    params = cauchy.to_params(T)
    assert np.abs(params.location - mu).max() < 0.05
    scale = (np.linalg.det(Sigma) / np.linalg.det(params.scatter)) ** 0.25
    S = scale * params.scatter
    assert np.abs((S - Sigma) / Sigma).max() < 0.05
    # 5% contamination leaves the location estimate in place
    rng = np.random.default_rng(809)
    n_bad = 5000
    bad = (np.array([100.0, 0.0, -100.0, 0.0])
           + rng.standard_normal((n_bad, 4)) * math.sqrt(500.0))
    mixed = np.vstack([data[: 10 ** 5 - n_bad], bad])
    T2, rep2 = cauchy.fit(cauchy.lift(mixed))
    assert rep2.status is FitStatus.CONVERGED
    params2 = cauchy.to_params(T2)
    assert np.abs(params2.location - mu).max() < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(8, "4-d fit", f"{rep.iterations} iters, "
               f"b err {np.abs(params.location - mu).max():.4f}, "
               f"S rel err {np.abs((S - Sigma) / Sigma).max():.4f}, "
               f"contaminated b err {np.abs(params2.location - mu).max():.4f}, "
               f"{elapsed:.0f}s")


def test_c09_instability_detection(capsys):
    spec_5050 = GeneratorSpec(kind="mixture", sample_size=1000, seed=909,
                              weights=(0.5, 0.5),
                              components=((0.0, 10.0), (300.0, 1.0)))
    flags_5050 = run_mc(spec_5050, runs=10).status_counts.get(
        "ill_conditioned", 0)
    assert flags_5050 >= 8
    spec_6040 = GeneratorSpec(kind="mixture", sample_size=1000, seed=910,
                              weights=(0.6, 0.4),
                              components=((0.0, 10.0), (300.0, 1.0)))
    flags_6040 = run_mc(spec_6040, runs=10).status_counts.get(
        "ill_conditioned", 0)
    assert flags_6040 <= 2
    with capsys.disabled():
        report(9, "instability detection",
               f"50/50 flagged {flags_5050}/10, 60/40 flagged {flags_6040}/10")


def test_c10_equivariance(capsys):
    rng = np.random.default_rng(1010)
    n = 2
    base = rng.standard_normal((50, n))
    config = DescentConfig(tol=1e-11, max_iters=1000)
    T, rep = cauchy.fit(cauchy.lift(base), config)
    assert rep.status is FitStatus.CONVERGED
    params = cauchy.to_params(T)
    worst_aff = 0.0
    for _ in range(20):
        M = rng.standard_normal((n, n)) + 2.5 * np.eye(n)
        if abs(np.linalg.det(M)) < 0.3:
            continue
        m = rng.standard_normal(n) * 2
        Tp, rp = cauchy.fit(cauchy.lift(base @ M.T + m), config)
        assert rp.status is FitStatus.CONVERGED
        pp = cauchy.to_params(Tp)
        b_exp = M @ params.location + m
        err_b = np.abs(pp.location - b_exp).max() / max(1.0,
                                                        np.abs(b_exp).max())
        S_map = M @ params.scatter @ M.T
        scale = np.trace(pp.scatter @ np.linalg.inv(S_map)) / n
        err_S = np.abs(pp.scatter - scale * S_map).max() / (
            abs(scale) * np.abs(S_map).max())
        worst_aff = max(worst_aff, err_b, err_S)
    assert worst_aff < 1e-5

    # conformal similarity law
    z, repc = conformal.fit(base, n, config)
    assert repc.status is FitStatus.CONVERGED
    worst_conf = 0.0
    for _ in range(10):
        lam = float(np.exp(rng.standard_normal() * 0.5))
        theta = float(rng.uniform(0, 2 * np.pi))
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        c = rng.standard_normal(n)
        zp, rpc = conformal.fit(lam * base @ R.T + c, n, config)
        assert rpc.status is FitStatus.CONVERGED
        err = max(abs(zp.a - lam * z.a) / (lam * z.a),
                  np.abs(zp.b - (lam * R @ z.b + c)).max() / max(1.0, lam))
        worst_conf = max(worst_conf, err)
    assert worst_conf < 1e-5

    # spline Moebius equivariance
    ts = [0.0, 1.0, 2.0, 3.5]
    xs = [0.4, -1.1, 1.8, 0.7]
    prob = spline.SplineProblem.from_pairs(ts, xs, alpha=1.2)
    sconfig = DescentConfig(tol=1e-10, max_iters=20000)
    sol = spline.fit(prob, sconfig)
    assert sol.report.status is FitStatus.CONVERGED
    worst_spl = 0.0
    for coeffs in [(1.0, 0.7, 0.0, 1.0), (1.5, 0.0, 0.0, 1 / 1.5),
                   (0.9, 0.2, -0.3, 1.0)]:
        a, b, c, d = coeffs
        s = math.sqrt(abs(a * d - b * c))
        coeffs = (a / s, b / s, c / s, d / s)
        prob2 = spline.SplineProblem.from_pairs(
            ts, [mobius_boundary(coeffs, x) for x in xs], alpha=1.2)
        sol2 = spline.fit(prob2, sconfig)
        assert sol2.report.status is FitStatus.CONVERGED
        for z_fit, z_ref in zip(sol2.values, sol.values):
            z_exp = mobius_point(coeffs, z_ref)
            worst_spl = max(worst_spl, abs(z_fit.a - z_exp.a),
                            abs(z_fit.b[0] - z_exp.b[0]))
    assert worst_spl < 1e-5
    with capsys.disabled():
        report(10, "equivariance",
               f"affine {worst_aff:.2e}, similarity {worst_conf:.2e}, "
               f"moebius {worst_spl:.2e}")


def test_c11_spline_stationarity(capsys):
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        ts = np.cumsum(0.3 + rng.random(k))
        xs = rng.standard_normal(k) * 2
        alpha = float(np.exp(rng.uniform(-1.5, 2.5)))
        prob = spline.SplineProblem.from_pairs(ts, xs, alpha)
        sol = spline.fit(prob, DescentConfig(tol=1e-7, max_iters=20000))
        assert sol.report.status is FitStatus.CONVERGED
        res = max(spline.junction_residuals(prob, sol.values))
        worst = max(worst, res)
        assert res < 1e-6
    # the huge-penalty limit matches the pooled univariate fit
    xs = [-2.0, 1.0, 0.3, 4.0, -0.5]
    ts = [0.0, 1.0, 2.0, 3.0, 4.0]
    prob = spline.SplineProblem.from_pairs(ts, xs, 1e6)
    sol = spline.fit(prob, DescentConfig(tol=1e-7, max_iters=20000))
    (u, v), _ = cauchy.fit_univariate(xs)
    gap = max(max(abs(z.b[0] - u), abs(z.a - v)) for z in sol.values)
    assert gap < 1e-3
    with capsys.disabled():
        report(11, "spline stationarity",
               f"max residual {worst:.2e}, pooled-limit gap {gap:.2e}")


def test_c12_reduction_identities(capsys):
    rng = np.random.default_rng(1212)
    config = DescentConfig(tol=1e-11, max_iters=2000)
    safe = DescentConfig(step_policy="safe", tol=1e-11, max_iters=2000)
    worst_d = 0.0
    for _ in range(5):
        n = int(rng.integers(1, 4))
        data = rng.standard_normal((n + 10, n, 1))
        F = mcau.lift(data)
        X = cauchy.lift(data[:, :, 0])
        T = random_spd_point(n + 1, rng)
        # both public functions against the closed forms of the vector family
        assert mcau.loss(T, F) == pytest.approx(gram_loss(T, X[:, :, None]),
                                                rel=1e-12)
        assert cauchy.loss(T, X) == pytest.approx(gram_loss(T, F), rel=1e-12)
        assert np.abs(mcau.grad(T, F) - gram_grad(T, X[:, :, None])).max() < 1e-12
        assert np.abs(cauchy.loss_grad(T, X) - gram_grad(T, F)).max() < 1e-12
        # two step paths to one argmin: damped Newton on the frames, the
        # safe gradient step on the vectors; small samples may be flagged
        # ill-conditioned, so convergence is read from the gradient norm
        Tm, rm = mcau.fit(F, 1, n, config)
        Tv, rv = cauchy.fit(X, safe)
        assert rm.final_grad_norm < config.tol
        assert rv.final_grad_norm < safe.tol
        d = spd.distance(Tm, Tv)
        worst_d = max(worst_d, d)
        assert d < 1e-8
    # the two univariate engines: the half-plane fit and the lifted SPD fit
    worst_uv = 0.0
    for _ in range(5):
        data = rng.standard_normal(14) * (1 + rng.random())
        cfg = DescentConfig(max_iters=5000)
        T, rl = cauchy.fit(cauchy.lift(data), cfg)
        (u, v), ru = cauchy.fit_univariate(data, cfg)
        assert rl.status is FitStatus.CONVERGED
        assert ru.status is FitStatus.CONVERGED
        ul, vl = cauchy.location_scale(T)
        gap = max(abs(ul - u), abs(vl - v))
        worst_uv = max(worst_uv, gap)
        assert gap < 1e-6
    with capsys.disabled():
        report(12, "reduction identities",
               f"matrix Newton vs vector gradient-step argmin {worst_d:.2e}, "
               f"lifted-vs-half-plane univariate {worst_uv:.2e}")
