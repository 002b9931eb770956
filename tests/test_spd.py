import numpy as np
import pytest

from cauchymle import spd
from cauchymle.gradcheck import random_spd_point, random_tangent


def test_inner_identity_base():
    T = np.eye(2)
    V = np.diag([1.0, -1.0])
    assert spd.inner(T, V, V) == pytest.approx(2.0)


def test_inner_orthogonal_tangents():
    T = np.eye(2)
    V = np.diag([1.0, -1.0])
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert spd.inner(T, V, W) == pytest.approx(0.0)


def test_inner_diagonal_closed_form():
    # tr(T^-1 V T^-1 V) = (1/2)^2 * 1 + (1/0.5)^2 * 0.0625 = 0.5
    T = np.diag([2.0, 0.5])
    V = np.diag([1.0, -0.25])
    assert spd.inner(T, V, V) == pytest.approx(0.5, abs=1e-12)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        spd.inner(np.eye(2), np.eye(3), np.eye(2))


def test_inner_positive_and_symmetric(rng):
    T = random_spd_point(3, rng)
    V = random_tangent(T, rng, unit=False)
    W = random_tangent(T, rng, unit=False)
    assert spd.inner(T, V, W) == pytest.approx(spd.inner(T, W, V), rel=1e-10)
    assert spd.inner(T, V, V) > 0
    assert spd.inner(T, np.zeros_like(T), np.zeros_like(T)) == 0.0


def test_geodesic_from_identity_is_matrix_exponential():
    T = np.eye(2)
    V = np.diag([1.0, -1.0])
    G = spd.geodesic(T, V, 1.0)
    assert np.allclose(np.diag(G), [np.e, 1.0 / np.e], atol=1e-12)


def test_geodesic_at_zero_time(rng):
    T = random_spd_point(3, rng)
    V = random_tangent(T, rng)
    assert np.array_equal(spd.geodesic(T, V, 0.0), T)


def test_geodesic_diagonal_closed_form():
    T = np.diag([2.0, 0.5])
    V = np.diag([1.0, -0.25])
    G = spd.geodesic(T, V, 1.0)
    expected = np.diag([2.0 * np.exp(0.5), 0.5 * np.exp(-0.5)])
    assert np.allclose(G, expected, atol=1e-12)


def test_geodesic_overflow_reports_range_error():
    T = np.eye(2)
    V = np.diag([1.0, -1.0])
    with pytest.raises(spd.NumericRangeError):
        spd.geodesic(T, V, 1e6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_a_value_error(bad):
    T = np.diag([2.0, 0.5])
    V = np.diag([1.0, -0.25])
    B = T.copy()
    B[0, 1] = B[1, 0] = bad
    for call in (lambda: spd.geodesic(B, V, 1.0), lambda: spd.geodesic(T, B, 1.0),
                 lambda: spd.log_map(B, T), lambda: spd.log_map(T, B),
                 lambda: spd.distance(B, T), lambda: spd.distance(T, B)):
        with pytest.raises(ValueError) as info:
            call()
        # refused as input, not as a failed factorization (LinAlgError)
        assert info.type is ValueError


def test_geodesic_det_preservation(rng):
    for _ in range(1000):
        p = int(rng.integers(2, 5))
        T = random_spd_point(p, rng)
        V = random_tangent(T, rng, unit=False)
        nrm = spd.norm(T, V)
        if nrm > 5.0:
            V = V * (5.0 * rng.random() / nrm)
        t = float(rng.uniform(-3, 3))
        G = spd.geodesic(T, V, t)
        # to first order a perturbation dG moves det G by tr(G^-1 dG), at
        # most p cond(G) |dG| / |G|.  Three roundings of about eps |G| each
        # follow the rescaling: the log det in `spd.unit_det`, the rescaled
        # entries, and the LU of np.linalg.det
        bound = 3 * p * np.finfo(float).eps * np.linalg.cond(G)
        assert abs(np.linalg.det(G) - 1.0) < bound


def test_factor_step_matches_geodesic_from_any_frame(rng):
    for _ in range(200):
        p = int(rng.integers(2, 6))
        T = random_spd_point(p, rng)
        V = random_tangent(T, rng) * rng.uniform(0.1, 3.0)
        O, _ = np.linalg.qr(rng.standard_normal((p, p)))
        R = np.linalg.cholesky(T) @ O
        W = spd.sym(np.linalg.solve(R, np.linalg.solve(R, V).T))
        for t in rng.uniform(0.1, 1.5) * np.array([1.0, -1.0]):
            R1 = spd.factor_step(R, W, t)
            G = spd.geodesic(T, V, t)
            assert np.linalg.norm(R1 @ R1.T - G) / np.linalg.norm(G) < 1e-12


def test_factor_steps_keep_the_determinant(rng):
    R = np.eye(4)
    for _ in range(1000):
        S = rng.standard_normal((4, 4))
        W = spd.sym(S) - np.trace(S) / 4 * np.eye(4)
        R = spd.factor_step(R, W, float(rng.uniform(-0.05, 0.05)))
    assert abs(np.linalg.det(R) ** 2 - 1.0) < spd.DET_RTOL
    assert np.linalg.cond(R) > 2.0  # the walk did leave the identity


@pytest.mark.parametrize("R, t", [
    (np.eye(2), 2e3),
    (np.eye(2), 8e2),    # R1 is finite, R1 R1^T is not
    (np.eye(2), -8e2),
    (np.diag([1e150, 1e-150]), 20.0),   # within the exponent cap
])
def test_factor_step_overflow_reports_range_error(R, t):
    with pytest.raises(spd.NumericRangeError):
        spd.factor_step(R, np.diag([1.0, -1.0]), t)


def test_masked_factor_step_of_a_stack_is_each_step_alone(rng):
    # the overflowing steps above are marked, not raised, among in-range
    # steps, each of which is factor_step's bit for bit
    bad = [(np.eye(2), 2e3), (np.eye(2), 8e2), (np.diag([1e150, 1e-150]), 20.0)]
    good = [(np.linalg.cholesky(random_spd_point(2, rng)), t)
            for t in rng.uniform(-2.0, 2.0, 3)]
    R = np.stack([r for r, _ in good + bad])
    t = np.array([t for _, t in good + bad])
    W = np.diag([1.0, -1.0]) + 0.3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    R1, out = spd.factor_step_masked(R, np.broadcast_to(W, R.shape), t)
    assert out.tolist() == [False] * 3 + [True] * 3
    for i, (r, ti) in enumerate(good):
        assert np.array_equal(R1[i], spd.factor_step(r, W, ti))


def test_geodesic_speed(rng):
    for _ in range(100):
        T = random_spd_point(3, rng)
        V = random_tangent(T, rng, unit=False)
        nrm = spd.norm(T, V)
        if nrm > 4.0:
            V = V * (4.0 / nrm)
        t = float(rng.uniform(-2, 2))
        d = spd.distance(T, spd.geodesic(T, V, t))
        assert d == pytest.approx(abs(t) * spd.norm(T, V), abs=1e-8)


def test_geodesic_additivity_via_congruence_transport(rng):
    # gamma(s + t) equals the geodesic restarted at gamma(s) with velocity
    # E^T V E, E = exp(s/2 T^-1 V), transported by congruence
    from scipy.linalg import expm
    for _ in range(50):
        T = random_spd_point(3, rng)
        V = random_tangent(T, rng)
        s, t = rng.uniform(-1.5, 1.5, size=2)
        E = expm(0.5 * s * np.linalg.solve(T, V))
        mid = spd.geodesic(T, V, s)
        V_mid = spd.sym(E.T @ V @ E)
        direct = spd.geodesic(T, V, s + t)
        restarted = spd.geodesic(mid, V_mid, t)
        assert spd.distance(direct, restarted) < 1e-8


def test_log_map_identity_pair():
    V = spd.log_map(np.eye(2), np.eye(2))
    assert np.allclose(V, 0.0)


def test_log_map_diagonal():
    V = spd.log_map(np.eye(2), np.diag([np.e, 1.0 / np.e]))
    assert np.allclose(V, np.diag([1.0, -1.0]), atol=1e-12)


def test_log_exp_round_trip(rng):
    for _ in range(200):
        T1 = random_spd_point(3, rng)
        T2 = random_spd_point(3, rng, spread=1.5)
        if spd.distance(T1, T2) > 10:
            continue
        V = spd.log_map(T1, T2)
        back = spd.geodesic(T1, V, 1.0)
        assert spd.distance(back, T2) < 1e-8
        assert spd.norm(T1, V) == pytest.approx(spd.distance(T1, T2), abs=1e-10)


def test_distance_axioms(rng):
    T1 = random_spd_point(3, rng)
    T2 = random_spd_point(3, rng)
    assert spd.distance(T1, T1) == pytest.approx(0.0, abs=1e-12)
    assert spd.distance(T1, T2) == pytest.approx(spd.distance(T2, T1), rel=1e-10)
    assert spd.distance(T1, T2) > 0


def test_distance_diagonal_value():
    d = spd.distance(np.eye(2), np.diag([np.e ** 2, np.e ** -2]))
    assert d == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_distance_congruence_invariance(rng):
    for _ in range(100):
        T1 = random_spd_point(3, rng)
        T2 = random_spd_point(3, rng)
        A = rng.standard_normal((3, 3))
        A = A / abs(np.linalg.det(A)) ** (1.0 / 3.0)
        d1 = spd.distance(T1, T2)
        d2 = spd.distance(spd.sym(A.T @ T1 @ A), spd.sym(A.T @ T2 @ A))
        assert d2 == pytest.approx(d1, abs=1e-8)


def test_project_tangent_examples():
    assert np.allclose(spd.project_tangent(np.eye(2), np.eye(2)), 0.0)
    V = np.diag([1.0, -1.0])
    assert np.allclose(spd.project_tangent(np.eye(2), V), V)
    T = np.diag([2.0, 0.5])
    W = spd.project_tangent(T, np.diag([1.0, 0.0]))
    assert np.allclose(W, np.diag([0.5, -0.125]), atol=1e-12)


def test_project_tangent_idempotent_and_valid(rng):
    T = random_spd_point(4, rng)
    M = rng.standard_normal((4, 4))
    W = spd.project_tangent(T, M)
    spd.check_tangent(T, W)
    assert np.allclose(spd.project_tangent(T, W), W, atol=1e-12)


def test_check_point_rejects_bad_inputs():
    with pytest.raises(ValueError):
        spd.check_point(np.diag([2.0, 1.0]))  # det != 1
    with pytest.raises(ValueError):
        spd.check_point(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        spd.check_point(np.diag([1.0, -1.0]))  # not positive definite
