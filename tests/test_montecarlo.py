import numpy as np
import pytest

from cauchymle import conformal, montecarlo
from cauchymle.datasets import GeneratorSpec
from cauchymle.descent import DescentConfig
from cauchymle.montecarlo import run_mc


def gaussian_spec(n=200, seed=0):
    return GeneratorSpec(kind="gaussian", sample_size=n, seed=seed)


def test_summary_shape_and_columns():
    s = run_mc(gaussian_spec(), runs=5)
    assert s.runs == 5
    assert len(s.rows) == 5
    assert s.columns == ["u", "v"]
    assert sum(s.status_counts.values()) == 5
    assert set(s.aggregates) == {"u", "v", "iterations"}


def test_deterministic_given_master_seed():
    a = run_mc(gaussian_spec(seed=42), runs=8)
    b = run_mc(gaussian_spec(seed=42), runs=8)
    assert a.rows == b.rows
    assert a.aggregates == b.aggregates
    c = run_mc(gaussian_spec(seed=43), runs=8)
    assert c.rows != a.rows


def test_runs_use_independent_samples():
    s = run_mc(gaussian_spec(), runs=6)
    us = [row["u"] for row in s.rows]
    assert len(set(us)) == 6


def test_normal_limit_estimates():
    spec = GeneratorSpec(kind="gaussian", sample_size=1000, seed=17)
    s = run_mc(spec, runs=100)
    assert abs(s.aggregates["u"]["mean"]) < 0.1
    assert 0.58 < s.aggregates["v"]["mean"] < 0.65


def test_multivariate_rows():
    mu = np.array([1.0, -1.0])
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = GeneratorSpec(kind="gaussian_nd", sample_size=400, seed=3,
                         mean_vector=mu, covariance=cov)
    s = run_mc(spec, runs=4)
    assert s.columns == ["b1", "b2", "S11", "S12", "S22"]
    assert abs(s.aggregates["b1"]["mean"] - 1.0) < 0.2


def test_matrix_rows():
    spec = GeneratorSpec(kind="matrix_standard", sample_size=500, seed=3,
                         rows=2, cols=2)
    s = run_mc(spec, runs=3)
    assert s.columns == ["B11", "B12", "B21", "B22"]
    for col in s.columns:
        assert abs(s.aggregates[col]["mean"]) < 0.2


def test_instability_flags_balanced_bimodal():
    spec = GeneratorSpec(kind="mixture", sample_size=1000, seed=21,
                         weights=(0.5, 0.5),
                         components=((0.0, 10.0), (300.0, 1.0)))
    s = run_mc(spec, runs=10)
    assert s.status_counts.get("ill_conditioned", 0) >= 8


def test_instability_separates_fresh_balanced_and_unbalanced_batches():
    # the Hessian verdict on master seeds the suite uses nowhere else: the
    # plateau rule it replaces flagged 48 of the 50 balanced runs and none
    # of the 50 unbalanced ones on these seeds
    flags = {}
    for weights in ((0.5, 0.5), (0.6, 0.4)):
        flags[weights] = sum(
            run_mc(GeneratorSpec(kind="mixture", sample_size=1000, seed=seed,
                                 weights=weights,
                                 components=((0.0, 10.0), (300.0, 1.0))),
                   runs=10).status_counts.get("ill_conditioned", 0)
            for seed in range(1101, 1106))
    assert flags[(0.5, 0.5)] >= 48
    assert flags[(0.6, 0.4)] == 0


def test_table_csv_layout():
    s = run_mc(gaussian_spec(), runs=3)
    text = s.table_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "run,status,iterations,grad_norm,u,v"
    assert len(lines) == 4


def test_config_is_respected():
    spec = gaussian_spec()
    s = run_mc(spec, runs=3, config=DescentConfig(max_iters=1))
    assert all(row["iterations"] <= 1 for row in s.rows)


def test_run_count_validation():
    with pytest.raises(ValueError):
        run_mc(gaussian_spec(), runs=0)


def test_failed_run_is_recorded_and_tabulated(monkeypatch):
    prepare = montecarlo._prepare
    calls = iter(range(10))

    def flaky(spec, data):
        if next(calls) == 1:
            raise RuntimeError("boom")
        return prepare(spec, data)

    monkeypatch.setattr(montecarlo, "_prepare", flaky)
    s = run_mc(GeneratorSpec(kind="cauchy1d", sample_size=200, seed=4), runs=3)
    assert s.rows[1]["status"] == "error"
    assert s.rows[1]["error"] == "RuntimeError: boom"
    assert "error" not in s.rows[0] and "error" not in s.rows[2]
    assert s.status_counts == {"converged": 2, "error": 1}
    assert s.aggregates["u"]["mean"] == pytest.approx(
        np.mean([s.rows[0]["u"], s.rows[2]["u"]]))
    lines = s.table_csv().strip().split("\n")
    assert lines[2] == "1,error,0,nan,,"
    assert len(lines[1].split(",")) == len(lines[0].split(","))


def test_run_with_non_finite_data_is_an_error_row_of_its_batch(monkeypatch):
    # the run is refused as it is prepared; the other runs fit in one batch,
    # each as it fits without it
    spec = GeneratorSpec(kind="cauchy1d", sample_size=200, seed=4)
    clean = run_mc(spec, runs=4)
    draw = montecarlo.generate

    def nan_in_run_1(spec, run_index=None):
        data = draw(spec, run_index=run_index)
        if run_index == 1:
            data[5] = np.nan
        return data

    batches = []
    fit_batch = conformal.fit_batch
    monkeypatch.setattr(montecarlo, "generate", nan_in_run_1)
    monkeypatch.setattr(conformal, "fit_batch", lambda members, *args:
                        batches.append(len(members)) or fit_batch(members, *args))
    s = run_mc(spec, runs=4)
    assert batches == [3]
    assert s.rows[1]["status"] == "error"
    assert s.rows[1]["error"] == (
        "ValueError: finite observations must have finite coordinates")
    assert s.status_counts == {"converged": 3, "error": 1}
    assert [s.rows[r] for r in (0, 2, 3)] == [clean.rows[r] for r in (0, 2, 3)]


def test_run_raising_inside_the_batch_fails_alone(monkeypatch):
    # a run that raises in the batch's fit: the runs are refit one by one,
    # so that only the run at fault becomes an error row
    spec = GeneratorSpec(kind="cauchy1d", sample_size=200, seed=4)
    clean = run_mc(spec, runs=4)
    bad = montecarlo.generate(spec, run_index=2)
    check = conformal.has_dominant_point

    def raises_on_run_2(F, n_inf):
        # a batch checks its members' data as one stack (B, N, 1)
        members = F.reshape(-1, *F.shape[-2:])
        if any(np.array_equal(X[:, 0], bad) for X in members):
            raise RuntimeError("boom")
        return check(F, n_inf)

    monkeypatch.setattr(conformal, "has_dominant_point", raises_on_run_2)
    s = run_mc(spec, runs=4)
    assert s.rows[2]["error"] == "RuntimeError: boom"
    assert s.status_counts == {"converged": 3, "error": 1}
    assert [s.rows[r] for r in (0, 1, 3)] == [clean.rows[r] for r in (0, 1, 3)]
