import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cauchymle import cauchy, datasets, montecarlo
from cauchymle.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_fit1d_three_point(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("0\n1\ninf\n")
    code, out = run_cli(["fit1d", "--input", str(path)], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["family"] == "cauchy1d"
    assert doc["status"] == "converged"
    assert doc["location"][0] == pytest.approx(0.5, abs=1e-6)
    assert doc["scale"] == pytest.approx(math.sqrt(3) / 2, abs=1e-6)
    assert doc["final_grad_norm"] < 1e-9


def test_fit1d_hands_the_fit_an_array(tmp_path, capsys, monkeypatch):
    # a file without "inf" rows never becomes a list of Python floats
    seen = []
    fit_univariate = cauchy.fit_univariate
    monkeypatch.setattr(cauchy, "fit_univariate",
                        lambda data, config: seen.append(type(data))
                        or fit_univariate(data, config))
    path = tmp_path / "data.csv"
    path.write_text("0\n1\n-1.5\n2\n")
    code, out = run_cli(["fit1d", "--input", str(path)], capsys)
    assert code == 0 and seen == [np.ndarray]
    path.write_text("0\n1\ninf\n")
    code, out = run_cli(["fit1d", "--input", str(path)], capsys)
    assert code == 0 and seen[1] is list


def test_fit_multivariate(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((200, 2))
    path = tmp_path / "d.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data))
    code, out = run_cli(["fit", "--family", "cauchy", "--input", str(path),
                         "--scatter-det", "1.0"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["n"] == 2
    assert len(doc["location"]) == 2
    assert np.asarray(doc["scatter"]).shape == (2, 2)
    resc = np.asarray(doc["scatter_rescaled"])
    assert np.linalg.det(resc) == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("value", ["-2", "0", "nan", "inf"])
def test_scatter_det_must_be_positive_and_finite(tmp_path, capsys, value):
    path = tmp_path / "d.csv"
    path.write_text("0,1\n1,0\n-1,2\n2,2\n")
    code = main(["fit", "--family", "cauchy", "--input", str(path),
                 "--scatter-det", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--scatter-det" in captured.err


def test_fit_matrix_family(tmp_path, capsys):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((300, 2, 2))
    path = tmp_path / "m.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in obs.ravel())
                              for obs in data))
    code, out = run_cli(["fit", "--family", "matrix", "--input", str(path),
                         "--rows", "2", "--cols", "2"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["m"] == 2
    assert np.asarray(doc["location"]).shape == (2, 2)
    assert np.asarray(doc["row_scatter"]).shape == (2, 2)
    assert np.asarray(doc["col_scatter"]).shape == (2, 2)


def test_fit_conformal(tmp_path, capsys):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((500, 2))
    path = tmp_path / "c.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data))
    code, out = run_cli(["fit", "--family", "conformal", "--input", str(path)],
                        capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["family"] == "conformal"
    assert doc["scale"] > 0


def test_fit_four_dimensional_report_shape(tmp_path, capsys):
    rng = np.random.default_rng(12)
    mu = np.array([1.0, 2.0, 3.0, 4.0])
    data = rng.standard_normal((2000, 4)) + mu
    path = tmp_path / "d4.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                              for row in data))
    out_path = tmp_path / "report.json"
    code = main(["fit", "--family", "cauchy", "--input", str(path),
                 "--scatter-det", "1.0", "--output", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert np.asarray(doc["scatter"]).shape == (4, 4)
    assert np.asarray(doc["scatter_rescaled"]).shape == (4, 4)
    assert np.abs(np.asarray(doc["location"]) - mu).max() < 0.2
    assert doc["iterations"] == len(doc["grad_norm_trace"]) - 1


def test_exit_code_degenerate(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0\n0\n1\n")
    code, out = run_cli(["fit1d", "--input", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["status"] == "degenerate_data"


def test_fit1d_accepts_a_point_repeated_on_fewer_than_half(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("0\n0\n1\n2\n3\n")
    code, out = run_cli(["fit1d", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "converged"


@pytest.fixture
def offset_csv(tmp_path):
    # neighbours about 1e-4 apart at 1e5 are distinct points, although
    # their lifted rows agree to about 1e-14 up to scale
    x = 1e5 + np.random.default_rng(46).standard_normal(20000)
    path = tmp_path / "offset.csv"
    path.write_text("\n".join(repr(float(v)) for v in x))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["fit1d"],
    ["fit1d", "--standardize"],
    ["fit", "--family", "cauchy", "--standardize"],
    ["fit", "--family", "cauchy"],
])
def test_offset_data_converge(offset_csv, capsys, argv):
    code, out = run_cli(argv + ["--input", offset_csv], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "converged"
    assert doc["location"][0] == pytest.approx(1e5, abs=0.05)


@pytest.mark.parametrize("argv", [
    ["fit1d", "--input", "{one}"],
    ["fit", "--family", "cauchy", "--input", "{two}"],
    ["fit", "--family", "conformal", "--input", "{two}"],
    ["fit", "--family", "matrix", "--rows", "2", "--cols", "1",
     "--input", "{two}"],
    ["mc", "--kind", "cauchy1d", "--runs", "3"],
])
def test_standardize_flag_changes_no_output(tmp_path, capsys, argv):
    # accepted for compatibility: every fit already runs in the data's
    # median/MAD frame
    x = 300.0 + 40.0 * np.random.default_rng(51).standard_normal((200, 2))
    files = {}
    for name, columns in (("one", x[:, :1]), ("two", x)):
        files[name] = str(tmp_path / f"{name}.csv")
        np.savetxt(files[name], columns, delimiter=",", fmt="%.17g")
    argv = [arg.format(**files) for arg in argv]
    docs = []
    for flag in ([], ["--standardize"]):
        code, out = run_cli(argv + flag, capsys)
        assert code == 0
        docs.append(json.loads(out))
        docs[-1].pop("wall_time", None)
    assert docs[0] == docs[1]


def test_exit_code_ill_conditioned(tmp_path, capsys):
    rng = np.random.default_rng(3)
    data = np.concatenate([rng.standard_normal(500) * 10,
                           300.0 + rng.standard_normal(500)])
    path = tmp_path / "bimodal.csv"
    path.write_text("\n".join(repr(float(v)) for v in data))
    code, out = run_cli(["fit1d", "--input", str(path)], capsys)
    assert code == 2
    assert json.loads(out)["status"] == "ill_conditioned"


def test_exit_code_usage_error(capsys):
    code = main(["fit"])  # missing --input
    assert code == 1


def test_exit_code_malformed_input(tmp_path, capsys):
    path = tmp_path / "mal.csv"
    path.write_text("1.0\nwat\n")
    code = main(["fit1d", "--input", str(path)])
    assert code == 1


def test_inf_rejected_outside_univariate(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("1,inf\n")
    code = main(["fit", "--family", "cauchy", "--input", str(path)])
    assert code == 1


def test_simulate_round_trip(tmp_path, capsys):
    out_path = tmp_path / "sim.csv"
    code = main(["simulate", "--kind", "cauchy1d", "--u", "2.0", "--v", "0.5",
                 "--size", "50", "--seed", "7", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 50
    code2 = main(["simulate", "--kind", "cauchy1d", "--u", "2.0", "--v", "0.5",
                  "--size", "50", "--seed", "7", "--out", str(tmp_path / "b.csv")])
    assert (tmp_path / "b.csv").read_text() == out_path.read_text()


def test_simulate_to_stdout(capsys):
    code, out = run_cli(["simulate", "--kind", "gaussian", "--size", "5",
                         "--seed", "1"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 5


@pytest.mark.parametrize("args, spec", [
    (["--kind", "cauchy1d", "--size", "40"],
     datasets.GeneratorSpec("cauchy1d", 40, seed=4)),
    (["--kind", "gaussian_nd", "--size", "30", "--mean-vector", "1,-2",
      "--cov", "2,0.5;0.5,1"],
     datasets.GeneratorSpec("gaussian_nd", 30, seed=4,
                            mean_vector=np.array([1.0, -2.0]),
                            covariance=np.array([[2.0, 0.5], [0.5, 1.0]])))])
def test_simulate_prints_each_value_as_its_repr(capsys, args, spec):
    # the writer streams to standard output the lines it writes to a file:
    # repr of every value, comma-separated, one observation per line
    code, out = run_cli(["simulate", "--seed", "4", *args], capsys)
    assert code == 0
    data = datasets.generate(spec)
    assert out == "".join(",".join(map(repr, row)) + "\n"
                          for row in data.reshape(len(data), -1).tolist())


def test_mc_output_and_table(tmp_path, capsys):
    table = tmp_path / "runs.csv"
    out_doc = tmp_path / "summary.json"
    code = main(["mc", "--kind", "gaussian", "--size", "300", "--seed", "11",
                 "--runs", "5", "--table", str(table),
                 "--output", str(out_doc)])
    assert code == 0
    doc = json.loads(out_doc.read_text())
    assert doc["runs"] == 5
    assert "u" in doc["aggregates"] and "v" in doc["aggregates"]
    lines = table.read_text().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("run,status,iterations")


def test_mc_json_names_the_error_of_a_failed_run(tmp_path, monkeypatch):
    prepare = montecarlo._prepare
    calls = iter(range(10))

    def flaky(spec, data):
        if next(calls) == 2:
            raise FloatingPointError("diverged")
        return prepare(spec, data)

    monkeypatch.setattr(montecarlo, "_prepare", flaky)
    out_doc = tmp_path / "summary.json"
    code = main(["mc", "--kind", "cauchy1d", "--size", "200", "--seed", "4",
                 "--runs", "3", "--output", str(out_doc)])
    assert code == 0
    doc = json.loads(out_doc.read_text())
    assert doc["errors"] == {"2": "FloatingPointError: diverged"}
    assert doc["status_counts"] == {"converged": 2, "error": 1}
    assert set(doc) == {"family", "runs", "seed", "aggregates",
                        "status_counts", "errors"}


def test_mc_json_errors_empty_without_failures(tmp_path):
    out_doc = tmp_path / "summary.json"
    assert main(["mc", "--kind", "cauchy1d", "--size", "200", "--seed", "4",
                 "--runs", "2", "--output", str(out_doc)]) == 0
    assert json.loads(out_doc.read_text())["errors"] == {}


def test_mc_byte_identical_reruns(tmp_path):
    args = ["mc", "--kind", "mixture", "--components", "0.9:0:1,0.1:100:100",
            "--size", "200", "--seed", "5", "--runs", "4"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_regress_command(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text("0,-1\n1,1\n")
    code, out = run_cli(["regress", "--input", str(path), "--alpha", "1.0",
                         "--tol", "1e-8", "--max-iters", "5000"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["family"] == "spline"
    assert len(doc["knots"]) == 2
    assert doc["knots"][0]["u"] == pytest.approx(-doc["knots"][1]["u"], abs=1e-5)
    assert max(doc["junction_residuals"]) < 1e-7


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_regress_alpha_must_be_positive_and_finite(tmp_path, capsys, value):
    path = tmp_path / "r.csv"
    path.write_text("0,-1\n1,1\n")
    code = main(["regress", "--input", str(path), "--alpha", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--alpha" in captured.err


@pytest.mark.parametrize("flag", [["--step", "safe"], ["--standardize"]])
def test_regress_rejects_flags_the_spline_does_not_read(tmp_path, capsys,
                                                        flag):
    path = tmp_path / "r.csv"
    path.write_text("0,-1\n1,1\n")
    code = main(["regress", "--input", str(path), "--alpha", "1.0", *flag])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "d.csv"],
    ["fit1d", "--input", "d.csv"],
    ["mc", "--kind", "cauchy1d", "--runs", "2"],
])
def test_unknown_step_policy_is_a_usage_error(capsys, argv):
    code = main([*argv, "--step", "improved"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "argument --step: invalid choice: 'improved'" in captured.err


def test_check_grad_command(tmp_path, capsys):
    code, out = run_cli(["check-grad", "--family", "cauchy", "--n", "2",
                         "--trials", "25"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["max_rel_error"] < 1e-5


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cauchymle", "check-grad", "--family",
         "conformal", "--n", "1", "--trials", "10"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


SCIPY_FREE = textwrap.dedent("""
    import importlib.abc
    import sys

    class NoScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")

    sys.meta_path.insert(0, NoScipy())
    import numpy as np
    from cauchymle import cauchy, cli, conformal, matrix_cauchy, spline
    from cauchymle.gradcheck import check_gradients
    rng = np.random.default_rng(0)
    cauchy.fit(cauchy.lift(rng.standard_normal((50, 2))))
    matrix_cauchy.fit(matrix_cauchy.lift(rng.standard_normal((50, 2, 2))), 2, 2)
    conformal.fit(rng.standard_normal((50, 2)), 2)
    cauchy.fit_univariate(rng.standard_cauchy(50))
    assert check_gradients("cauchy", n=2, trials=3)["passed"]
    assert cli.main(["fit1d", "--input", sys.argv[1]]) == 0
    assert cli.main(["regress", "--input", sys.argv[2], "--alpha", "1.0"]) == 0
    ts, xs = range(300), rng.standard_cauchy(300)
    fit = spline.fit(spline.SplineProblem.from_pairs(ts, xs, 1.0))
    assert fit.report.status.value == "converged"
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded[:3]
""")


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter in which any scipy import fails: the fits, the
    # gradient check, fit1d, regress and a spline fit whose Newton solves
    # run the cyclic reduction all work on numpy alone
    (tmp_path / "x.csv").write_text("0\n1\n-1.5\n2\n3\n")
    (tmp_path / "r.csv").write_text("0,-1\n1,1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE, str(tmp_path / "x.csv"),
         str(tmp_path / "r.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_usage_error_exit_code_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cauchymle", "fit", "--family", "bogus"],
        capture_output=True, text=True)
    assert proc.returncode == 1


REPORT_KEYS = {"family", "n", "m", "status", "iterations", "final_grad_norm",
               "loss_trace", "grad_norm_trace"}


@pytest.mark.parametrize("argv, text, extra", [
    (["fit1d"], "0\n1\ninf\n", {"location", "scale"}),
    (["fit", "--family", "cauchy"], "0,1\n1,0\n-1,2\n2,2\n",
     {"location", "scatter"}),
    (["fit", "--family", "conformal"], "0,1\n1,0\n-1,2\n2,2\n",
     {"location", "scale"}),
    (["regress", "--alpha", "1.0"], "0,-1\n1,1\n",
     {"alpha", "knots", "junction_residuals", "objective"}),
])
def test_fit_commands_report_wall_time(tmp_path, capsys, argv, text, extra):
    path = tmp_path / "d.csv"
    path.write_text(text)
    _, out = run_cli(argv + ["--input", str(path)], capsys)
    doc = json.loads(out)
    # additive: every earlier key stays
    assert REPORT_KEYS | extra | {"wall_time", "loss_evals", "backtracks",
                                  "hessian_min_eig"} == set(doc)
    assert isinstance(doc["wall_time"], float) and doc["wall_time"] >= 0.0
