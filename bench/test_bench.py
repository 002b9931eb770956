"""Tests of the benchmark itself: tracer arithmetic, gate, result line.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run as harness  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, package_modules  # noqa: E402

from cauchymle import cauchy, spline  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def traced_pass(name, workdir, seed=0):
    """Smoke workload traced over its set-up and one pass."""
    wl = workloads.WORKLOADS[name](seed, 0, smoke=True)
    tracer = Tracer(layers.LAYERS)
    with tracer:
        wl.setup(workdir)
        _, results = workloads.run_pass(wl, tracer)
    return wl, tracer, results


def test_self_time_plus_children_is_span_time():
    tracer = Tracer()

    def outer():
        time.sleep(0.002)
        tracer.call("inner", lambda: time.sleep(0.003))
        tracer.call("inner", lambda: tracer.call("leaf", lambda: time.sleep(0.001)))

    tracer.call("outer", outer)
    dur, own = tracer.self_times()
    _, start, end, parent = tracer.arrays()
    assert list(parent) == [-1, 0, 0, 2]
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert own[2] == pytest.approx(dur[2] - dur[3], abs=1e-12)
    assert own[0] >= 0.002 and own[1] >= 0.003
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["total_s"] == pytest.approx(dur[1] + dur[2])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_the_roots(name, workdir):
    _, tracer, _ = traced_pass(name, workdir)
    dur, own = tracer.self_times()
    _, _, _, parent = tracer.arrays()
    assert np.all(own >= -1e-9)
    children = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                           minlength=dur.size)
    np.testing.assert_allclose(own + children, dur, rtol=0, atol=1e-12)
    # only layers and the op.* roots have spans, and every second of the
    # roots is the self time of one of them
    summary = tracer.summary()
    assert all(n in layers.LAYERS or n.startswith("op.") for n in summary)
    reported = sum(summary.get(n, {"self_s": 0.0})["self_s"] for n in layers.LAYERS)
    reported += sum(s["self_s"] for n, s in summary.items() if n.startswith("op."))
    assert reported == pytest.approx(dur[parent < 0].sum(), rel=1e-9)


def test_every_layer_is_a_package_function():
    _, modules = package_modules()
    for layer in layers.LAYERS:
        module, function = layer.split(".")
        assert inspect.isfunction(getattr(modules[module], function, None)), layer


def test_tracer_wraps_where_the_caller_looks_up_and_restores():
    original = cauchy.fit_univariate
    tracer = Tracer(layers.LAYERS)
    with tracer:
        # spline imported fit_univariate by name; that reference is wrapped too
        assert spline.fit_univariate is not original
        assert cauchy.fit_univariate is spline.fit_univariate
    assert cauchy.fit_univariate is original
    assert spline.fit_univariate is original


def test_counts_repeat_exactly(workdir):
    wl = workloads.McSmall(0, 0, smoke=True)
    wl.setup(workdir)
    stats = []
    for _ in range(2):
        tracer = Tracer(layers.LAYERS)
        with tracer:
            workloads.run_pass(wl, tracer)
        stats.append(layers.pass_stats(tracer))
    assert layers.repeat_exactly(stats)
    values = layers.metrics(stats[0], stats[1:], [1.0], [1.0])
    assert values["descent.iterations"]["value"] > 0
    assert values["descent.trials"]["value"] == (
        values["descent.iterations"]["value"]
        + values["descent.backtracks"]["value"])
    assert set(values) == set(layers.names())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_passes_the_gate_on_other_seeds(name, workdir):
    wl = workloads.WORKLOADS[name](7, 0, smoke=True)
    wl.setup(workdir)
    _, results = workloads.run_pass(wl)
    assert all(wl.reference(op) is not None for op, _, out in results
               if wl.estimates(op, out) is not None)
    items, failed, verdicts = workloads.gate(wl, results)
    assert items > 0
    assert failed == 0, verdicts


def test_wrong_answer_counts_as_failed(workdir, monkeypatch):
    real = cauchy.fit_univariate

    def off_by_a_bit(data, config=None):
        (u, v), report = real(data, config)
        return (u + 1e-3, v), report

    monkeypatch.setattr(cauchy, "fit_univariate", off_by_a_bit)
    wl = workloads.CliLarge(0, 0, smoke=True)
    wl.setup(workdir)
    _, results = workloads.run_pass(wl)
    items, failed, verdicts = workloads.gate(wl, results)
    assert (items, failed) == (4, 1)
    assert verdicts["fit1d"] and not verdicts["fit_n1"]


def test_raising_operation_counts_as_failed(workdir, monkeypatch):
    def broken(problem, config=None):
        raise FloatingPointError("diverged")

    monkeypatch.setattr(spline, "fit", broken)
    wl = workloads.SplineSet(0, 0, smoke=True)
    wl.setup(workdir)
    _, results = workloads.run_pass(wl)
    items, failed, _ = workloads.gate(wl, results)
    assert items == failed == len(workloads.SPLINE_SMOKE)


def test_result_line_format(capsys):
    assert harness.main(["--workload", "mc_small", "--smoke",
                         "--seconds", "0", "--seed", "3"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(last)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == layers.names()
