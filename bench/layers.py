"""Per-layer metrics from the traced run.

A layer is a public function of a ``cauchymle`` module named in
``LAYERS``; the traced run wraps only these, so the time of every other
function counts in the self time of the nearest layer that calls it.  For
each layer the traced run reports ``<layer>.calls`` and ``<layer>.self_s``
over one traced set-up plus one traced pass; self times are the median
over the run's traced passes.  Solver counts come from the FitReports the
wrapped engines return and from the spans: a trial is one geodesic (or
exp map) step that a descent engine tries, and an accepted trial is one
iteration.
"""

import statistics

from tracing import DESCENT_ENGINES, TRIAL_STEPS

LAYERS = (
    "cli.main",
    "datasets.parse_dataset", "datasets.generate", "datasets.write_dataset",
    "cauchy.lift_univariate", "cauchy.lift", "cauchy.check_general_position",
    "cauchy.loss", "cauchy.loss_grad", "cauchy.fit_univariate", "cauchy.fit",
    "conformal.fit",
    "matrix_cauchy.loss", "matrix_cauchy.grad", "matrix_cauchy.fit",
    "spd.geodesic", "spd.norm", "spd.project_tangent", "spd.condition_number",
    "halfspace.exp_map", "halfspace.log_map", "halfspace.distance",
    "halfspace.busemann", "halfspace.busemann_grad",
    "descent.minimize_on_spd", "descent.minimize_on_halfspace",
    "spline.fit", "spline.objective",
    "montecarlo.run_mc",
)

# name: (unit, better) for the metrics that are not per-layer calls/self_s
SOLVER = {
    "descent.iterations": ("count", "lower"),
    "descent.loss_evals": ("count", "lower"),
    "descent.trials": ("count", "lower"),
    "descent.backtracks": ("count", "lower"),
    "descent.accept_ratio": ("ratio", "higher"),
    "spline.iterations": ("count", "lower"),
    "spline.objective_calls_per_iteration": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def names():
    """Every per-layer metric: name -> (unit, better)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out.update(SOLVER)
    return out


def pass_stats(tracer):
    """(per-layer summary, counts) of one traced set-up or pass."""
    summary = tracer.summary()
    calls = {layer: summary.get(layer, {}).get("calls", 0) for layer in LAYERS}
    calls["descent.trials"] = tracer.child_calls(TRIAL_STEPS, DESCENT_ENGINES)
    for key in ("descent.iterations", "descent.loss_evals", "spline.iterations"):
        calls[key] = tracer.counters[key]
    calls["trace.spans"] = len(tracer.start)
    return summary, calls


def metrics(setup, passes, untraced_walls, traced_walls):
    """Per-layer metric dict ({name: {"value", "unit"}}) of one traced run.

    setup and each of passes are ``pass_stats`` of a traced set-up and of
    the traced passes.
    """
    setup_summary, setup_counts = setup
    summaries = [s for s, _ in passes]
    counts = {k: setup_counts[k] + v for k, v in passes[-1][1].items()}
    values = {}
    for layer in LAYERS:
        setup_self = setup_summary.get(layer, {}).get("self_s", 0.0)
        values[f"{layer}.calls"] = counts[layer]
        values[f"{layer}.self_s"] = setup_self + statistics.median(
            s.get(layer, {}).get("self_s", 0.0) for s in summaries)
    trials = counts["descent.trials"]
    iters = counts["descent.iterations"]
    values["descent.iterations"] = iters
    values["descent.loss_evals"] = counts["descent.loss_evals"]
    values["descent.trials"] = trials
    values["descent.backtracks"] = trials - iters
    values["descent.accept_ratio"] = iters / trials if trials else 0.0
    values["spline.iterations"] = counts["spline.iterations"]
    values["spline.objective_calls_per_iteration"] = (
        counts["spline.objective"] / counts["spline.iterations"]
        if counts["spline.iterations"] else 0.0)
    untraced = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    values["trace.overhead_s"] = traced - untraced
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced
    values["trace.spans"] = counts["trace.spans"]
    units = names()
    return {name: {"value": values[name], "unit": units[name][0]}
            for name in units}


def repeat_exactly(passes):
    """True when every traced pass made the same calls and iterations."""
    return all(counts == passes[0][1] for _, counts in passes)
