"""Monte Carlo harness: repeated synthetic fits with reproducible seeding.

Each run r of a batch samples a fresh dataset from the generator using the
split stream SeedSequence(master_seed, spawn_key=(r,)) and fits it.  The
per-run estimate table and the aggregate statistics depend only on the
master seed and the configuration, never on scheduling, and failures of
individual runs are recorded as statuses, with the exception type and
message in the run's "error" field (and in the summary's "errors"),
rather than aborting the batch.
"""

from dataclasses import dataclass, field

import numpy as np

from . import cauchy, matrix_cauchy
from .datasets import generate
from .descent import DescentConfig


@dataclass
class McSummary:
    """Per-run estimates plus aggregate mean/stddev for every quantity."""

    family: str
    runs: int
    seed: int
    columns: list
    rows: list = field(default_factory=list)      # one dict per run
    aggregates: dict = field(default_factory=dict)
    status_counts: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "family": self.family,
            "runs": self.runs,
            "seed": self.seed,
            "aggregates": self.aggregates,
            "status_counts": self.status_counts,
            "errors": {row["run"]: row["error"] for row in self.rows
                       if "error" in row},
        }

    def table_csv(self):
        header = ["run", "status", "iterations", "grad_norm"] + self.columns
        lines = [",".join(header)]
        for row in self.rows:
            cells = [str(row["run"]), row["status"], str(row["iterations"]),
                     repr(row["grad_norm"])]
            # a run that raised has no estimates: its cells stay empty
            cells += [repr(float(row[c])) if c in row else ""
                      for c in self.columns]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _family_for(spec):
    if spec.kind in ("gaussian", "cauchy1d", "mixture"):
        return "cauchy1d"
    if spec.kind == "gaussian_nd":
        return "cauchy"
    return "matrix"


def _estimate_columns(spec):
    family = _family_for(spec)
    if family == "cauchy1d":
        return ["u", "v"]
    if family == "cauchy":
        n = np.asarray(spec.mean_vector).size
        cols = [f"b{i + 1}" for i in range(n)]
        cols += [f"S{i + 1}{j + 1}" for i in range(n) for j in range(i, n)]
        return cols
    n, m = spec.rows, spec.cols
    cols = [f"B{i + 1}{j + 1}" for i in range(n) for j in range(m)]
    return cols


def _fit_one(spec, data, config):
    family = _family_for(spec)
    if family == "cauchy1d":
        (u, v), report = cauchy.fit_univariate(np.asarray(data), config)
        return {"u": u, "v": v}, report
    if family == "cauchy":
        lifted = cauchy.lift(np.asarray(data))
        T, report = cauchy.fit(lifted, config)
        params = cauchy.to_params(T)
        n = params.location.size
        est = {f"b{i + 1}": float(params.location[i]) for i in range(n)}
        for i in range(n):
            for j in range(i, n):
                est[f"S{i + 1}{j + 1}"] = float(params.scatter[i, j])
        return est, report
    frames = matrix_cauchy.lift(data)
    T, report = matrix_cauchy.fit(frames, spec.cols, spec.rows, config)
    B, _, _ = matrix_cauchy.to_params(T, spec.rows, spec.cols)
    est = {f"B{i + 1}{j + 1}": float(B[i, j])
           for i in range(spec.rows) for j in range(spec.cols)}
    return est, report


def run_mc(spec, runs, config=None):
    """Fit `runs` independent datasets drawn from the generator spec.

    Returns an McSummary with one table row per run, aggregate mean/std of
    every estimated quantity (plus iteration counts), and status counts.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    config = config or DescentConfig()
    summary = McSummary(family=_family_for(spec), runs=runs, seed=spec.seed,
                        columns=_estimate_columns(spec))
    for r in range(runs):
        data = generate(spec, run_index=r)
        row = {"run": r, "status": "error", "iterations": 0,
               "grad_norm": float("nan")}
        try:
            est, report = _fit_one(spec, data, config)
            row.update(est)
            row["status"] = report.status.value
            row["iterations"] = report.iterations
            row["grad_norm"] = report.final_grad_norm
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        summary.rows.append(row)
        summary.status_counts[row["status"]] = (
            summary.status_counts.get(row["status"], 0) + 1)
    for col in summary.columns + ["iterations"]:
        vals = np.array([row[col] for row in summary.rows if col in row],
                        dtype=float)
        if vals.size:
            summary.aggregates[col] = {"mean": float(np.mean(vals)),
                                       "std": float(np.std(vals))}
    return summary
