"""Monte Carlo harness: repeated synthetic fits with reproducible seeding.

Each run r of a batch samples a fresh dataset from the generator using the
split stream SeedSequence(master_seed, spawn_key=(r,)) and fits it.  The
per-run estimate table and the aggregate statistics depend only on the
master seed and the configuration, never on scheduling, and failures of
individual runs are recorded as statuses, with the exception type and
message in the run's "error" field (and in the summary's "errors"),
rather than aborting the batch.  The runs are fit in batches of about
BATCH_DATA data, each batch in one lockstep descent that gives every run
the answer of its own fit: `conformal.fit_batch` for the univariate
kinds, and `matrix_cauchy`'s batch for the `gaussian_nd` and matrix
kinds, whose runs are written into one column copy as they are drawn.
"""

from dataclasses import dataclass, field

import numpy as np

from . import cauchy, conformal, matrix_cauchy
from .datasets import generate
from .descent import DescentConfig

# the runs fit together hold about this many data, all at once: on 100
# univariate runs at N = 1000, batches of 32 took 32 ms against 25 ms for
# one batch of 100, and raised the process's peak memory 0.6 MiB less
BATCH_DATA = 2**15


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


def _prepare(spec, data):
    """One univariate run's data as `conformal.fit_batch` takes them;
    raises on data it cannot fit."""
    return conformal._split_data(np.asarray(data), 1)


def _draw(spec, rows):
    """The runs of rows, drawn one at a time and prepared for their fit.

    Returns the rows of the runs that can be fit and their inputs: the
    univariate runs' (F, n_inf) pairs, or the frames (k, m, p, N) of the
    other runs in `matrix_cauchy._fit`'s column layout, each written there
    by `matrix_cauchy._write_batch` as it is drawn.  A run whose data
    cannot be fit gets its error in its row.
    """
    drawn = (generate(spec, run_index=row["run"]) for row in rows)
    if _family_for(spec) == "cauchy1d":
        inputs, errors = [], []
        for data in drawn:
            try:
                inputs.append(_prepare(spec, data))
            except Exception as exc:
                errors.append(exc)
                continue
            errors.append(None)
    else:
        inputs, errors = matrix_cauchy._write_batch(drawn, len(rows))
    kept = []
    for row, exc in zip(rows, errors):
        if exc is None:
            kept.append(row)
        else:
            row["error"] = f"{type(exc).__name__}: {exc}"
    return kept, inputs


def _fit(spec, inputs, config):
    """(estimates, report) of each prepared run, all of them in one batch."""
    family = _family_for(spec)
    if family == "cauchy1d":
        return [({"u": float(z.b[0]), "v": float(z.a)}, report)
                for z, report in conformal.fit_batch(inputs, 1, config)]
    n = inputs.shape[2] - inputs.shape[1]
    fits = []
    for T, report in matrix_cauchy._fit(inputs, n, config):
        if family == "cauchy":
            params = cauchy.to_params(T)
            values = [*params.location,
                      *params.scatter[np.triu_indices(len(params.location))]]
        else:
            B, _, _ = matrix_cauchy.to_params(T, spec.rows, spec.cols)
            values = B.ravel()
        # in the order of `_estimate_columns`
        fits.append((dict(zip(_estimate_columns(spec), map(float, values))),
                     report))
    return fits


def _fit_isolated(spec, rows, config):
    """Draw the runs of rows and fit them in one batch, each run's outcome
    in its row.  Should the batch raise, each run is drawn again and fit
    alone, so that only a run at fault has the exception as its error: a
    batch that raised may have left its copy of the data half
    standardized, so the runs are not fit again from it.
    """
    kept, inputs = _draw(spec, rows)
    try:
        fits = _fit(spec, inputs, config) if kept else []
    except Exception as exc:
        if len(kept) == 1:
            kept[0]["error"] = f"{type(exc).__name__}: {exc}"
        else:
            for row in kept:
                _fit_isolated(spec, [row], config)
        return
    for row, (est, report) in zip(kept, fits):
        row.update(est)
        row["status"] = report.status.value
        row["iterations"] = report.iterations
        row["grad_norm"] = report.final_grad_norm


def run_mc(spec, runs, config=None):
    """Fit `runs` independent datasets drawn from the generator spec.

    Returns an McSummary with one table row per run, aggregate mean/std of
    every estimated quantity (plus iteration counts), and status counts.
    The runs are fit in batches of about BATCH_DATA data, each one descent
    with the answers of the runs' own fits: `conformal.fit_batch` for the
    univariate runs, `matrix_cauchy`'s batch for the others, from their
    observations with no lifted copy.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    config = config or DescentConfig()
    summary = McSummary(family=_family_for(spec), runs=runs, seed=spec.seed,
                        columns=_estimate_columns(spec))
    size = max(1, BATCH_DATA // spec.sample_size)
    for first in range(0, runs, size):
        rows = [{"run": r, "status": "error", "iterations": 0,
                 "grad_norm": float("nan")}
                for r in range(first, min(first + size, runs))]
        summary.rows += rows
        _fit_isolated(spec, rows, config)
    for row in summary.rows:
        summary.status_counts[row["status"]] = (
            summary.status_counts.get(row["status"], 0) + 1)
    for col in summary.columns + ["iterations"]:
        vals = np.array([row[col] for row in summary.rows if col in row],
                        dtype=float)
        if vals.size:
            summary.aggregates[col] = {"mean": float(np.mean(vals)),
                                       "std": float(np.std(vals))}
    return summary
