"""The benchmark's workloads: inputs, operations and the correctness gate.

Each workload builds its inputs in ``setup`` and lists its operations in
``operations``; one pass runs every operation once.  ``check`` gives every
operation a verdict after the pass, outside the timed and traced region.

Seeds.  The data seeds default to the acceptance suite's (c06: 606, c08:
808, c07: 707, c09: 909, the spline set: 20240817); ``data_seed`` is added
to each of them to draw unseen data.  The instance ``seed`` then varies the
inputs while changing the work they take by little:

- cli_large and spline_set apply to their data a symmetry that fixes the
  descent's start point: a rotation of the half-plane about i (as the
  projective map x -> (c x - s) / (s x + c)) for one-dimensional data, and
  a rotation of R^4 for the c08 data.  The minimizers are equivariant, so
  the estimates map back onto the reference values, but the paths to them
  are not: the SPD and conformal fits standardize by coordinate-wise
  median and MAD, and spline.fit's uniform move averages the tangent
  coordinates of knots at different base points.  So iteration counts vary
  with the seed by a few percent (bench/README.md gives the spread).  A
  fresh draw would vary far more: over c06 seeds 606-611 the n=1 fit took
  22-31 iterations, and the spline set drawn from three seeds took 2.4k,
  2.5k and 19k iterations.
- mc_small adds the seed to the master seed of its c07 batch only.  The
  batch averages over 100 runs, so its cost varies little with the draw.
  The c09 and matrix batches keep their seeds: their gates are properties
  of their draws.

Seed 0 leaves the data as the acceptance suite draws it.
"""

import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

from cauchymle import cli, datasets, montecarlo, spline
from cauchymle.datasets import GeneratorSpec
from cauchymle.descent import DescentConfig
from cauchymle.halfspace import HPoint

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# agreement with the reference values recorded from the seed code:
# max |estimate - reference| <= REF_TOL * max(1, max |reference|).  The fits
# converge to gradient norm 1e-9, so their estimates repeat to ~1e-9.
REF_TOL = 1e-6
# a spline fit stops at gradient norm 1e-7; near the minimum the objective
# is quadratic, so its value repeats far more closely than the knots
SPLINE_REF_TOL = 1e-8
SPLINE_RESIDUAL_MAX = 1e-6

MAX_ANGLE = 0.1     # half-plane rotation drawn from [-MAX_ANGLE, MAX_ANGLE]

C06_SEED, C08_SEED = 606, 808
C08_MEAN = np.array([1.0, 2.0, 3.0, 4.0])
C08_COV = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 2.0],
                    [1.0, 2.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0]])
C06_WIDTH = (0.602, 0.622)
C08_TOL = 0.05

SPLINE_SEED = 20240817
SPLINE_PROBLEMS = 20
SPLINE_SMOKE = (0, 2, 5, 12, 17)      # quick problems of the set
SPLINE_CONFIG = dict(tol=1e-7, max_iters=20000)


def instance_symmetry(seed):
    """(angle, 4x4 rotation) the instance seed applies; seed 0 is the identity."""
    if seed == 0:
        return 0.0, np.eye(4)
    rng = np.random.default_rng([seed, 2311])
    theta = float(rng.uniform(-MAX_ANGLE, MAX_ANGLE))
    Q, R = np.linalg.qr(rng.standard_normal((4, 4)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return theta, Q


def rotate_boundary(x, theta):
    """Boundary action x -> (c x - s) / (s x + c) of the rotation about i."""
    c, s = math.cos(theta), math.sin(theta)
    return (c * x - s) / (s * x + c)


def rotate_point(z, theta):
    """The same rotation acting on a half-plane point z = u + i v."""
    c, s = math.cos(theta), math.sin(theta)
    return (c * z - s) / (s * z + c)


def close(value, ref, tol=REF_TOL):
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.max(np.abs(value - ref)) <= tol * max(1.0, np.max(np.abs(ref))))


def load_reference():
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text())
    return {}


class Workload:
    """Common state: sizes, seeds, the recorded reference for this instance."""

    name = None

    def __init__(self, seed=0, data_seed=0, smoke=False, reference=None):
        self.seed = seed
        self.data_seed = data_seed
        self.smoke = smoke
        self.theta, self.rotation = instance_symmetry(seed)
        mode = "smoke" if smoke else "full"
        ref = (reference if reference is not None else load_reference())
        self._references = ref.get(mode, {}).get(self.name, {})

    def reference_key(self, op):
        """Key of the recorded reference that applies to op's inputs."""
        return self.data_seed

    def reference(self, op):
        """Recorded estimates for op, or None when none apply."""
        return self._references.get(str(self.reference_key(op)), {}).get(op)

    def setup(self, workdir):
        raise NotImplementedError

    def operations(self):
        """[(op name, zero-argument callable)] for one pass."""
        raise NotImplementedError

    def check(self, op, output):
        """(items, failed items, [problems]) for one operation's output."""
        raise NotImplementedError

    def items(self, op):
        """Items an operation attempts: fits for a batch, otherwise one."""
        return 1

    def estimates(self, op, output):
        """Base-frame estimates of one operation, as recorded in the reference."""
        raise NotImplementedError


class CliLarge(Workload):
    """Four user commands through ``cli.main`` on CSV files written in set-up."""

    name = "cli_large"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n1 = 20_000 if self.smoke else 1_000_000
        self.n4 = 5_000 if self.smoke else 100_000

    def setup(self, workdir):
        self.workdir = Path(workdir)
        x = datasets.generate(GeneratorSpec(
            kind="gaussian", sample_size=self.n1, seed=C06_SEED + self.data_seed))
        self.csv1 = self.workdir / "c06.csv"
        datasets.write_dataset(str(self.csv1), rotate_boundary(x, self.theta),
                               "univariate")
        y = datasets.generate(GeneratorSpec(
            kind="gaussian_nd", sample_size=self.n4,
            seed=C08_SEED + self.data_seed,
            mean_vector=C08_MEAN, covariance=C08_COV))
        self.csv4 = self.workdir / "c08.csv"
        datasets.write_dataset(str(self.csv4), y @ self.rotation.T,
                               "multivariate")

    def operations(self):
        commands = {
            "fit1d": ["fit1d", "--input", str(self.csv1)],
            "fit_n1": ["fit", "--family", "cauchy", "--input", str(self.csv1)],
            "fit_n4": ["fit", "--family", "cauchy", "--input", str(self.csv4)],
            "fit_conformal": ["fit", "--family", "conformal",
                              "--input", str(self.csv4)],
        }
        return [(op, self._command(op, argv)) for op, argv in commands.items()]

    def _command(self, op, argv):
        out = self.workdir / f"{op}.json"

        def run():
            if out.exists():
                out.unlink()
            code = cli.main(argv + ["--output", str(out)])
            return code, out
        return run

    @staticmethod
    def _read(output):
        code, path = output
        doc = json.loads(Path(path).read_text()) if Path(path).is_file() else None
        return code, doc

    def estimates(self, op, output):
        _, doc = self._read(output)
        if op == "fit1d":
            z = rotate_point(complex(doc["location"][0], doc["scale"]), -self.theta)
            return {"u": z.real, "v": z.imag}
        if op == "fit_n1":
            z = complex(doc["location"][0], math.sqrt(doc["scatter"][0][0]))
            z = rotate_point(z, -self.theta)
            return {"u": z.real, "v": z.imag}
        R = self.rotation
        b = R.T @ np.asarray(doc["location"], dtype=float)
        if op == "fit_n4":
            S = R.T @ np.asarray(doc["scatter"], dtype=float) @ R
            S = S / np.linalg.det(S) ** (1.0 / S.shape[0])
            return {"location": b.tolist(), "scatter": S.tolist()}
        return {"location": b.tolist(), "scale": doc["scale"]}

    def check(self, op, output):
        code, doc = self._read(output)
        if code != 0 or doc is None or doc.get("status") != "converged":
            status = doc.get("status") if doc else None
            return 1, 1, [f"exit code {code}, status {status}"]
        est = self.estimates(op, output)
        problems = []
        if not self.smoke:
            problems += self._acceptance(op, est)
        ref = self.reference(op)
        if ref is not None:
            for key, val in est.items():
                if not close(val, ref[key]):
                    problems.append(f"{key} {val} differs from reference {ref[key]}")
        return 1, int(bool(problems)), problems

    @staticmethod
    def _acceptance(op, est):
        if op in ("fit1d", "fit_n1"):
            lo, hi = C06_WIDTH
            if not lo <= est["v"] <= hi:
                return [f"c06 width {est['v']:.5f} outside [{lo}, {hi}]"]
        if op == "fit_n4":
            b = np.asarray(est["location"])
            S = np.asarray(est["scatter"])
            S = S * (np.linalg.det(C08_COV) / np.linalg.det(S)) ** 0.25
            out = []
            if np.abs(b - C08_MEAN).max() >= C08_TOL:
                out.append(f"c08 location error {np.abs(b - C08_MEAN).max():.4f}")
            if np.abs((S - C08_COV) / C08_COV).max() >= C08_TOL:
                out.append("c08 scatter error "
                           f"{np.abs((S - C08_COV) / C08_COV).max():.4f}")
            return out
        return []


MC_BATCHES = {
    # op: (generator keywords, runs, smoke runs)
    "mc_mixture": (dict(kind="mixture", seed=707, weights=(0.9, 0.1),
                        components=((0.0, 1.0), (100.0, 100.0))), 100, 10),
    "mc_illcond": (dict(kind="mixture", seed=909, weights=(0.5, 0.5),
                        components=((0.0, 10.0), (300.0, 1.0))), 10, 2),
    "mc_matrix": (dict(kind="matrix_standard", seed=3, rows=2, cols=2), 10, 2),
}
MC_SIZE = 1000
C07_MEAN_U_MAX = 0.1
C07_MEAN_V = (0.6, 0.9)
C09_ILL_SHARE = 0.8


class McSmall(Workload):
    """Three ``run_mc`` batches at N=1000: c07, c09 and the 2x2 matrix family."""

    name = "mc_small"

    def reference_key(self, op):
        # the c09 and matrix gates are properties of their draws (master
        # seed 939 flags 7 of 10 c09 runs; matrix seed 41 has a run that
        # does not converge), so the instance seed varies c07 only
        return self.data_seed + (self.seed if op == "mc_mixture" else 0)

    def setup(self, workdir):
        self.specs = {}
        for op, (kw, runs, smoke_runs) in MC_BATCHES.items():
            kw = dict(kw, seed=kw["seed"] + self.reference_key(op),
                      sample_size=MC_SIZE)
            self.specs[op] = (GeneratorSpec(**kw), smoke_runs if self.smoke else runs)

    def operations(self):
        return [(op, self._batch(spec, runs))
                for op, (spec, runs) in self.specs.items()]

    def items(self, op):
        return self.specs[op][1]

    @staticmethod
    def _batch(spec, runs):
        return lambda: montecarlo.run_mc(spec, runs)

    def estimates(self, op, summary):
        if op == "mc_illcond":
            return None  # stopped unconverged by design: no estimate to compare
        return {col: summary.aggregates[col]["mean"] for col in summary.columns}

    def check(self, op, summary):
        rows = summary.rows
        must_converge = op == "mc_matrix"
        bad = [r for r in rows if r["status"] == "error"
               or (must_converge and r["status"] != "converged")]
        problems = [f"{len(bad)} runs raised or did not converge"] if bad else []
        # a wrong batch answer fails every run of the batch
        batch = []
        est = self.estimates(op, summary)
        if op == "mc_illcond":
            ill = summary.status_counts.get("ill_conditioned", 0)
            if ill < C09_ILL_SHARE * len(rows):
                batch.append(f"c09: {ill} of {len(rows)} runs ill_conditioned")
        elif op == "mc_mixture" and not self.smoke:
            lo, hi = C07_MEAN_V
            if not (abs(est["u"]) < C07_MEAN_U_MAX and lo <= est["v"] <= hi):
                batch.append(f"c07: mean u {est['u']:.4f}, mean v {est['v']:.4f}")
        ref = self.reference(op)
        if est is not None and ref is not None and not (
                est.keys() == ref.keys()
                and close([est[k] for k in ref], [ref[k] for k in ref])):
            batch.append(f"estimates {est} differ from reference {ref}")
        n_failed = len(rows) if batch else len(bad)
        return len(rows), n_failed, problems + batch


class SplineSet(Workload):
    """The 20 spline problems of the junction-residual test (rng 20240817)."""

    name = "spline_set"

    def setup(self, workdir):
        rng = np.random.default_rng(SPLINE_SEED + self.data_seed)
        self.problems = {}
        self.base_problems = {}
        for i in range(SPLINE_PROBLEMS):
            k = int(rng.integers(2, 7))
            ts = np.sort(rng.uniform(0, 5, size=k)) + np.arange(k) * 0.5
            xs = rng.standard_normal(k) * 2
            alpha = float(np.exp(rng.uniform(-1.5, 2.5)))
            if self.smoke and i not in SPLINE_SMOKE:
                continue
            op = f"problem{i:02d}"
            self.base_problems[op] = spline.SplineProblem.from_pairs(ts, xs, alpha)
            self.problems[op] = spline.SplineProblem.from_pairs(
                ts, rotate_boundary(xs, self.theta), alpha)

    def operations(self):
        config = DescentConfig(**SPLINE_CONFIG)
        return [(op, self._fit(problem, config))
                for op, problem in self.problems.items()]

    @staticmethod
    def _fit(problem, config):
        return lambda: spline.fit(problem, config)

    def estimates(self, op, solution):
        # Some problems have a flat valley of minimizers (two observations
        # and a stiff penalty), where the knots depend on the frame; the
        # minimum value does not.  The objective of the knots mapped back
        # into the base frame is compared.
        knots = [rotate_point(complex(z.b[0], z.a), -self.theta)
                 for z in solution.values]
        values = [HPoint(z.imag, [z.real]) for z in knots]
        return {"objective": spline.objective(self.base_problems[op], values)}

    def check(self, op, solution):
        status = solution.report.status.value
        if status != "converged":
            return 1, 1, [f"status {status}"]
        problems = []
        res = max(spline.junction_residuals(self.problems[op], solution.values))
        if not res < SPLINE_RESIDUAL_MAX:
            problems.append(f"junction residual {res:.2e}")
        ref = self.reference(op)
        if ref is not None:
            got = self.estimates(op, solution)["objective"]
            if not close(got, ref["objective"], SPLINE_REF_TOL):
                problems.append(f"objective {got!r} differs from the reference "
                                f"{ref['objective']!r}")
        return 1, int(bool(problems)), problems


WORKLOADS = {w.name: w for w in (CliLarge, McSmall, SplineSet)}
MC_REFERENCE_SEEDS = 100


def run_pass(workload, tracer=None):
    """Run every operation once; returns (wall seconds, [(op, seconds, output)]).

    An operation that raises yields its exception as output, which the gate
    counts as failed.
    """
    results = []
    start = time.perf_counter()
    for op, call in workload.operations():
        t0 = time.perf_counter()
        try:
            output = call() if tracer is None else tracer.call(f"op.{op}", call)
        except Exception as exc:  # the verdict records it; the pass goes on
            output = exc
        results.append((op, time.perf_counter() - t0, output))
    return time.perf_counter() - start, results


def gate(workload, results):
    """Verdicts for one pass: (items, failed items, {op: [problems]})."""
    items = failed = 0
    verdicts = {}
    for op, _, output in results:
        if isinstance(output, Exception):
            n = bad = workload.items(op)
            problems = [f"raised {type(output).__name__}: {output}"]
        else:
            try:
                n, bad, problems = workload.check(op, output)
            except Exception as exc:  # a malformed output is a wrong answer
                n = bad = workload.items(op)
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        items += n
        failed += bad
        verdicts[op] = problems
    return items, failed, verdicts


def record_reference(root):
    """Rewrite reference.json with the estimates of the code under test.

    Records seed 0 of every workload at full and smoke size, and the
    mc_small batches for instance seeds 0..MC_REFERENCE_SEEDS-1.  Refuses
    to record an operation that fails the acceptance checks.
    """
    workdir = make_workdir(root)
    ref = {}
    try:
        for mode in ("full", "smoke"):
            for name, cls in WORKLOADS.items():
                seeds = range(MC_REFERENCE_SEEDS) if name == "mc_small" else [0]
                entries = {}
                for seed in seeds:
                    wl = cls(seed, 0, mode == "smoke", reference={})
                    wl.setup(workdir)
                    results = [(op, 0.0, call()) for op, call in wl.operations()
                               if op not in entries.get(str(wl.reference_key(op)), {})]
                    _, failed, verdicts = gate(wl, results)
                    if failed:
                        raise RuntimeError(f"{name} seed {seed}: {verdicts}")
                    for op, _, out in results:
                        est = wl.estimates(op, out)
                        if est is not None:
                            entries.setdefault(str(wl.reference_key(op)), {})[op] = est
                    print(f"recorded {mode} {name} seed {seed}", flush=True)
                ref.setdefault(mode, {})[name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def make_workdir(root):
    """Working directory for one run's files, inside the checkout."""
    base = Path(root) / "bench" / "out"
    base.mkdir(parents=True, exist_ok=True)
    path = base / f"work-{os.getpid()}"
    path.mkdir(exist_ok=True)
    return path
