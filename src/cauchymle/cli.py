"""Command-line interface: fitting, simulation, Monte Carlo batches, checks.

Subcommands
-----------
fit         fit a family (cauchy | conformal | matrix) to a CSV dataset
fit1d       univariate location/scale fit on the upper half-plane
regress     hyperbolic spline regression for (t, x) rows
simulate    write a synthetic dataset as CSV
mc          Monte Carlo batch: repeated generate-and-fit with aggregates
check-grad  validate analytic gradients against finite differences

Every command prints one JSON document with stable field names.  Exit
codes: 0 for a converged fit (or a passing check), 2 for ill-conditioned,
degenerate, or non-converged outcomes (or a failing check), 1 for usage
and input errors.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import cauchy, conformal, matrix_cauchy, spline
from .datasets import DataFormatError, GeneratorSpec, generate, parse_dataset, \
    parse_univariate, write_dataset
from .descent import STEP_POLICIES, DescentConfig, FitStatus
from .gradcheck import check_gradients
from .montecarlo import run_mc


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _positive_real(text):
    """argparse type: a finite number greater than zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _stop_flags(parser):
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--max-iters", type=int, default=200)


def _fit_flags(parser):
    parser.add_argument("--step", choices=STEP_POLICIES, default="backtracking")
    _stop_flags(parser)
    parser.add_argument("--standardize", action="store_true",
                        help="accepted for compatibility; every fit already "
                             "runs in the data's median/MAD frame")


def _generator_flags(parser):
    parser.add_argument("--kind", required=True,
                        choices=("gaussian", "cauchy1d", "mixture",
                                 "gaussian_nd", "matrix_standard"))
    parser.add_argument("--size", type=int, default=1000,
                        help="sample size per dataset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mean", type=float, default=0.0)
    parser.add_argument("--sd", type=float, default=1.0)
    parser.add_argument("--u", type=float, default=0.0)
    parser.add_argument("--v", type=float, default=1.0)
    parser.add_argument("--components", default="",
                        help="mixture as weight:mean:sd,weight:mean:sd,...")
    parser.add_argument("--mean-vector", default="",
                        help="comma-separated mean for gaussian_nd")
    parser.add_argument("--cov", default="",
                        help="covariance rows separated by ';' for gaussian_nd")
    parser.add_argument("--rows", type=int, default=0)
    parser.add_argument("--cols", type=int, default=0)


def _config_from(args):
    return DescentConfig(step_policy=args.step, tol=args.tol,
                         max_iters=args.max_iters)


def _spec_from(args):
    kwargs = {"kind": args.kind, "sample_size": args.size, "seed": args.seed}
    if args.kind == "gaussian":
        kwargs.update(mean=args.mean, sd=args.sd)
    elif args.kind == "cauchy1d":
        kwargs.update(u=args.u, v=args.v)
    elif args.kind == "mixture":
        weights, components = [], []
        for part in filter(None, args.components.split(",")):
            fields = part.split(":")
            if len(fields) != 3:
                raise _UsageError("mixture components must be weight:mean:sd")
            weights.append(float(fields[0]))
            components.append((float(fields[1]), float(fields[2])))
        kwargs.update(weights=tuple(weights), components=tuple(components))
    elif args.kind == "gaussian_nd":
        if not args.mean_vector or not args.cov:
            raise _UsageError("gaussian_nd requires --mean-vector and --cov")
        mu = np.array([float(x) for x in args.mean_vector.split(",")])
        cov = np.array([[float(x) for x in row.split(",")]
                        for row in args.cov.split(";")])
        kwargs.update(mean_vector=mu, covariance=cov)
    elif args.kind == "matrix_standard":
        kwargs.update(rows=args.rows, cols=args.cols)
    return GeneratorSpec(**kwargs)


def _emit(doc, path=None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _status_exit(status):
    return 0 if status is FitStatus.CONVERGED else 2


def _base_report(family, report, n, m=None):
    final = report.final_grad_norm
    return {
        "family": family,
        "n": n,
        "m": m,
        "status": report.status.value,
        "iterations": report.iterations,
        "final_grad_norm": final if np.isfinite(final) else None,
        "loss_trace": [float(x) for x in report.loss_trace],
        "grad_norm_trace": [float(x) for x in report.grad_norm_trace],
        "wall_time": report.wall_time,
        "loss_evals": report.loss_evals,
        "backtracks": report.backtracks,
        "hessian_min_eig": report.hessian_min_eig,
    }


def _cmd_fit(args):
    config = _config_from(args)
    if args.family == "matrix":
        if args.rows < 1 or args.cols < 1:
            raise _UsageError("matrix family requires --rows and --cols")
        # the parsed data are freed once the fit has its one copy of them
        T, report = matrix_cauchy.fit_observations(parse_dataset(
            args.input, "matrix", rows=args.rows, cols=args.cols), config)
        B, row_scatter, col_scatter = matrix_cauchy.to_params(
            T, args.rows, args.cols)
        doc = _base_report("matrix", report, args.rows, args.cols)
        doc["location"] = B.tolist()
        doc["row_scatter"] = row_scatter.tolist()
        doc["col_scatter"] = col_scatter.tolist()
    elif args.family == "conformal":
        data = parse_dataset(args.input, "multivariate")
        n = data.shape[1]
        z, report = conformal.fit(data, n, config)
        doc = _base_report("conformal", report, n)
        doc["location"] = z.b.tolist()
        doc["scale"] = z.a
    else:
        T, report = matrix_cauchy.fit_observations(
            parse_dataset(args.input, "multivariate"), config)
        n = T.shape[0] - 1
        params = cauchy.to_params(T)
        doc = _base_report("cauchy", report, n)
        doc["location"] = params.location.tolist()
        doc["scatter"] = params.scatter.tolist()
        if args.scatter_det is not None:
            det = np.linalg.det(params.scatter)
            scale = (args.scatter_det / det) ** (1.0 / n)
            doc["scatter_rescaled"] = (scale * params.scatter).tolist()
            doc["scatter_det"] = args.scatter_det
    _emit(doc, args.output)
    return _status_exit(report.status)


def _cmd_fit1d(args):
    config = _config_from(args)
    data = parse_univariate(args.input)
    (u, v), report = cauchy.fit_univariate(data, config)
    doc = _base_report("cauchy1d", report, 1)
    doc["location"] = [u]
    doc["scale"] = v
    _emit(doc, args.output)
    return _status_exit(report.status)


def _cmd_regress(args):
    # the spline takes the same Newton step under every policy, and no
    # fit reads --standardize, so regress reads only the stop rules
    config = DescentConfig(tol=args.tol, max_iters=args.max_iters)
    ts, xs = parse_dataset(args.input, "regression")
    problem = spline.SplineProblem.from_pairs(ts, xs, args.alpha)
    solution = spline.fit(problem, config)
    residuals = spline.junction_residuals(problem, solution.knots)
    doc = _base_report("spline", solution.report, 1)
    doc["alpha"] = args.alpha
    doc["knots"] = [{"t": t, "u": u, "v": v} for t, (v, u) in
                    zip(solution.times.tolist(), solution.knots.tolist())]
    doc["junction_residuals"] = residuals
    doc["objective"] = spline.objective(problem, solution.knots)
    _emit(doc, args.output)
    return _status_exit(solution.report.status)


def _cmd_simulate(args):
    spec = _spec_from(args)
    data = generate(spec)
    mode = {"matrix_standard": "matrix",
            "gaussian_nd": "multivariate"}.get(spec.kind, "univariate")
    write_dataset(args.out or sys.stdout, data, mode)
    return 0


def _cmd_mc(args):
    spec = _spec_from(args)
    config = _config_from(args)
    summary = run_mc(spec, args.runs, config)
    if args.table:
        with open(args.table, "w") as fh:
            fh.write(summary.table_csv())
    _emit(summary.to_dict(), args.output)
    return 0


def _cmd_check_grad(args):
    if args.family == "matrix":
        result = check_gradients("matrix", n=args.rows or args.n,
                                 m=args.cols or 1, trials=args.trials,
                                 seed=args.seed)
    else:
        result = check_gradients(args.family, n=args.n, trials=args.trials,
                                 seed=args.seed)
    _emit(result, args.output)
    return 0 if result["passed"] else 2


def build_parser():
    parser = _Parser(prog="cauchymle",
                     description="Robust location/scatter estimation with "
                                 "heavy-tailed families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a family to a CSV dataset")
    p.add_argument("--family", choices=("cauchy", "conformal", "matrix"),
                   default="cauchy")
    p.add_argument("--input", required=True)
    p.add_argument("--rows", type=int, default=0)
    p.add_argument("--cols", type=int, default=0)
    p.add_argument("--scatter-det", type=_positive_real, default=None,
                   help="also report the scatter rescaled to this determinant")
    p.add_argument("--output", default=None)
    _fit_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("fit1d", help="univariate location/scale fit")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    _fit_flags(p)
    p.set_defaults(func=_cmd_fit1d)

    p = sub.add_parser("regress", help="hyperbolic spline regression on t,x rows")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=_positive_real, required=True)
    p.add_argument("--output", default=None)
    _stop_flags(p)
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    _generator_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mc", help="Monte Carlo batch of generate-and-fit runs")
    _generator_flags(p)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--table", default=None,
                   help="write the per-run estimate table as CSV")
    _fit_flags(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("check-grad", help="finite-difference gradient check")
    p.add_argument("--family", choices=("cauchy", "conformal", "matrix"),
                   required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--rows", type=int, default=0)
    p.add_argument("--cols", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_check_grad)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
