"""Benchmark harness for cauchymle: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cli_large --seed 0 --seconds 25 --trace 0

One process drives the package from outside as a closed loop: each
operation starts after the previous one returned.  A run sets up its
inputs, then repeats passes over the workload's operations for up to
``--seconds``: at least one pass, and another only if one as long as the
last fits the time left.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones.  Every operation
gets a verdict from the correctness gate.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

``--smoke`` shrinks every workload to seconds.  ``--record-reference``
rewrites bench/reference.json from the code under test.
"""

import os

# pin BLAS before anything imports numpy: one thread, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 3
IMPORT_PROBES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cauchymle; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("cli_large", "mc_small", "spline_set"))
    p.add_argument("--seed", type=int, default=0,
                   help="instance seed; 0 is the acceptance-suite data")
    p.add_argument("--data-seed", type=int, default=0,
                   help="added to every acceptance data seed to draw unseen data")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure passes for up to this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes: every workload, gate and trace in seconds")
    p.add_argument("--record-reference", action="store_true",
                   help="record the reference estimates of every workload")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_reference:
        p.error("--workload is required")
    return args


def import_package():
    """Import cauchymle from src/ of this checkout, not from anywhere else."""
    if not (SRC / "cauchymle" / "__init__.py").is_file():
        raise ImportError(f"no cauchymle package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cauchymle
    if Path(cauchymle.__file__).resolve().parent != SRC / "cauchymle":
        raise ImportError(f"cauchymle imported from {cauchymle.__file__}")


def probe_import():
    """Seconds to import cauchymle in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip())


# -- environment -----------------------------------------------------------

def _openblas(module):
    """(config, threads) of the OpenBLAS bundled with numpy or scipy."""
    libdir = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        found = {}
        for key, suffixes in (("config", ("get_config64_", "get_config")),
                              ("threads", ("get_num_threads64_",
                                           "get_num_threads"))):
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in suffixes:
                    fn = getattr(lib, prefix + suffix, None)
                    if fn is not None and key not in found:
                        fn.argtypes = []
                        fn.restype = ctypes.c_char_p if key == "config" else ctypes.c_int
                        found[key] = fn()
        if found:
            config = found.get("config")
            return {"library": Path(path).name,
                    "config": config.decode() if config else None,
                    "threads": found.get("threads")}
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cauchymle").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "numpy_openblas": _openblas(numpy),
                 "scipy_openblas": _openblas(scipy),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, gate, make_workdir, run_pass

    workload = WORKLOADS[args.workload](args.seed, args.data_seed, args.smoke)
    workdir = make_workdir(ROOT)
    report = {"workload": args.workload, "seed": args.seed,
              "data_seed": args.data_seed, "smoke": args.smoke,
              "trace": args.trace, "seconds": args.seconds}
    try:
        setup_times = []
        if args.trace:
            tracer = Tracer(layers.LAYERS)
            with tracer:
                workload.setup(workdir)
            setup_stats = layers.pass_stats(tracer)
        else:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup(workdir)
                setup_times.append(time.perf_counter() - t0)
        attempted = failed = 0
        op_times = {}
        walls, traced_walls, pass_stats = [], [], []
        verdicts = {}
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            wall, results = run_pass(workload)
            if not walls:
                # later passes only add allocator growth that depends on
                # how many passes fit the run
                peak_rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            walls.append(wall)
            passes = [results]
            for op, seconds, _ in results:
                op_times.setdefault(op, []).append(seconds)
            if args.trace:
                tracer = Tracer(layers.LAYERS)
                with tracer:
                    wall, results = run_pass(workload, tracer)
                traced_walls.append(wall)
                pass_stats.append(layers.pass_stats(tracer))
                passes.append(results)
            for results in passes:
                n, bad, v = gate(workload, results)
                attempted += n
                failed += bad
                for op, problems in v.items():
                    verdicts.setdefault(op, []).extend(problems)
            # start another pass only if one as long as this fits the time left
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        report["passes"] = len(walls)
        report["peak_rss_mib"] = peak_rss_mib
        report["op_median_s"] = {op: statistics.median(t) for op, t in op_times.items()}
        report["failed_frac"] = failed / attempted
        report["verdicts"] = {op: sorted(set(p)) or "ok" for op, p in verdicts.items()}
        if args.trace:
            metrics = layers.metrics(setup_stats, pass_stats, walls, traced_walls)
            report["counts_repeat"] = layers.repeat_exactly(pass_stats)
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"trace_{args.workload}.npz")
            report["layers"] = {k: v["value"] for k, v in metrics.items()}
        else:
            import_times = [probe_import() for _ in range(IMPORT_PROBES)]
            report["setup"] = {"import_s": import_times, "data_s": setup_times}
            metrics = {
                "wall_s": _metric(statistics.median(walls), "s"),
                "setup_s": _metric(statistics.median(import_times)
                                   + statistics.median(setup_times), "s"),
                "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
            }
        report["wall_s"] = walls
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return attempted, failed, metrics, report


def print_report(env, report, metrics):
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"data seed {report['data_seed']}  passes {report['passes']}"
          + ("  (smoke)" if report["smoke"] else ""))
    for op, seconds in report["op_median_s"].items():
        verdict = report["verdicts"][op]
        print(f"  {op + '_s':<18} {seconds:10.4f} s   "
              f"{'ok' if verdict == 'ok' else 'FAIL: ' + '; '.join(verdict)}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  gate: failed_frac {report['failed_frac']:.4g}")


def main(argv=None):
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        import workloads
        workloads.record_reference(ROOT)
        return 0
    env = environment()
    attempted, failed, metrics, report = run(args)
    report["env"] = env
    report["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "trace" if args.trace else "e2e"
    (OUT / f"result_{args.workload}_{suffix}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_report(env, report, metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
