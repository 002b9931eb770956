"""In-memory span tracer that wraps the package's layer functions.

A layer is a public function ``<module>.<function>`` of a ``cauchymle``
module.  ``Tracer.install`` replaces each layer it is given, in every
package module that holds a reference to it, with a wrapper that records
one span: name, start, end and parent.  Replacing the reference where the
caller looks it up covers both ``spd.geodesic(...)`` and names bound by
``from .descent import minimize_on_spd``.  Functions that are not layers
(other public functions, private helpers, closures and methods) are not
wrapped; their time counts as self time of the nearest wrapped caller, so
the self times of the spans add up to the time of the root spans.

Spans stay in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its children; calls are sequential in one
thread, so children never overlap.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

# Descent engines: their loss callback is counted, their FitReport read.
DESCENT_ENGINES = ("descent.minimize_on_spd", "descent.minimize_on_halfspace")
# Steps tried by a descent engine: one geodesic (or exp map) per trial.
TRIAL_STEPS = ("spd.geodesic", "halfspace.exp_map")


def package_modules(package="cauchymle"):
    """The package's modules keyed by short name (``cauchy``, ``spd``, ...)."""
    pkg = importlib.import_module(package)
    mods = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name.startswith("_"):
            continue
        mods[info.name] = importlib.import_module(f"{package}.{info.name}")
    return pkg, mods


class Tracer:
    """Records spans of wrapped package calls; install, run, uninstall.

    ``layers`` names the functions to wrap, as ``<module>.<function>``.
    """

    def __init__(self, layers=(), package="cauchymle"):
        self._pkg, self._modules = package_modules(package)
        self.layers = frozenset(layers)
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = []
        self.counters = Counter()
        self._patches = []

    # -- recording -------------------------------------------------------

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        nid = self._nid(name)
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _wrap_engine(self, name, fn):
        # count loss evaluations and add up the FitReport iterations
        sig = inspect.signature(fn)
        counters = self.counters

        def count_calls(loss_fn):
            def counted(*a, **k):
                counters["descent.loss_evals"] += 1
                return loss_fn(*a, **k)
            return counted

        @functools.wraps(fn)
        def engine(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if "loss_fn" in bound.arguments:
                bound.arguments["loss_fn"] = count_calls(bound.arguments["loss_fn"])
            result = fn(*bound.args, **bound.kwargs)
            counters["descent.iterations"] += result[1].iterations
            return result

        return self._wrap(name, engine)

    def _wrap_spline_fit(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def spline_fit(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters["spline.iterations"] += result.report.iterations
            return result

        return self._wrap(name, spline_fit)

    def call(self, name, fn):
        """Call fn() inside a span of the given name (the benchmark's own spans)."""
        return self._wrap(name, fn)()

    # -- patching --------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short, mod in self._modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (name not in self.layers or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if name in DESCENT_ENGINES:
                    wrapped[obj] = self._wrap_engine(name, obj)
                elif name == "spline.fit":
                    wrapped[obj] = self._wrap_spline_fit(name, obj)
                else:
                    wrapped[obj] = self._wrap(name, obj)
        for mod in [self._pkg, *self._modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, start ns, end ns, parent index."""
        # copies: a live view would stop the arrays from growing
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.start, dtype=np.int64),
                np.array(self.end, dtype=np.int64),
                np.array(self.parent, dtype=np.int32))

    def self_times(self):
        """Per-span (duration, self time) in seconds."""
        _, start, end, parent = self.arrays()
        dur = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return dur, dur - child

    def summary(self):
        """Per layer name: {"calls", "total_s", "self_s"}."""
        name_id, _, _, _ = self.arrays()
        dur, own = self.self_times()
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        total = np.bincount(name_id, weights=dur, minlength=n)
        selfs = np.bincount(name_id, weights=own, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def child_calls(self, child_names, parent_names):
        """How many spans named in child_names have a parent in parent_names."""
        name_id, _, _, parent = self.arrays()
        kids = np.isin(name_id, [self._ids[c] for c in child_names if c in self._ids])
        par_ids = [self._ids[p] for p in parent_names if p in self._ids]
        has_parent = kids & (parent >= 0)
        return int(np.isin(name_id[parent[has_parent]], par_ids).sum())

    def write(self, path):
        """Write the spans and the name table to an .npz file."""
        name_id, start, end, parent = self.arrays()
        np.savez(path, name_id=name_id, start_ns=start, end_ns=end,
                 parent=parent, names=np.array(self.names, dtype=str))

