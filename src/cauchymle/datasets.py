"""Synthetic dataset generators and CSV dataset files.

Generators are deterministic given a seed.  Monte Carlo batches derive the
seed of run r from a master seed through numpy's splittable scheme
SeedSequence(master, spawn_key=(r,)), so runs are reproducible
independently of execution order.

Dataset files are headerless CSV, one observation per row:

  univariate   one float per row; the token "inf" (case-insensitive)
               denotes the boundary point at infinity
  multivariate n comma-separated floats per row
  matrix       an n x m observation flattened row-major
  regression   two columns t, x
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .halfspace import INFINITY, is_infinity

GENERATOR_KINDS = ("gaussian", "cauchy1d", "mixture", "gaussian_nd",
                   "matrix_standard")
WRITE_CHUNK = 2**16
# characters per block of the scan that decides how a named file is parsed
SCAN_BLOCK = 2**16


class DataFormatError(ValueError):
    """A dataset file row could not be parsed."""


@dataclass
class GeneratorSpec:
    """What to sample: a distribution kind, its parameters, a size, a seed."""

    kind: str
    sample_size: int
    seed: int = 0
    mean: float = 0.0                      # gaussian
    sd: float = 1.0                        # gaussian
    u: float = 0.0                         # cauchy1d center
    v: float = 1.0                         # cauchy1d width
    weights: tuple = ()                    # mixture
    components: tuple = ()                 # mixture: (mean, sd) pairs
    mean_vector: np.ndarray = None         # gaussian_nd
    covariance: np.ndarray = None          # gaussian_nd
    rows: int = 0                          # matrix_standard n
    cols: int = 0                          # matrix_standard m

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if self.kind == "cauchy1d" and not self.v > 0:
            raise ValueError("cauchy width v must be positive")
        if self.kind == "gaussian" and not self.sd > 0:
            raise ValueError("gaussian sd must be positive")
        if self.kind == "mixture":
            w = np.asarray(self.weights, dtype=float)
            if len(self.weights) != len(self.components) or len(w) == 0:
                raise ValueError("mixture needs matching weights and components")
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("mixture weights must be nonnegative and sum to 1")
            if any(len(c) != 2 or not c[1] > 0 for c in self.components):
                raise ValueError("mixture components are (mean, sd) with sd > 0")
        if self.kind == "gaussian_nd":
            mu = np.asarray(self.mean_vector, dtype=float)
            cov = np.asarray(self.covariance, dtype=float)
            if mu.ndim != 1 or cov.shape != (mu.size, mu.size):
                raise ValueError("gaussian_nd needs a mean vector and a matching "
                                 "covariance matrix")
            if np.any(np.linalg.eigvalsh(0.5 * (cov + cov.T)) <= 0):
                raise ValueError("covariance must be positive definite")
        if self.kind == "matrix_standard" and (self.rows < 1 or self.cols < 1):
            raise ValueError("matrix_standard needs rows >= 1 and cols >= 1")


def run_rng(seed, run_index=None):
    """Generator for a run: the master stream, or the split stream of run r."""
    if run_index is None:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(run_index,)))


def sample_cauchy(u, v, size, rng):
    """Inverse-CDF sampling: u + v tan(pi (U - 1/2))."""
    return u + v * np.tan(np.pi * (rng.random(size) - 0.5))


def sample_matrix_standard(n, m, size, rng):
    """Draw from the standard matrix-variate family (identity parameter).

    A (m+n) x m standard normal frame Z, conditioned on an invertible
    bottom m x m block, yields X = Z_top Z_bottom^-1.  All frames are drawn
    at once; the rare frames whose bottom block fails the determinant test
    are drawn again.
    """
    Z = rng.standard_normal((size, m + n, m))
    while True:
        singular = np.abs(np.linalg.det(Z[:, n:, :])) <= 1e-12
        if not singular.any():
            return Z[:, :n, :] @ np.linalg.inv(Z[:, n:, :])
        Z[singular] = rng.standard_normal((int(singular.sum()), m + n, m))


def generate(spec, run_index=None):
    """Sample a dataset; deterministic given (spec.seed, run_index)."""
    rng = run_rng(spec.seed, run_index)
    N = spec.sample_size
    if spec.kind == "gaussian":
        return spec.mean + spec.sd * rng.standard_normal(N)
    if spec.kind == "cauchy1d":
        return sample_cauchy(spec.u, spec.v, N, rng)
    if spec.kind == "mixture":
        w = np.asarray(spec.weights, dtype=float)
        which = rng.choice(len(w), size=N, p=w)
        draws = rng.standard_normal(N)
        means = np.array([c[0] for c in spec.components])
        sds = np.array([c[1] for c in spec.components])
        return means[which] + sds[which] * draws
    if spec.kind == "gaussian_nd":
        mu = np.asarray(spec.mean_vector, dtype=float)
        cov = np.asarray(spec.covariance, dtype=float)
        L = np.linalg.cholesky(0.5 * (cov + cov.T))
        return mu + rng.standard_normal((N, mu.size)) @ L.T
    if spec.kind == "matrix_standard":
        return sample_matrix_standard(spec.rows, spec.cols, N, rng)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def _write_rows(fh, arr):
    """Write a 2-d array to the text file fh as CSV, one line per row.

    %r of a Python float is its shortest exact round-trip text ("inf" for
    the point at infinity).  Each chunk of WRITE_CHUNK rows is written as
    soon as one % formats it from one tuple of its Python floats, which
    makes no string per value, so one chunk's floats and text are alive at
    a time.
    """
    line = ",".join(["%r"] * arr.shape[1]) + "\n"
    for start in range(0, arr.shape[0], WRITE_CHUNK):
        rows = arr[start:start + WRITE_CHUNK]
        fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def write_dataset(path, data, mode="multivariate"):
    """Write a dataset as headerless CSV (floats round-trip exactly).

    path is a file name or an open text file, such as sys.stdout.  The rows
    are written a chunk at a time, so the text of the whole file is never
    held in memory; returns None.
    """
    if mode == "univariate":
        try:
            arr = np.asarray(data, dtype=float)
        except TypeError:  # INFINITY among the values
            arr = np.array([math.inf if is_infinity(x) else float(x)
                            for x in data])
        arr = arr.reshape(len(arr), 1)
    elif mode == "multivariate":
        arr = np.atleast_2d(np.asarray(data, dtype=float))
    elif mode == "matrix":
        arr = np.asarray(data, dtype=float)
        arr = arr.reshape(arr.shape[0], -1)
    elif mode == "regression":
        arr = np.asarray(data, dtype=float)
        if arr.shape[1:] != (2,):
            raise ValueError(f"regression rows of shape {arr.shape[1:]}, "
                             "expected (t, x) pairs")
    else:
        raise ValueError(f"unknown dataset mode {mode!r}")
    if arr.ndim != 2:
        raise ValueError(f"cannot write data of shape {arr.shape} as rows")
    if hasattr(path, "write"):
        _write_rows(path, arr)
    else:
        with open(path, "w") as fh:
            _write_rows(fh, arr)


def _parse_float(tok, lineno):
    tok = tok.strip()
    try:
        val = float(tok)
    except ValueError:
        raise DataFormatError(f"line {lineno}: cannot parse {tok!r} as a number")
    if not math.isfinite(val):
        raise DataFormatError(f"line {lineno}: non-finite value {tok!r}")
    return val


# str.splitlines ends a line at these as well as at \n and \r; np.loadtxt
# does not, so on a file holding one it would join what the line reader splits
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def parse_dataset(path, mode="multivariate", rows=None, cols=None):
    """Read a dataset file.

    Returns a list (univariate: floats and INFINITY), an (N, n) array
    (multivariate), an (N, rows, cols) array (matrix), or a pair of arrays
    (t, x) in regression mode.  Malformed rows raise DataFormatError with
    their line number; "inf" is accepted only in univariate mode.

    A file of finite numbers with the right arity is read in one vectorised
    pass; any other file goes through the line reader, which decides what
    it holds and which line is wrong.  Both give bit-identical values.  A
    named file's text is held whole only by the line reader: the
    vectorised pass scans it a block at a time and then reads it by name.
    """
    data = _read(path, mode, rows, cols)
    if mode == "univariate":
        return data if isinstance(data, list) else data[:, 0].tolist()
    arr = np.asarray(data, dtype=float)
    if mode == "multivariate":
        return arr
    if mode == "matrix":
        return arr.reshape(-1, rows, cols)
    ts, xs = arr.T.copy()
    return ts, xs


def parse_univariate(path):
    """A univariate file as a 1-d float array, or a list when a row is "inf".

    The list is parse_dataset's, and so are the errors; a file of finite
    values skips the million-float list that parse_dataset builds.
    """
    data = _read(path, "univariate", None, None)
    if isinstance(data, list) and any(map(is_infinity, data)):
        return data
    return np.asarray(data, dtype=float).reshape(-1)


def _read(path, mode, rows, cols):
    """The file as one (N, columns) float array, or the line reader's records.

    A named file is scanned SCAN_BLOCK characters at a time, in text mode
    as the line reader reads it, and np.loadtxt reads it by name, faster
    than from a StringIO; its whole text is read only for the line reader.
    """
    if hasattr(path, "read"):
        text = path.read()
        arr = _parse_array([text], io.StringIO(text), mode, rows, cols)
    else:
        with open(path) as fh:
            blocks = iter(lambda: fh.read(SCAN_BLOCK), "")
            arr = _parse_array(blocks, path, mode, rows, cols)
            if arr is None:
                fh.seek(0)
                text = fh.read()
    return arr if arr is not None else _parse_lines(text, mode, rows, cols)


def _parse_array(blocks, source, mode, rows, cols):
    """The file as one (N, columns) float array, or None when it needs the line reader.

    blocks is the file's text in one or more pieces, and source what
    np.loadtxt reads it from.
    """
    # columns per row; -1 matches no file, so the line reader names the error
    widths = {"univariate": 1, "multivariate": None, "regression": 2,
              "matrix": rows * cols if rows and cols else -1}
    if mode not in widths:
        return None
    blank = True
    for block in blocks:
        if any(c in block for c in _OTHER_LINE_BREAKS):
            return None
        blank = blank and (not block or block.isspace())
    if blank:
        return None
    try:
        arr = np.loadtxt(source, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(arr).all() or widths[mode] not in (None, arr.shape[1]):
        return None
    return arr


def _parse_lines(text, mode, rows, cols):
    """The line reader: one record per row, errors with their line number."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split(",")
        if mode == "univariate":
            if len(toks) != 1:
                raise DataFormatError(f"line {lineno}: expected one column")
            tok = toks[0].strip()
            if tok.lower() == "inf":
                records.append(INFINITY)
            else:
                records.append(_parse_float(tok, lineno))
            continue
        if any(t.strip().lower() == "inf" for t in toks):
            raise DataFormatError(
                f"line {lineno}: 'inf' is only allowed in univariate mode")
        vals = [_parse_float(t, lineno) for t in toks]
        if mode == "multivariate":
            if records and len(vals) != len(records[0]):
                raise DataFormatError(f"line {lineno}: inconsistent arity")
            records.append(vals)
        elif mode == "matrix":
            if rows is None or cols is None:
                raise ValueError("matrix mode requires rows and cols")
            if len(vals) != rows * cols:
                raise DataFormatError(
                    f"line {lineno}: expected {rows * cols} values")
            records.append(vals)
        elif mode == "regression":
            if len(vals) != 2:
                raise DataFormatError(f"line {lineno}: expected two columns t,x")
            records.append(vals)
        else:
            raise ValueError(f"unknown dataset mode {mode!r}")
    if not records:
        raise DataFormatError("dataset is empty")
    return records
