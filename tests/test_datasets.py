import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchymle import datasets as ds
from cauchymle.halfspace import INFINITY, is_infinity


def test_parse_univariate_with_infinity():
    text = io.StringIO("0\n1\ninf\n")
    vals = ds.parse_dataset(text, "univariate")
    assert vals[0] == 0.0 and vals[1] == 1.0
    assert is_infinity(vals[2])


def test_parse_univariate_infinity_case_insensitive():
    vals = ds.parse_dataset(io.StringIO("INF\nInf\n2.5\n"), "univariate")
    assert is_infinity(vals[0]) and is_infinity(vals[1])


def test_parse_multivariate_row():
    arr = ds.parse_dataset(io.StringIO("2,-3\n"), "multivariate")
    assert arr.shape == (1, 2)
    assert np.allclose(arr, [[2.0, -3.0]])


def test_parse_matrix_mode():
    arr = ds.parse_dataset(io.StringIO("1,0,0,1\n"), "matrix", rows=2, cols=2)
    assert arr.shape == (1, 2, 2)
    assert np.allclose(arr[0], np.eye(2))


def test_parse_regression_two_columns():
    ts, xs = ds.parse_dataset(io.StringIO("0,1.5\n1,-2\n"), "regression")
    assert np.allclose(ts, [0.0, 1.0])
    assert np.allclose(xs, [1.5, -2.0])


def test_parse_reports_line_numbers():
    with pytest.raises(ds.DataFormatError, match="line 2"):
        ds.parse_dataset(io.StringIO("1.0\nnot-a-number\n"), "univariate")


def test_parse_rejects_inconsistent_arity():
    with pytest.raises(ds.DataFormatError, match="line 2"):
        ds.parse_dataset(io.StringIO("1,2\n1,2,3\n"), "multivariate")


def test_parse_rejects_infinity_outside_univariate():
    with pytest.raises(ds.DataFormatError, match="univariate"):
        ds.parse_dataset(io.StringIO("1,inf\n"), "multivariate")
    with pytest.raises(ds.DataFormatError):
        ds.parse_dataset(io.StringIO("0,inf\n"), "regression")


def test_parse_rejects_wrong_matrix_arity():
    with pytest.raises(ds.DataFormatError, match="line 1"):
        ds.parse_dataset(io.StringIO("1,2,3\n"), "matrix", rows=2, cols=2)


def test_parse_empty_dataset():
    with pytest.raises(ds.DataFormatError):
        ds.parse_dataset(io.StringIO("\n\n"), "univariate")


def test_write_parse_round_trip_univariate(rng):
    data = list(rng.standard_normal(50)) + [INFINITY]
    buf = io.StringIO()
    ds.write_dataset(buf, data, "univariate")
    text = buf.getvalue()
    back = ds.parse_dataset(io.StringIO(text), "univariate")
    assert len(back) == len(data)
    for a, b in zip(data, back):
        if is_infinity(a):
            assert is_infinity(b)
        else:
            assert a == b  # exact float round trip


def test_write_parse_round_trip_multivariate(rng):
    data = rng.standard_normal((20, 3)) * 1e6
    buf = io.StringIO()
    ds.write_dataset(buf, data, "multivariate")
    text = buf.getvalue()
    back = ds.parse_dataset(io.StringIO(text), "multivariate")
    assert np.array_equal(back, data)


def test_write_parse_round_trip_matrix(rng):
    data = rng.standard_normal((5, 2, 3))
    buf = io.StringIO()
    ds.write_dataset(buf, data, "matrix")
    text = buf.getvalue()
    back = ds.parse_dataset(io.StringIO(text), "matrix", rows=2, cols=3)
    assert np.array_equal(back, data)


def _write_reference(data, mode):
    """The per-value loop: repr(float(x)) of every numpy scalar."""
    if mode == "univariate":
        lines = ["inf" if is_infinity(x) else repr(float(x)) for x in data]
    else:
        arr = np.asarray(data, dtype=float)
        lines = [",".join(repr(float(x)) for x in row.ravel())
                 for row in arr.reshape(arr.shape[0], -1)]
    return "\n".join(lines) + "\n"


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["univariate", "multivariate", "matrix", "regression"]),
       st.integers(1, 6), st.lists(FLOATS, min_size=1, max_size=40),
       st.booleans())
def test_write_dataset_matches_per_value_repr(mode, width, values, at_inf):
    width = {"univariate": 1, "matrix": 4, "regression": 2}.get(mode, width)
    rows = max(1, len(values) // width)
    arr = np.resize(np.asarray(values, dtype=float), rows * width)
    data = arr if mode == "univariate" else arr.reshape(rows, width)
    if mode == "matrix":
        data = data.reshape(rows, 2, 2)
    if mode == "univariate" and at_inf:
        data = list(data) + [INFINITY]
    buf = io.StringIO()
    ds.write_dataset(buf, data, mode)
    text = buf.getvalue()
    assert text == _write_reference(data, mode)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("mode", ["univariate", "multivariate"])
def test_chunked_writes_match_per_value_repr(rng, mode, extra):
    # the writer formats and writes WRITE_CHUNK rows at a time: the rows
    # around a chunk's end, and a point at infinity ending the first chunk
    N = ds.WRITE_CHUNK + extra
    if mode == "univariate":
        data = rng.standard_cauchy(N).tolist()
        data[min(N, ds.WRITE_CHUNK) - 1] = INFINITY
    else:
        data = rng.standard_normal((N, 3)) * 1e3
    buf = io.StringIO()
    ds.write_dataset(buf, data, mode)
    assert buf.getvalue() == _write_reference(data, mode)


def test_writer_holds_less_than_the_text(tmp_path):
    # one chunk's floats and text are alive at a time, not the file's text
    path = tmp_path / "d.csv"
    data = np.random.default_rng(5).standard_normal((4 * ds.WRITE_CHUNK, 3))
    tracemalloc.start()
    try:
        ds.write_dataset(str(path), data, "multivariate")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_parse_holds_less_than_the_file(tmp_path):
    # a named file is scanned a block at a time and then read by name, so
    # its text is never held whole
    rng = np.random.default_rng(6)
    wide, narrow = tmp_path / "d.csv", tmp_path / "u.csv"
    ds.write_dataset(str(wide), rng.standard_normal((4 * ds.WRITE_CHUNK, 3)))
    ds.write_dataset(str(narrow), rng.standard_normal(4 * ds.WRITE_CHUNK),
                     "univariate")
    for path, parse in [(wide, lambda: ds.parse_dataset(str(wide))),
                        (narrow, lambda: ds.parse_univariate(str(narrow)))]:
        tracemalloc.start()
        try:
            arr = parse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.size == arr.shape[0] * (3 if path is wide else 1)
        assert peak < path.stat().st_size


@pytest.mark.parametrize("brk", list(ds._OTHER_LINE_BREAKS))
@pytest.mark.parametrize("mode, line, last", [
    ("univariate", "0.25\n", "1.5{}2.5\n"),       # two records
    ("multivariate", "0.25,-4\n", "1.5,{}2.5\n"),  # an empty token
    ("regression", "0.25,-4\n", "1.5{}2.5,3\n"),   # a line of one column
])
def test_break_in_the_last_scan_block_goes_to_the_line_reader(
        tmp_path, brk, mode, line, last):
    # the scan of a named file sees a break in its last block: the file
    # gives the records or the error that its text gives through a StringIO
    body = line * (3 * ds.SCAN_BLOCK // len(line) + 1)
    text = body + last.format(brk)
    assert len(body) >= 3 * ds.SCAN_BLOCK and len(text) < 4 * ds.SCAN_BLOCK
    path = tmp_path / "d.csv"
    path.write_text(text, newline="")
    got = _outcome(lambda: ds.parse_dataset(str(path), mode))
    assert got == _outcome(lambda: ds.parse_dataset(io.StringIO(text), mode))
    assert got == _outcome(lambda: _line_reader(text, mode, None, None))


def test_parse_univariate_hands_back_an_array(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("0.5\n-2\n\n1e300\n")
    vals = ds.parse_univariate(str(path))
    assert isinstance(vals, np.ndarray) and vals.shape == (3,)
    assert vals.tolist() == ds.parse_dataset(str(path), "univariate")
    path.write_text("0.5\ninf\n")
    vals = ds.parse_univariate(str(path))
    assert vals[0] == 0.5 and is_infinity(vals[1])
    for bad in ("1\nx\n", "1,2\n", "\n", "nan\n"):
        path.write_text(bad)
        with pytest.raises(ds.DataFormatError) as want:
            ds.parse_dataset(str(path), "univariate")
        with pytest.raises(ds.DataFormatError) as got:
            ds.parse_univariate(str(path))
        assert str(got.value) == str(want.value)


def test_generate_deterministic_given_seed():
    spec = ds.GeneratorSpec(kind="cauchy1d", sample_size=100, seed=9, u=2.0,
                            v=0.5)
    a = ds.generate(spec)
    b = ds.generate(spec)
    assert np.array_equal(a, b)
    c = ds.generate(ds.GeneratorSpec(kind="cauchy1d", sample_size=100,
                                     seed=10, u=2.0, v=0.5))
    assert not np.array_equal(a, c)


def test_run_seeds_are_splittable():
    spec = ds.GeneratorSpec(kind="gaussian", sample_size=10, seed=3)
    r0 = ds.generate(spec, run_index=0)
    r1 = ds.generate(spec, run_index=1)
    assert not np.array_equal(r0, r1)
    assert np.array_equal(r0, ds.generate(spec, run_index=0))


def test_cauchy_sample_median():
    spec = ds.GeneratorSpec(kind="cauchy1d", sample_size=10**5, seed=1,
                            u=0.0, v=1.0)
    data = ds.generate(spec)
    assert abs(np.median(data)) < 0.02


def test_cauchy_sample_shifted_median():
    spec = ds.GeneratorSpec(kind="cauchy1d", sample_size=10**5, seed=2,
                            u=1000.0, v=10.0)
    data = ds.generate(spec)
    assert abs(np.median(data) - 1000.0) < 0.2


def test_mixture_component_frequencies():
    # separated components: the event x > 50 identifies component 2
    spec = ds.GeneratorSpec(kind="mixture", sample_size=10**5, seed=4,
                            weights=(0.9, 0.1),
                            components=((0.0, 1.0), (100.0, 1.0)))
    data = ds.generate(spec)
    assert abs(float(np.mean(data > 50.0)) - 0.1) < 0.02 * 0.1 + 0.005


def test_mixture_matches_population_cdf():
    from scipy.stats import norm
    spec = ds.GeneratorSpec(kind="mixture", sample_size=10**5, seed=4,
                            weights=(0.9, 0.1),
                            components=((0.0, 1.0), (100.0, 100.0)))
    data = ds.generate(spec)
    for thr in (-1.0, 0.0, 2.0, 50.0):
        expected = (0.9 * norm.cdf(thr, 0.0, 1.0)
                    + 0.1 * norm.cdf(thr, 100.0, 100.0))
        assert abs(float(np.mean(data < thr)) - expected) < 0.01


def test_gaussian_nd_sample_mean():
    mu = np.array([1.0, 2.0, 3.0, 4.0])
    cov = np.array([[1., 1., 1., 1.], [1., 2., 2., 2.],
                    [1., 2., 3., 3.], [1., 2., 3., 4.]])
    spec = ds.GeneratorSpec(kind="gaussian_nd", sample_size=10**5, seed=5,
                            mean_vector=mu, covariance=cov)
    data = ds.generate(spec)
    assert np.abs(data.mean(axis=0) - mu).max() < 0.05
    emp = np.cov(data.T)
    assert np.abs(emp - cov).max() < 0.1


def test_matrix_standard_is_cauchy_at_1x1():
    spec = ds.GeneratorSpec(kind="matrix_standard", sample_size=10**4, seed=6,
                            rows=1, cols=1)
    data = ds.generate(spec)
    assert data.shape == (10**4, 1, 1)
    vals = data[:, 0, 0]
    # ratio of independent standard normals is standard Cauchy: quartiles +-1
    q1, q3 = np.quantile(vals, [0.25, 0.75])
    assert abs(q1 + 1.0) < 0.05 and abs(q3 - 1.0) < 0.05


def _matrix_standard_by_observation(n, m, size, rng):
    # one frame at a time, each redrawn until its bottom block is invertible
    out = np.empty((size, n, m))
    for i in range(size):
        while True:
            Z = rng.standard_normal((m + n, m))
            bottom = Z[n:, :]
            if abs(np.linalg.det(bottom)) > 1e-12:
                break
        out[i] = Z[:n, :] @ np.linalg.inv(bottom)
    return out


def test_matrix_standard_batch_matches_per_observation_draws():
    spec = ds.GeneratorSpec(kind="matrix_standard", sample_size=1000, seed=3,
                            rows=2, cols=2)
    for run in range(10):
        expected = _matrix_standard_by_observation(2, 2, 1000, ds.run_rng(3, run))
        assert np.array_equal(ds.generate(spec, run_index=run), expected)


def test_matrix_standard_redraws_only_singular_frames():
    class Draws:
        """An rng whose first batch has a singular bottom block in frame 1."""

        def __init__(self):
            self.shapes = []

        def standard_normal(self, shape):
            self.shapes.append(shape)
            Z = np.full(shape, 2.0)
            if len(self.shapes) == 1:
                Z[1, 1, 0] = 0.0
            return Z

    rng = Draws()
    out = ds.sample_matrix_standard(1, 1, 3, rng)
    assert rng.shapes == [(3, 2, 1), (1, 2, 1)]
    np.testing.assert_array_equal(out, np.ones((3, 1, 1)))


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        ds.GeneratorSpec(kind="nope", sample_size=10)
    with pytest.raises(ValueError):
        ds.GeneratorSpec(kind="gaussian", sample_size=0)
    with pytest.raises(ValueError):
        ds.GeneratorSpec(kind="cauchy1d", sample_size=5, v=0.0)
    with pytest.raises(ValueError):
        ds.GeneratorSpec(kind="mixture", sample_size=5, weights=(0.5, 0.4),
                         components=((0.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        ds.GeneratorSpec(kind="gaussian_nd", sample_size=5,
                         mean_vector=np.zeros(2),
                         covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        ds.GeneratorSpec(kind="matrix_standard", sample_size=5, rows=0, cols=2)


# -- the vectorised reader against the line reader -------------------------

NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e6, 1e6).map(lambda x: f" {x:.4e}\t"),
)
ODD = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "+inf", "INF", "Inf", "Infinity", "1e400",
    "-1e400", "1_000", "", " ", "#", "1 # c", "x", "0x10", "\ufeff1", "1\xa0",
    "1.5\x0b", "\x0c2",
])
# whitespace to str.strip and float(); all but space, tab and \xa0 also end
# a line for str.splitlines
PAD = st.sampled_from(["", "", "", " ", "\t", "\xa0", "\x0b", "\x0c", "\x1c",
                       "\x85", "\u2028"])
LINE_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0c", "\x1c",
                                          "\u2028", "\x85"])
BLANK = st.sampled_from(["", " ", "\t", " \t "])
SHAPES = {"univariate": (None, None), "multivariate": (None, None),
          "matrix": (2, 2), "regression": (None, None)}


@st.composite
def dataset_texts(draw):
    """(mode, text): mostly well-formed files, some with odd tokens or lines."""
    mode = draw(st.sampled_from(sorted(SHAPES)))
    width = {"univariate": 1, "matrix": 4, "regression": 2}.get(
        mode, draw(st.integers(1, 4)))
    clean = draw(st.booleans())
    token = NUMBER if clean else st.tuples(
        PAD, st.one_of(NUMBER, NUMBER, ODD), PAD).map("".join)
    end = st.sampled_from(["\n", "\r\n"]) if clean else LINE_ENDS
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.just("") if clean else BLANK))
            continue
        k = width if clean or kind > 2 else draw(st.integers(1, 5))
        lines.append(",".join(draw(token) for _ in range(k)))
    return mode, "".join(line + draw(end) for line in lines)


def _canonical(result):
    """Bit-level form of a parse result: float hex, INFINITY, array bytes."""
    if isinstance(result, tuple):
        return tuple(_canonical(r) for r in result)
    if isinstance(result, list):
        return ["inf" if is_infinity(x) else (type(x), x.hex()) for x in result]
    return result.dtype, result.shape, result.tobytes()


def _line_reader(text, mode, rows, cols):
    """Reference: the line reader's records in parse_dataset's return types."""
    records = ds._parse_lines(text, mode, rows, cols)
    if mode == "univariate":
        return records
    if mode == "multivariate":
        return np.asarray(records, dtype=float)
    if mode == "matrix":
        return np.stack([np.asarray(r).reshape(rows, cols) for r in records])
    return np.array([r[0] for r in records]), np.array([r[1] for r in records])


def _outcome(parse):
    try:
        return "ok", _canonical(parse())
    except ValueError as exc:  # DataFormatError included
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "data.csv"


@settings(max_examples=400, deadline=None)
@given(dataset_texts())
def test_parse_matches_line_reader(csv_path, case):
    # both readers accept the same files, return bit-identical values, and
    # raise the same error with the same line number
    mode, text = case
    rows, cols = SHAPES[mode]
    got = _outcome(lambda: ds.parse_dataset(io.StringIO(text), mode, rows, cols))
    want = _outcome(lambda: _line_reader(text, mode, rows, cols))
    assert got == want
    csv_path.write_text(text, newline="")
    got = _outcome(lambda: ds.parse_dataset(str(csv_path), mode, rows, cols))
    want = _outcome(lambda: _line_reader(csv_path.read_text(), mode, rows,
                                         cols))
    assert got == want
