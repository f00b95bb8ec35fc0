"""The CSV codec against the converters it replaces: '%.17g' % v, '%d' % i, float() and np.loadtxt."""

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomonoise import Dataset, Fock, load_dataset_csv, sample_homodyne, save_dataset_csv
from tomonoise.cli import main
from tomonoise.errors import ValidationError
from tomonoise.floattext import _line_pieces, _parse, format_rows, read_rows


def reference_rows(columns) -> bytes:
    """The loop the codec replaced: one '%' row per index."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    return "".join(row % values for values in zip(*(c.tolist() for c in columns))).encode()


def parse(text: str, ncols: int):
    """_parse over the pieces read_rows cuts text into, or None where read_rows would go to np.loadtxt."""
    parts = []
    for piece in _line_pieces(io.StringIO(text)):
        values = None if piece is None else _parse(piece, ncols)
        if values is None:
            return None
        parts.append(values)
    return np.concatenate(parts)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_parses_like_float(strings):
    got = parse("\n".join(strings) + "\n", 1)
    assert got is not None
    want = np.array([float(s) for s in strings])
    assert np.array_equal(bits(got), bits(want)), [s for s, g, w in zip(strings, got, want) if bits(g) != bits(w)]


def families() -> dict:
    rng = np.random.default_rng(2024)
    patterns = rng.integers(0, 2**63, 200_000, dtype=np.int64).view(float)
    patterns = patterns[np.isfinite(patterns)] * rng.choice([-1.0, 1.0], patterns.size)[: np.isfinite(patterns).sum()]
    k, j = rng.integers(1, 2**20, 50_000), rng.integers(1, 60, 50_000)
    powers = np.concatenate([2.0 ** np.arange(-40, 70), 10.0 ** np.arange(-8, 23)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    edges = np.array([1e-4, 1e17, 9.99e-5, 99999999999999984.0, 0.1, 0.5, 1.0, 2.5, 1e16, 9007199254740993.0])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    tiny = np.array([0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-310, 1.7976931348623157e308])
    return {
        "gaussian": rng.normal(0.0, 2.0, 50_000),
        "phases": rng.uniform(0.0, math.pi, 50_000),
        "bit patterns": patterns,
        "log-uniform": 10.0 ** rng.uniform(-7.0, 19.0, 50_000) * rng.choice([-1.0, 1.0], 50_000),
        "half-even ties": k * 2.0 ** -j.astype(float),
        "powers and neighbours": np.concatenate([near, -near]),
        "thresholds": np.concatenate([edges, -edges]),
        "zeros and subnormals": np.concatenate([tiny, -tiny]),
    }


FAMILIES = families()


class TestFormat:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_equals_percent_format(self, values):
        v = np.array(values)
        assert format_rows([v]).tobytes() == reference_rows([v])

    @pytest.mark.parametrize("name", FAMILIES)
    def test_families(self, name):
        v = FAMILIES[name]
        assert format_rows([v]).tobytes() == reference_rows([v])

    def test_non_finite_values_take_the_percent_format(self):
        v = np.array([np.nan, np.inf, -np.inf, 1.5])
        assert format_rows([v]).tobytes() == b"nan\ninf\n-inf\n1.5\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
    def test_integers_equal_percent_d(self, values):
        v = np.array(values, dtype=np.int64)
        assert format_rows([v]).tobytes() == reference_rows([v])

    def test_mixed_columns_and_empty_slice(self):
        rng = np.random.default_rng(3)
        columns = [rng.normal(size=1000), rng.integers(0, 40, 1000), rng.uniform(size=1000)]
        assert format_rows(columns).tobytes() == reference_rows(columns)
        assert format_rows([np.empty(0), np.empty(0)]).tobytes() == b""


class TestParse:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30), st.integers(1, 17))
    def test_equals_float_on_percent_g_and_repr(self, values, precision):
        assert_parses_like_float(["%.*g" % (precision, v) for v in values])
        assert_parses_like_float([repr(v) for v in values])

    @pytest.mark.parametrize("name", FAMILIES)
    def test_families(self, name):
        values = FAMILIES[name].tolist()
        for precision in (1, 9, 15, 16, 17):
            assert_parses_like_float(["%.*g" % (precision, v) for v in values])
        assert_parses_like_float([repr(v) for v in values])

    def test_field_forms(self):
        # ties of two doubles, more than 17 digits, a leading '+', no digit before or after the point
        fields = ["9007199254740993", "0.1000000000000000055511151231257827", "123456789012345678901234",
                  "+1.5", ".5", "5.", "-.25", "1E5", "-0", "0.000", "00012.5000", "1e-320", "4.9e-324"]
        assert_parses_like_float(fields)

    @pytest.mark.parametrize("text", ["1,2\n", "1\n\n", " 1\n", "nan\n", "1_0\n", "1-2\n", "-\n", "1..2\n", "é\n"])
    def test_anything_else_is_left_to_loadtxt(self, text):
        assert parse(text, 1) is None


def old_load(path):
    """np.loadtxt after the metadata lines, as the reader did before the codec."""
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(fh, delimiter=",", ndmin=2)


HEAD = "# state=x\n# eta=0.8\n# seed=1\n# n=3\nx,phi\n"
ODD_FILES = {
    "blank and comment lines": HEAD + "0.5,1.25\n\n# note\n-1.5,0.25 # tail\n",
    "crlf": HEAD.replace("\n", "\r\n") + "0.5,1.25\r\n-1.5,0.25\r\n",
    "spaces and tabs": HEAD + " 0.5 ,\t1.25\n-1.5, 0.25\n",
    "nan and inf": HEAD + "nan,1.25\ninf,0.5\n",
    "one column": HEAD + "0.5\n1.5\n",
    "three columns": HEAD + "0.5,1.25,7\n1.5,0.25,8\n",
    "columns change": HEAD + "0.5,1.25\n1.5,0.25,8\n",
    "no trailing newline": HEAD + "0.5,1.25\n-1.5,0.25",
    "signs, points and exponents": HEAD + "+1.5,.5\n5.,1E5\n-1e-05,2.5e-7\n",
    "25 digits": HEAD + "1234567890123456789012345,0.1234567890123456789012345\n",
    "empty": HEAD,
    "only comments": HEAD + "# nothing\n",
    "bad number": HEAD + "0.5,1.2.5\n",
    "non-utf-8": HEAD.encode() + b"0.5,\xff1.25\n",
}


class TestReader:
    @pytest.mark.parametrize("name", ODD_FILES)
    def test_same_array_or_the_same_refusal_as_loadtxt(self, tmp_path, name):
        path = tmp_path / "d.csv"
        content = ODD_FILES[name]
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        try:
            want = old_load(path)
        except ValueError:
            want = None
        try:
            with open(path) as fh:
                for _ in range(5):
                    fh.readline()
                got = read_rows(fh, 2, 3)
        except ValueError:
            got = None
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape and np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("name", ODD_FILES)
    def test_load_dataset_csv_returns_or_refuses(self, tmp_path, capsys, name):
        path = tmp_path / "d.csv"
        content = ODD_FILES[name]
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        try:
            data = old_load(path)
            want = Dataset(data[:, 0], data[:, 1], 0.8, "x", 1)
        except (ValueError, IndexError, ValidationError):
            want = None
        if want is None:
            with pytest.raises(ValidationError):
                load_dataset_csv(path)
            assert main(["estimate", "--data", str(path), "--observable", "intensity",
                         "--out", str(tmp_path / "e.json")]) == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
        else:
            ds = load_dataset_csv(path)
            assert np.array_equal(bits(ds.x), bits(want.x)) and np.array_equal(bits(ds.phi), bits(want.phi))

    def test_round_trip_across_pieces(self, tmp_path, monkeypatch):
        # pieces of a few hundred bytes: lines cut at every offset, and the row array grown past its guess
        monkeypatch.setattr("tomonoise.floattext.READ_CHARS", 333)
        v = FAMILIES["log-uniform"][:3000]
        path = tmp_path / "d.csv"
        path.write_bytes(reference_rows([v, v[::-1]]))
        with open(path) as fh:
            got = read_rows(fh, 2, 10)
        assert np.array_equal(bits(got), bits(np.stack([v, v[::-1]], axis=1)))


class TestDatasetFiles:
    N = 10**5

    @pytest.fixture(scope="class")
    def dataset(self):
        return sample_homodyne(Fock(3), 0.8, self.N, 17)

    def test_files_and_arrays_independent_of_worker_count(self, tmp_path, monkeypatch):
        files, arrays = [], []
        for workers in ("1", "2"):
            monkeypatch.setenv("TOMONOISE_MAX_WORKERS", workers)
            path = tmp_path / f"d{workers}.csv"
            save_dataset_csv(sample_homodyne(Fock(3), 0.8, 70_001, 5), path)
            files.append(path.read_bytes())
            back = load_dataset_csv(path)
            arrays.append(np.stack([back.x, back.phi]))
        assert files[0] == files[1] and np.array_equal(arrays[0], arrays[1])

    def test_written_and_read_in_bounded_memory(self, tmp_path, dataset):
        path = tmp_path / "d.csv"
        tracemalloc.start()
        try:
            save_dataset_csv(dataset, path)
            written = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_dataset_csv(path)
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written < 2 * 2**20
        # the returned x and phi hold 1.6 MB themselves; the reader's own temporaries stay below 2 MB
        assert read - 2 * back.x.nbytes < 2 * 2**20
        assert np.array_equal(back.x, dataset.x) and np.array_equal(back.phi, dataset.phi)

    def test_no_runtime_warning(self, tmp_path):
        v = np.concatenate([FAMILIES["bit patterns"][:5000], [0.0, -0.0, 1e-310, 1e300]])
        rng = np.random.default_rng(5)
        path = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            format_rows([np.array([np.nan, np.inf, -np.inf])])
            text = format_rows([v, rng.integers(-(2**62), 2**62, v.size)]).tobytes()
            assert parse(text.decode(), 2) is not None
            ds = Dataset(rng.normal(size=5000), rng.uniform(0.0, 3.0, 5000), 0.8, "t", 1)
            save_dataset_csv(ds, path)
            load_dataset_csv(path)
