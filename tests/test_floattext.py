"""The codec against the converters it replaces: '%.17g' % v, float() and np.loadtxt for CSV, '%.17g' % v and json.loads for JSON."""

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomonoise import (
    Dataset,
    Fock,
    load_dataset_csv,
    load_dataset_json,
    sample_homodyne,
    save_dataset_csv,
    save_dataset_json,
)
from tomonoise.cli import main
from tomonoise.errors import ValidationError
from tomonoise.floattext import _line_pieces, _parse, format_json_rows, format_rows, read_json_rows, read_rows
from tomonoise.homodyne import dataset_from_json


def reference_rows(columns) -> bytes:
    """The loop the codec replaced: one '%' row per index."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
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

    def test_mixed_columns_and_empty_slice(self):
        rng = np.random.default_rng(3)
        columns = [rng.normal(size=1000), rng.uniform(size=1000)]
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
            text = format_rows([v]).tobytes()
            assert parse(text.decode(), 1) is not None
            ds = Dataset(rng.normal(size=5000), rng.uniform(0.0, 3.0, 5000), 0.8, "t", 1)
            save_dataset_csv(ds, path)
            load_dataset_csv(path)


# ---------------------------------------------------------------- JSON


def json_rows(columns) -> bytes:
    """The writer's array text: '[[', the formatted rows with their last ', [' cut, and ']'."""
    return b"[[" + format_json_rows(columns).tobytes()[:-3] + b"]"


def json_text(v: float) -> str:
    """The JSON writer's rule for one value: '%.17g', and '.0' after a text without a point, an exponent or an 'n'."""
    text = "%.17g" % v
    return text if any(c in text for c in ".en") else text + ".0"


def reference_json_rows(columns) -> bytes:
    """The writer's rule, one value at a time, as the text of the list of rows."""
    rows = zip(*(c.tolist() for c in columns))
    return ("[" + ", ".join("[" + ", ".join(map(json_text, row)) + "]" for row in rows) + "]").encode()


def dumps_rows(columns) -> bytes:
    """What the writer wrote before it took the CSV's digits: json.dumps of the list of rows."""
    return json.dumps(np.stack(columns, axis=1).tolist()).encode()


def assert_json_loads_round_trip(columns):
    """json.loads of the writer's text gives back every double bit for bit, each as a float."""
    rows = json.loads(json_rows(columns))
    assert all(type(value) is float for row in rows for value in row)
    assert np.array_equal(bits(rows), bits(np.stack(columns, axis=1)))


def shortest_digit_values(rng) -> np.ndarray:
    """Values with 1 to 17 shortest digits over the fixed-notation decades, and their negatives."""
    parts = []
    for k in range(1, 18):
        digits = rng.integers(10 ** (k - 1), 10**k, 2000, dtype=np.int64)
        exps = rng.integers(-4 - k + 1, 16 - k + 1, 2000)
        parts.append([float(f"{d}e{x}") for d, x in zip(digits.tolist(), exps.tolist())])
    v = np.concatenate(parts)
    return np.concatenate([v, -v])


def json_edges() -> np.ndarray:
    limits = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 9999999999999998.0, 1e16])
    around = np.array([1e-4, 1e16, 9999999999999998.0, 0.1, 1.0])
    around = np.concatenate([around, np.nextafter(around, 0.0), np.nextafter(around, np.inf)])
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-30, 31)])
    v = np.concatenate([limits, around, powers])
    return np.concatenate([v, -v])


def binade_values(rng) -> np.ndarray:
    """Over a million doubles: random bits in each binade of fixed notation, and a few in every binade."""
    fixed = np.arange(1023 - 15, 1023 + 54)  # biased exponents of 2^-15 .. 2^53
    every = np.arange(0, 2047)
    exponents = np.concatenate([np.repeat(fixed, 15000), np.repeat(every, 40)]).astype(np.int64)
    mantissas = rng.integers(0, 1 << 52, exponents.size, dtype=np.int64)
    signs = rng.integers(0, 2, exponents.size, dtype=np.int64) << 63
    return (signs | exponents << 52 | mantissas).view(float)


def json_family(name, rng) -> np.ndarray:
    v = {"binades": binade_values, "shortest digits": shortest_digit_values}.get(name, lambda rng: None)(rng)
    return json_edges() if name == "edges" else FAMILIES[name] if v is None else v


JSON_FAMILIES = [*FAMILIES, "binades", "shortest digits", "edges"]


class TestJsonFormat:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_equals_percent_format_with_a_point(self, values):
        v = np.array(values)
        assert json_rows([v, v[::-1]]) == reference_json_rows([v, v[::-1]])
        assert_json_loads_round_trip([v, v[::-1]])

    @pytest.mark.parametrize("name", JSON_FAMILIES)
    def test_families(self, name):
        v = json_family(name, np.random.default_rng(7))
        if name == "binades":
            assert v.size >= 10**6
        assert json_rows([v]) == reference_json_rows([v])
        assert_json_loads_round_trip([v])

    def test_text_of_each_value(self):
        # one column, row by row; integral values of up to 17 digits, the last one past the slice copies
        ints = np.array([0.0, 3.0, 1e15, 1e16, 12345678901234568.0, 99999999999999984.0, 2.0**53 + 2])
        v = np.concatenate([json_edges(), ints, -ints])
        fields = bytes(format_json_rows([v])).split(b"], [")[:-1]
        assert fields == [json_text(x).encode() for x in v.tolist()]
        assert fields[-len(ints) :][:2] == [b"-0.0", b"-3.0"] and b"12345678901234568.0" in fields

    def test_non_finite_values_take_the_percent_format(self):
        v = np.array([np.nan, np.inf, -np.inf, 1.5])
        assert format_json_rows([v]).tobytes() == b"nan], [inf], [-inf], [1.5], ["


def write_samples(path, text: bytes):
    """A file with the writer's head around the samples array text."""
    path.write_bytes(b'{"state_tag": "t", "eta": 0.8, "seed": 1, "n": 3, "samples": ' + text + b"}")


def read_samples(path):
    """read_json_rows from the first number of a file made by write_samples."""
    with open(path, "rb") as fh:
        fh.seek(len(b'{"state_tag": "t", "eta": 0.8, "seed": 1, "n": 3, "samples": [['))
        return read_json_rows(fh, 2, 3)


class TestJsonRead:
    @pytest.mark.parametrize("name", JSON_FAMILIES)
    def test_doubles_equal_json_loads(self, tmp_path, name):
        # the writer's text, and json.dumps's, which files written before the writer took '%.17g' hold
        v = json_family(name, np.random.default_rng(8))
        v = v[: v.size // 2 * 2]
        path = tmp_path / "d.json"
        for write in (json_rows, dumps_rows):
            write_samples(path, write([v[::2], v[1::2]]))
            want = np.array(json.loads(path.read_text())["samples"])
            got = read_samples(path)
            assert got.shape == want.shape and np.array_equal(bits(got), bits(want)), write.__name__

    @pytest.mark.parametrize("name", JSON_FAMILIES)
    def test_load_dataset_json_reads_back_each_double(self, tmp_path, name):
        x = json_family(name, np.random.default_rng(9))
        ds = Dataset(x, np.resize(FAMILIES["phases"], x.size), 0.8, "t", 1)
        path = tmp_path / "d.json"
        save_dataset_json(ds, path)
        back = load_dataset_json(path)
        assert np.array_equal(bits(back.x), bits(ds.x)) and np.array_equal(bits(back.phi), bits(ds.phi))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=30), st.integers(1, 17))
    def test_any_json_number(self, tmp_path_factory, values, precision):
        # '%.*g' gives ints, exponents and short fractions as well as reprs
        fields = [("%.*g" % (precision, v)).replace("e+", "e") for v in values]
        rows = [fields[i : i + 2] for i in range(0, len(fields) - 1, 2)]
        path = tmp_path_factory.mktemp("json") / "d.json"
        write_samples(path, ("[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]").encode())
        want = np.array(json.loads(path.read_text())["samples"], dtype=float)
        got = read_samples(path)
        if got is not None:
            assert np.array_equal(bits(got), bits(want))

    def test_round_trip_across_pieces(self, tmp_path, monkeypatch):
        # pieces of a few hundred bytes: rows cut at every offset, and the row array grown past its guess
        monkeypatch.setattr("tomonoise.floattext.READ_CHARS", 333)
        ds = Dataset(FAMILIES["gaussian"][:3000], FAMILIES["phases"][:3000], 0.8, "t", 1)
        path = tmp_path / "d.json"
        save_dataset_json(ds, path)
        back = load_dataset_json(path)
        assert np.array_equal(bits(back.x), bits(ds.x)) and np.array_equal(bits(back.phi), bits(ds.phi))


def dataset_or_error(read, path):
    try:
        return read(path)
    except Exception as exc:  # the same error, whatever it is
        return exc


META = {"state_tag": "t", "eta": 0.8, "seed": 1, "n": 2}
ROWS = [[0.5, 1.25], [-1.5, 0.25]]
ODD_JSON = {
    "writer's": json.dumps({**META, "samples": ROWS}),
    "other key order": json.dumps({"eta": 0.8, "state_tag": "t", "seed": 1, "n": 2, "samples": ROWS}),
    "samples first": json.dumps({"samples": ROWS, **META}),
    "no n": json.dumps({"state_tag": "t", "eta": 0.8, "seed": 1, "samples": ROWS}),
    "n of another type": json.dumps({**META, "n": "two", "samples": ROWS}),
    "n too large": json.dumps({**META, "n": 10**12, "samples": ROWS}),
    "n too small": json.dumps({**META, "n": 1, "samples": ROWS}),
    "key after samples": json.dumps({**META, "samples": ROWS, "extra": 1}),
    "duplicate key": json.dumps({**META, "samples": ROWS})[:-1] + ', "samples": [[1.0, 2.0]]}',
    "indent=2": json.dumps({**META, "samples": ROWS}, indent=2),
    "compact": json.dumps({**META, "samples": ROWS}, separators=(",", ":")),
    "compact rows": json.dumps(META)[:-1] + ', "samples": [[0.5,1.25],[-1.5,0.25]]}',
    "commas without spaces": json.dumps(META)[:-1] + ', "samples": [[0.5,1.25], [-1.5,0.25]]}',
    "NaN": json.dumps({**META, "samples": [[float("nan"), 1.25]]}),
    "Infinity": json.dumps({**META, "samples": [[float("inf"), 1.25]]}),
    "-Infinity": json.dumps({**META, "samples": [[0.5, float("-inf")]]}),
    "truncated": json.dumps({**META, "samples": ROWS})[:-3],
    "cut in a number": json.dumps({**META, "samples": ROWS})[:-8],
    "trailing newline": json.dumps({**META, "samples": ROWS}) + "\n",
    "trailing bytes": json.dumps({**META, "samples": ROWS}) + "x",
    "two objects": json.dumps({**META, "samples": ROWS}) * 2,
    "empty samples": json.dumps({**META, "samples": []}),
    "empty row": json.dumps({**META, "samples": [[]]}),
    "one column": json.dumps({**META, "samples": [[0.5], [1.5]]}),
    "three columns": json.dumps({**META, "samples": [[0.5, 1.25, 2.0], [1.5, 0.25, 3.0]]}),
    "ragged": json.dumps({**META, "samples": [[0.5, 1.25], [1.5]]}),
    "nested": json.dumps({**META, "samples": [[[0.5], 1.25]]}),
    "strings": json.dumps({**META, "samples": [["0.5", "1.25"]]}),
    "non-ASCII tag": json.dumps({**META, "state_tag": "f\u00f6ck", "samples": ROWS}, ensure_ascii=False),
    "escaped non-ASCII tag": json.dumps({**META, "state_tag": "f\u00f6ck", "samples": ROWS}),
    "escaped-quote tag": json.dumps({**META, "state_tag": 'say "samples": [[', "samples": ROWS}),
    "tag of another type": json.dumps({**META, "state_tag": 5, "samples": ROWS}),
    "bad eta": json.dumps({**META, "eta": "abc", "samples": ROWS}),
    "eta out of range": json.dumps({**META, "eta": 1.5, "samples": ROWS}),
    "bad seed": json.dumps({**META, "seed": [1], "samples": ROWS}),
    "phase out of range": json.dumps({**META, "samples": [[0.5, 4.0]]}),
    "1e-05-style fields": json.dumps({**META, "samples": [[1e-05, 2.5e-7], [-1e300, 1e-320]]}),
    "exponent forms": json.dumps(META)[:-1] + ', "samples": [[1E5, 0.5e1], [-2e+3, 1.5E-2]]}',
    "ints": json.dumps(META)[:-1] + ', "samples": [[1, 0], [-2, 3]]}',
    "negative int zero": json.dumps(META)[:-1] + ', "samples": [[-0, 0.5]]}',
    "negative zero": json.dumps(META)[:-1] + ', "samples": [[-0.0, 0.5]]}',
    "long int": json.dumps(META)[:-1] + ', "samples": [[' + "9" * 30 + ", 0.5]]}",
    "huge int": json.dumps(META)[:-1] + ', "samples": [[' + "9" * 400 + ", 0.5]]}",
    "long fraction": json.dumps(META)[:-1] + ', "samples": [[0.' + "1" * 40 + ", 0.5]]}",
    "leading zero": json.dumps(META)[:-1] + ', "samples": [[01.5, 0.5]]}',
    "bare point": json.dumps(META)[:-1] + ', "samples": [[.5, 5.]]}',
    "plus sign": json.dumps(META)[:-1] + ', "samples": [[+1.5, 0.5]]}',
    "spaces": json.dumps(META)[:-1] + ', "samples": [[ 0.5, 1.25 ]]}',
    "newline in a row": json.dumps(META)[:-1] + ', "samples": [[0.5,\n1.25]]}',
    "words": json.dumps(META)[:-1] + ', "samples": [[true, null]]}',
    "empty file": "",
    "not json": "samples",
    "non-utf-8": b'{"state_tag": "t", "eta": 0.8, "seed": 1, "n": 2, "samples": [[0.5, \xff1.25]]}',
    "non-utf-8 tag": b'{"state_tag": "\xff", "eta": 0.8, "seed": 1, "n": 2, "samples": [[0.5, 1.25]]}',
}


class TestJsonDatasets:
    @pytest.mark.parametrize("name", ODD_JSON)
    def test_same_dataset_or_the_same_error_as_json_loads(self, tmp_path, name):
        path = tmp_path / "d.json"
        content = ODD_JSON[name]
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        # the reader before the codec: dataset_from_json of the whole text
        want = dataset_or_error(lambda path: dataset_from_json(path.read_text()), path)
        got = dataset_or_error(load_dataset_json, path)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert (got.state_tag, got.eta, got.seed) == (want.state_tag, want.eta, want.seed)
            assert np.array_equal(bits(got.x), bits(want.x)) and np.array_equal(bits(got.phi), bits(want.phi))

    def test_read_in_bounded_memory(self, tmp_path):
        # json.loads of the whole document once held 24 MB at this size
        ds = sample_homodyne(Fock(3), 0.8, 10**5, 17)
        path = tmp_path / "d.json"
        save_dataset_json(ds, path)
        tracemalloc.start()
        try:
            back = load_dataset_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.phi, ds.phi)

    def test_no_runtime_warning(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "d.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            format_json_rows([np.array([np.nan, np.inf, -np.inf]), FAMILIES["bit patterns"][:3]])
            v = FAMILIES["bit patterns"][:5000]
            assert json_rows([v]) == reference_json_rows([v])
            save_dataset_json(Dataset(rng.normal(size=5000), rng.uniform(0.0, 3.0, 5000), 0.8, "t", 1), path)
            load_dataset_json(path)
