"""The one rule for numeric inputs at every entry point that reads a number, and the one JSON front door."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tomonoise import (
    Coherent,
    Dataset,
    Fock,
    Mixed,
    Monomial,
    NumericRangeError,
    Polynomial,
    RealField,
    ValidationError,
    cli,
    mean_photon,
    noise_ratio_coherent,
    quadrature_pdf,
    sample_fixed_phase,
    state_from_json,
    sweep,
)
from tomonoise.cli import main
from tomonoise.errors import complex_from_json, integer, is_complex, is_integral, is_real, json_object
from tomonoise.estimators import phase_kernel_distribution
from tomonoise.homodyne import block_generator, dataset_from_json, sample_count, sample_homodyne
from tomonoise.kernels import _check_orders, hermite, kernel_polynomial, observable_json, observable_to_json
from tomonoise.states import check_eta, normal_moment, photon_distribution

SRC = Path(__file__).resolve().parents[1] / "src" / "tomonoise"

#: Values that no entry point reads as an integer, nor any eta entry point as an efficiency.
REFUSED = [True, np.True_, 2.7, "3", None, math.nan, math.inf]
#: Values that every integer entry point reads as 3.
INTEGERS = [3, 3.0, np.int64(3), np.float32(3.0)]

_DATA = Dataset(np.full(4, 0.5), np.full(4, 1.0), 1.0, "t", 0)
_DIAGONAL_RHO = [[1 / 3, 0] if i % 4 == 0 else [0, 0] for i in range(9)]


def _dataset_json(key, value):
    return dataset_from_json({"state_tag": "t", "eta": 1.0, "seed": 0, "n": 1, "samples": [[0.5, 1.25]], key: value})


def _thirds(value):
    """An accepted integer 3 as the efficiency 1 of the same type."""
    return value // 3


#: Entry point -> (call with a value, map from an accepted integer to a value in its domain).
ENTRY_POINTS = {
    "cli n": (lambda v: cli._read("n", v, cli._KEYS["n"][0]), None),
    "cli seed": (lambda v: cli._read("seed", v, cli._KEYS["seed"][0]), None),
    "block_generator seed": (lambda v: block_generator(v, 1, 0), None),
    "sample_count": (lambda v: sample_count(Fock(1), 1.0, v), None),
    "dataset_from_json seed": (lambda v: _dataset_json("seed", v), None),
    "Fock": (Fock, None),
    "state_from_json mixed dim": (lambda v: state_from_json({"type": "mixed", "dim": v, "rho": _DIAGONAL_RHO}), None),
    "photon_distribution dim": (lambda v: photon_distribution(Fock(1), v), None),
    "normal_moment n": (lambda v: normal_moment(Fock(3), v, 3), None),
    "normal_moment m": (lambda v: normal_moment(Fock(3), 3, v), None),
    "_check_orders n": (lambda v: _check_orders(v, 0), None),
    "_check_orders m": (lambda v: _check_orders(0, v), None),
    "Monomial": (lambda v: Monomial(v, 1), None),
    "hermite": (lambda v: hermite(v, 0.5), None),
    "phase_kernel_distribution bins": (lambda v: phase_kernel_distribution(_DATA, v), lambda v: v * 4),
    "dataset_from_json eta": (lambda v: _dataset_json("eta", v), _thirds),
    "_check_eta": (check_eta, _thirds),
    "sample_homodyne eta": (lambda v: sample_homodyne(Fock(1), v, 10, 1), _thirds),
    "Dataset eta": (lambda v: Dataset([0.5], [1.0], v, "t", 0), _thirds),
}


@pytest.mark.parametrize("value", REFUSED, ids=repr)
@pytest.mark.parametrize("site", list(ENTRY_POINTS))
def test_every_entry_point_refuses(site, value):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[site][0](value)


@pytest.mark.parametrize("value", INTEGERS, ids=repr)
@pytest.mark.parametrize("site", list(ENTRY_POINTS))
def test_every_entry_point_accepts(site, value):
    call, to_domain = ENTRY_POINTS[site]
    call(to_domain(value) if to_domain else value)


@pytest.mark.parametrize("value", [v for v in REFUSED if not isinstance(v, np.generic)], ids=repr)
@pytest.mark.parametrize("key", ["n", "seed", "eta"])
def test_cli_refuses_with_exit_2(tmp_path, capsys, key, value):
    # json writes nan and inf as NaN and Infinity, which the config reader reads back; the eta
    # reader takes every number, and the sampler refuses one outside (0, 1]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "d.csv"), key: value}))
    assert main(["simulate", "--state", '{"type":"fock","n":1}', "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    message = json.loads(lines[0])["message"]
    assert len(lines) == 1 and (message.startswith(f"{key}: ") or "quantum efficiency" in message)
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("value", [3, 3.0], ids=repr)
@pytest.mark.parametrize("key", ["n", "seed", "eta"])
def test_cli_accepts(tmp_path, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "d.csv"), key: _thirds(value) if key == "eta" else value}))
    assert main(["simulate", "--state", '{"type":"fock","n":1}', "--n", "10", "--config", str(cfg)]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nbar, eta", [(True, 1.0), ("3", 1.0), (None, 1.0), (math.nan, 1.0), (1.0, True),
                                       (1.0, np.True_), (1.0, "0.5"), (1.0, None)], ids=repr)
def test_sweep_grids_hold_numbers(nbar, eta):
    # float() alone would read True as 1 and "3" as 3
    with pytest.raises(ValidationError):
        sweep([RealField()], [nbar], [eta])


@pytest.mark.parametrize("nbar", [True, "3", None, math.nan, -1.0], ids=repr)
def test_closed_form_ratio_needs_a_nonnegative_number(nbar):
    with pytest.raises(ValidationError):
        noise_ratio_coherent(RealField(), nbar, 1.0)


@pytest.mark.parametrize("nbar, eta", [(2, 1), (np.int64(2), np.float32(0.5)), (2.5, 0.5)], ids=repr)
def test_sweep_grids_of_any_number_type(nbar, eta):
    assert sweep([RealField()], [nbar], [eta])[0].nbar == nbar


#: Phases that no phase entry point reads: not numbers, or not finite as floats.
REFUSED_PHASES = [True, np.True_, "0.5", None, math.nan, math.inf, 10**400]
#: Entry point that reads a phase -> call with a value.
PHASE_ENTRY_POINTS = {
    "sample_fixed_phase coherent": lambda v: sample_fixed_phase(Coherent(1.0), 1.0, 3, 1, phi=v),
    "sample_fixed_phase grid": lambda v: sample_fixed_phase(Mixed([[0.5, 0.5], [0.5, 0.5]]), 1.0, 3, 1, phi=v),
    "quadrature_pdf": lambda v: quadrature_pdf(Fock(1), v, 1.0, 0.1),
}


@pytest.mark.parametrize("value", REFUSED_PHASES, ids=repr)
@pytest.mark.parametrize("site", list(PHASE_ENTRY_POINTS))
def test_every_phase_entry_point_refuses(site, value):
    with pytest.raises(ValidationError, match="phase must be a finite number"):
        PHASE_ENTRY_POINTS[site](value)


@pytest.mark.parametrize("site", list(PHASE_ENTRY_POINTS))
def test_every_phase_entry_point_reads_any_number_type(site):
    reference = PHASE_ENTRY_POINTS[site](0.5)
    for value in (np.float64(0.5), np.float32(0.5)):
        np.testing.assert_array_equal(PHASE_ENTRY_POINTS[site](value), reference)
    np.testing.assert_array_equal(PHASE_ENTRY_POINTS[site](1), PHASE_ENTRY_POINTS[site](1.0))


@pytest.mark.parametrize(
    "rho",
    [[["1"]], np.array([[True]]), np.array([[1.0]], dtype=object), [[None]]],
    ids=["str", "bool", "object", "None"],
)
def test_mixed_refuses_entries_that_are_not_numbers(rho):
    with pytest.raises(ValidationError, match="rho entries must be numbers"):
        Mixed(rho)


class TestPolynomial:
    def test_orders_are_stored_as_ints(self):
        poly = Polynomial(terms=((1.0, np.int64(1), 1),))
        assert [type(v) for v in poly.terms[0]] == [int, int, complex]
        assert observable_to_json(poly)["terms"] == [{"n": 1, "m": 1, "c": [1.0, 0.0]}]

    @pytest.mark.parametrize("c", ["2", True, np.True_, None, [1.0]], ids=repr)
    def test_coefficients_must_be_numbers(self, c):
        with pytest.raises(ValidationError, match="polynomial coefficient must be a number"):
            Polynomial.from_coeffs({(1, 1): c})
        with pytest.raises(ValidationError, match="polynomial coefficient must be a number"):
            Polynomial(terms=((1, 1, c),))
        with pytest.raises(ValidationError, match="polynomial coefficient must be a number"):
            kernel_polynomial({(1, 1): c}, 1.0, 0.5, 1.0)

    @pytest.mark.parametrize("c", [2, 2.0, 2 + 0j, np.float32(2.0), np.complex64(2.0)], ids=repr)
    def test_coefficients_of_any_number_type(self, c):
        assert Polynomial.from_coeffs({(1, 1): c}).terms == ((1, 1, 2 + 0j),)


class TestPredicates:
    @pytest.mark.parametrize("value", [0, -2, 0.5, math.nan, math.inf, np.float32(0.5), np.uint64(7), np.int8(-1)],
                             ids=repr)
    def test_real(self, value):
        assert is_real(value)

    @pytest.mark.parametrize("value", [True, False, np.True_, "0.5", None, 1j, [1], np.array([1.0])], ids=repr)
    def test_not_real(self, value):
        assert not is_real(value)

    @pytest.mark.parametrize("value", [0, 0.5, 1j, np.complex64(1j), np.float32(0.5), np.uint64(7)], ids=repr)
    def test_complex(self, value):
        assert is_complex(value)

    @pytest.mark.parametrize("value", [True, np.True_, "1j", None, [1j], np.array([1j])], ids=repr)
    def test_not_complex(self, value):
        assert not is_complex(value)

    @pytest.mark.parametrize(
        "value", [0, 20.0, -3, np.float64(7.0), np.uint64(2**64 - 1), np.int8(-128), 1e300], ids=repr
    )
    def test_integral(self, value):
        assert is_integral(value)

    @pytest.mark.parametrize("value", [2.7, math.nan, math.inf, -math.inf, np.float32(math.inf), True, "3", None],
                             ids=repr)
    def test_not_integral(self, value):
        assert not is_integral(value)

    def test_integer_reads_an_int_and_names_the_value(self):
        assert type(integer(np.float32(3.0), "k")) is int and integer(20.0, "k", 20) == 20
        assert integer(10**400, "k") == 10**400  # beyond the floats, and still finite
        with pytest.raises(ValidationError, match=r"^k must be an integer >= 4, got 3$"):
            integer(3, "k", 4)
        with pytest.raises(ValidationError, match=r"^k must be an integer, got 2\.7$"):
            integer(2.7, "k")


def test_only_errors_py_decides_what_a_number_is():
    # a hand-written integer or bool check elsewhere drifts from the rule; call errors.py instead
    pattern = re.compile(r"int\([a-z_.]+\) != |isinstance\([^)]*bool|is_integer\(\)")
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in paths
        if path.name != "errors.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not found


@pytest.mark.parametrize(
    "call",
    [lambda s: normal_moment(s, 1, 1), mean_photon, lambda s: photon_distribution(s, 5)],
    ids=["normal_moment", "mean_photon", "photon_distribution"],
)
def test_a_photon_number_beyond_the_float_range_is_refused(call):
    # |beta|^2 = 1e400: float ** would raise Python's own OverflowError
    with pytest.raises(NumericRangeError, match="leaves the float range"):
        call(Coherent(1e200))


class TestJsonObject:
    def test_an_object_passes_unchanged(self):
        obj = {"type": "fock", "n": 1}
        assert json_object(obj, "state JSON", "type") is obj
        assert json_object(' {"type": "fock", "n": 1} ', "state JSON", "type") == obj
        assert json_object("{}", "config file") == {}

    def test_text_that_does_not_parse(self):
        with pytest.raises(ValidationError, match=r"^state JSON does not parse: Expecting"):
            json_object("{not json", "state JSON", "type")

    @pytest.mark.parametrize("value", ["[1]", "3", "null", '"x"', [1], None, 3, '{"n": 1}', {"n": 1}], ids=repr)
    def test_anything_but_an_object_holding_the_field(self, value):
        with pytest.raises(ValidationError, match=r"^state JSON must be an object holding 'type'$"):
            json_object(value, "state JSON", "type")

    @pytest.mark.parametrize("value", ["[1]", [1], None], ids=repr)
    def test_without_a_field_only_an_object_is_asked_for(self, value):
        with pytest.raises(ValidationError, match=r"^config file must be an object$"):
            json_object(value, "config file")

    @pytest.mark.parametrize("text", ["phase", " phase ", '{"observable": "phase"}', {"observable": "phase"}],
                             ids=repr)
    def test_an_observable_is_a_name_or_an_object(self, text):
        assert observable_json(text) == {"observable": "phase"}

    @pytest.mark.parametrize("text", ["[1]", " {", '{"n": 1}'], ids=repr)
    def test_observable_text_in_brackets_is_json(self, text):
        with pytest.raises(ValidationError, match=r"^observable JSON (does not parse|must be an object holding)"):
            observable_json(text)

    def test_complex_pairs(self):
        assert complex_from_json([1, -2.5], "beta") == 1 - 2.5j
        with pytest.raises(ValidationError, match=r"^beta must be a \[re, im\] pair of numbers"):
            complex_from_json([True, 0], "beta")


def test_only_errors_py_parses_json():
    # one front door: json.loads is called by errors.json_object and by the dataset reader's header probe
    calls, handlers = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.loads":
                        calls.add((path.name, func.name))
        if path.name != "errors.py" and "JSONDecodeError" in path.read_text():
            handlers.append(path.name)
    assert calls == {("errors.py", "json_object"), ("homodyne.py", "_json_head")}
    assert not handlers
