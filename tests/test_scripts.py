import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracing_finds_every_target(monkeypatch):
    # the traced benchmark wraps package names; one renamed or deleted fails here, not only in a traced run
    tracing = _tracing(monkeypatch)
    from tomonoise import Fock, homodyne

    original = homodyne.hermite_functions
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        homodyne.QuadratureGridSampler(Fock(1))
    assert homodyne.hermite_functions is original
    assert [span.name for span in tracer.spans] == ["homodyne.grid_build", "states.hermite_functions"]


def test_traced_cli_parses_each_input_once(monkeypatch, tmp_path):
    # the CLI looks up the names the benchmark wraps when it calls them, and reads the state once
    tracing = _tracing(monkeypatch)
    from tomonoise.cli import main

    data = str(tmp_path / "d.csv")
    runs = {
        "simulate": ["simulate", "--state", '{"type":"fock","n":3}', "--n", "200", "--out", data],
        "estimate": ["estimate", "--data", data, "--observable", "intensity", "--out", str(tmp_path / "e.json")],
    }
    names = {}
    for command, argv in runs.items():
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            assert main(argv) == 0
        names[command] = [span.name for span in tracer.spans if span.parent is None]
    assert names["simulate"] == ["states.state_from_json", "homodyne.sample_homodyne", "homodyne.save_dataset_csv"]
    assert names["estimate"] == ["homodyne.load_dataset_csv", "estimators.estimate_mean.intensity"]


def test_benchmark_imports_only_package_names_that_exist():
    # the benchmark's layer rows and output checks import package names that only a traced or
    # benchmark run would reach, so one renamed or deleted fails here too
    imported = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tomonoise":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert {name for _, _, name in imported} >= {"StreamingMoments", "QuadratureGridSampler", "analytic_comparison"}
    missing = [entry for entry in imported if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert not missing
