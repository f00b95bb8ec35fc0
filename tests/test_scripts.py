import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "observable, direct",
    [
        ("intensity", "direct.simulate_photocount"),
        ("real_field", "homodyne.sample_fixed_phase"),
        ("complex_amplitude", "direct.simulate_heterodyne"),
        ("phase", "direct.simulate_heterodyne"),
    ],
)
def test_traced_compare_keeps_the_span_contract(monkeypatch, tmp_path, observable, direct):
    # compare spans the kernel, the accumulator and both samplers, its self times add up, and
    # instrument puts each class's own update back (the complex class defines its own). The direct
    # span shows that the direct route is looked up when compare runs, after instrument wrapped it.
    tracing = _tracing(monkeypatch)
    from tomonoise.cli import main
    from tomonoise.estimators import ComplexStreamingMoments, StreamingMoments
    from tomonoise.homodyne import BLOCK_SIZE

    monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "2")
    real_update, complex_update = StreamingMoments.update, ComplexStreamingMoments.update
    argv = ["compare", "--state", '{"type":"coherent","beta":[1.5,0.5]}', "--observable", observable,
            "--eta", "0.8", "--n", str(3 * BLOCK_SIZE + 5), "--out", str(tmp_path / "c.json")]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert main(argv) == 0
    update = "ComplexStreamingMoments" if observable == "complex_amplitude" else "StreamingMoments"
    assert {span.name for span in tracer.spans} >= {
        f"kernels.kernel_observable.{observable}", f"estimators.{update}.update", direct, "homodyne.sample_homodyne",
    }
    assert tracer.finish() <= 1e-9
    assert StreamingMoments.update is real_update
    assert ComplexStreamingMoments.update is complex_update
    # an inherited update would be left holding the first wrapper, whichever test traced first
    assert not any(hasattr(cls.update, "__wrapped__") for cls in (StreamingMoments, ComplexStreamingMoments))


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


#: The package's own modules, whose names the README cites as `<module>.<name>` or `tomonoise.<module>.<name>`.
PACKAGE_MODULES = ("states", "homodyne", "kernels", "noise", "estimators", "direct", "floattext", "cli", "errors")


def test_readme_names_resolve():
    # a name the package deletes or renames must leave the README too; file names such as homodyne.py
    # and dotted metric names such as layer.homodyne.sampler are not citations of a name
    text = (ROOT / "README.md").read_text()
    pattern = rf"(?<![\w./-])(?:tomonoise\.)?({'|'.join(PACKAGE_MODULES)})\.(?!py\b)([A-Za-z_]\w*)"
    cited = sorted(set(re.findall(pattern, text)))
    assert len(cited) >= 5, cited
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"tomonoise.{module}"), name)]
    assert not missing
