import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import tomonoise

ROOT = Path(__file__).resolve().parents[1]


def test_phase_density_scaling_help():
    # the script has no CLI equivalent, so it is run here to keep it from rotting unseen
    env = dict(os.environ, PYTHONPATH=str(Path(tomonoise.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_density_scaling.py"), "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--eta-list" in proc.stdout


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
