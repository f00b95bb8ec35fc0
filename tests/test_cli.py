import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tomonoise
from tomonoise.cli import main


@pytest.fixture
def coherent_state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"type": "coherent", "beta": [2.0, 0.0]}))
    return str(path)


def read_result_rows(path):
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    return meta, lines[len(meta) + 1 :]


class TestSimulate:
    def test_csv_output_and_metadata(self, tmp_path, coherent_state_file):
        out = tmp_path / "data.csv"
        code = main(
            [
                "simulate",
                "--state-file", coherent_state_file,
                "--eta", "0.8",
                "--n", "10000",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        meta, rows = read_result_rows(out)
        assert len(rows) == 10000
        assert "# eta=0.8" in meta and "# seed=7" in meta and "# n=10000" in meta
        resolved = json.loads((tmp_path / "data.csv.config.json").read_text())
        assert resolved["eta"] == 0.8 and resolved["seed"] == 7
        assert "timestamp" in resolved

    def test_byte_identical_reproducibility(self, tmp_path, coherent_state_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                ["simulate", "--state-file", coherent_state_file, "--n", "2000",
                 "--seed", "3", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()
        # resolved configs differ only in the timestamp metadata field
        ca = json.loads((tmp_path / "a.csv.config.json").read_text())
        cb = json.loads((tmp_path / "b.csv.config.json").read_text())
        ca.pop("timestamp"), cb.pop("timestamp")
        ca.pop("out"), cb.pop("out")
        assert ca == cb


class TestEstimate:
    def test_intensity_estimate(self, tmp_path, coherent_state_file):
        data = tmp_path / "d.csv"
        main(["simulate", "--state-file", coherent_state_file, "--eta", "0.8",
              "--n", "100000", "--seed", "7", "--out", str(data)])
        out = tmp_path / "est.json"
        assert main(["estimate", "--data", str(data), "--observable", "intensity",
                     "--out", str(out)]) == 0
        est = json.loads(out.read_text())
        assert abs(est["value"] - 4.0) < 4 * est["stderr"]
        assert est["n"] == 100000

    def test_complex_amplitude_routes_to_complex_estimator(self, tmp_path, coherent_state_file):
        data = tmp_path / "d.json"
        main(["simulate", "--state-file", coherent_state_file, "--n", "50000",
              "--seed", "2", "--out", str(data)])
        out = tmp_path / "amp.json"
        assert main(["estimate", "--data", str(data), "--observable", "complex_amplitude",
                     "--out", str(out)]) == 0
        est = json.loads(out.read_text())
        assert est["value"][0] == pytest.approx(2.0, abs=0.05)
        assert est["noise_plus"] >= est["noise_minus"] >= 0


class TestSweep:
    def test_analytic_amplitude_rows_exact(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--mode", "analytic", "--eta-list", "1.0",
                     "--nbar-grid", "0.5,1,2,4,8,16", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        amp = [r for r in rows if r["observable"] == "complex_amplitude"]
        assert len(amp) == 6
        for r in amp:
            assert float(r["ratio_linear"]) == math.sqrt(1.0 + float(r["nbar"]))
            assert r["n"] == "" and r["seed"] == ""

    def test_range_grid_syntax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--mode", "analytic", "--observables", "real_field",
                     "--nbar-grid", "1:3:0.5", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 6


class TestCompare:
    def test_phase_comparison(self, tmp_path, coherent_state_file):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--state-file", coherent_state_file, "--observable", "phase",
                     "--n", "50000", "--seed", "5", "--out", str(out)]) == 0
        row = json.loads(out.read_text())
        assert row["source"] == "empirical"
        assert row["added_noise"] == pytest.approx(
            row["tomographic_variance"] - row["direct_variance"]
        )


class TestErrorsAndExitCodes:
    def test_config_error(self, tmp_path, coherent_state_file, capsys):
        code = main(["simulate", "--state-file", coherent_state_file, "--eta", "1.5",
                     "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "config"

    def test_capability_error(self, tmp_path):
        code = main(["compare", "--state", '{"type":"fock","n":1}', "--observable", "phase",
                     "--n", "100", "--seed", "1", "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_numeric_range_error(self, tmp_path, coherent_state_file):
        data = tmp_path / "d.csv"
        main(["simulate", "--state-file", coherent_state_file, "--n", "100",
              "--seed", "1", "--out", str(data)])
        code = main(["estimate", "--data", str(data),
                     "--observable", '{"observable":"monomial","n":30,"m":30}',
                     "--out", str(tmp_path / "x.json")])
        assert code == 4

    def test_io_error(self, coherent_state_file):
        code = main(["simulate", "--state-file", coherent_state_file, "--n", "10",
                     "--seed", "1", "--out", "/nonexistent/dir/x.csv"])
        assert code == 5

    @pytest.mark.parametrize("seed, code", [(-1, 2), (0, 0), (2**64 - 1, 0), (2**64, 2)])
    def test_seed_range(self, tmp_path, capsys, seed, code):
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--n", "10",
                     "--seed", str(seed), "--out", str(tmp_path / "x.csv")]) == code
        if code:
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"

    @pytest.mark.parametrize("workers", ["abc", "0"])
    def test_bad_max_workers(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", workers)
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--n", "10",
                     "--out", str(tmp_path / "x.csv")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "TOMONOISE_MAX_WORKERS" in json.loads(lines[0])["message"]

    def test_max_workers_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "1")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--n", "10",
                     "--out", str(out)]) == 0
        assert json.loads((tmp_path / "x.csv.config.json").read_text())["max_workers"] == 1

    @pytest.mark.parametrize(
        "name, text",
        [
            ("eta.csv", "# state=x\n# eta=abc\n# seed=1\n# n=1\nx,phi\n0.1,0.2\n"),
            ("nan.csv", "# state=x\n# eta=0.8\n# seed=1\n# n=1\nx,phi\nnan,0.2\n"),
            ("cut.json", '{"state_tag": "x", "eta": 0.8, "seed": 1, "samples": [[0.1, 0.2]'),
        ],
        ids=["csv-bad-eta", "csv-nan-row", "json-truncated"],
    )
    def test_bad_dataset_file(self, tmp_path, capsys, name, text):
        data = tmp_path / name
        data.write_text(text)
        assert main(["estimate", "--data", str(data), "--observable", "intensity",
                     "--out", str(tmp_path / "e.json")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
        assert not (tmp_path / "e.json").exists()

    def test_missing_out_is_config_error(self, coherent_state_file):
        assert main(["simulate", "--state-file", coherent_state_file, "--n", "10",
                     "--seed", "1"]) == 2


class TestConfigFile:
    def test_config_wins_with_warning(self, tmp_path, coherent_state_file, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"eta": 0.9, "n": 500}))
        out = tmp_path / "d.csv"
        code = main(["simulate", "--state-file", coherent_state_file, "--eta", "0.5",
                     "--n", "500", "--seed", "1", "--out", str(out),
                     "--config", str(cfg)])
        assert code == 0
        assert "overridden by config file" in capsys.readouterr().err
        resolved = json.loads((tmp_path / "d.csv.config.json").read_text())
        assert resolved["eta"] == 0.9
        meta, rows = read_result_rows(out)
        assert "# eta=0.9" in meta and len(rows) == 500


def test_cli_start_up_leaves_scipy_out(tmp_path):
    # scipy.special costs about 0.3 s of start-up; only the coherent photon-number and
    # density formulas need it, and they import it when called. Coherent comparisons
    # do not reach them.
    env = dict(os.environ, PYTHONPATH=str(Path(tomonoise.__file__).parents[1]))
    code = (
        "import sys, tomonoise.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "for obs in ('intensity', 'real_field', 'complex_amplitude', 'phase'):\n"
        "    assert tomonoise.cli.main(['compare', '--state', '{\"type\":\"coherent\",\"beta\":[1,0]}',\n"
        "        '--observable', obs, '--n', '100', '--seed', '1', '--out', sys.argv[1]]) == 0\n"
        "    assert 'scipy' not in sys.modules, obs\n"
    )
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.json")], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
