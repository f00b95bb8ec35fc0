import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tomonoise
from tomonoise import cli
from tomonoise.cli import main
from tomonoise.homodyne import BLOCK_SIZE


@pytest.fixture
def coherent_state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"type": "coherent", "beta": [2.0, 0.0]}))
    return str(path)


def _write(path, text):
    path.write_text(text)
    return str(path)


#: Each JSON input: the name its messages start with, the field it must hold (the config file
#: holds none), and argv(text, d), the arguments that give it text (a file input's file is written in d).
JSON_INPUTS = {
    "state": ("state JSON", "type", lambda text, d: ["simulate", "--state", text]),
    "state-file": ("state JSON", "type", lambda text, d: ["simulate", "--state-file", _write(d / "s.json", text)]),
    "observable": ("observable JSON", "observable",
                   lambda text, d: ["compare", "--state", '{"type":"fock","n":1}', "--observable", text]),
    "config": ("config file", None, lambda text, d: ["simulate", "--state", '{"type":"fock","n":1}',
                                                     "--config", _write(d / "c.json", text)]),
    "data": ("dataset JSON", "samples",
             lambda text, d: ["estimate", "--observable", "intensity", "--data", _write(d / "d.json", text)]),
}


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

    @pytest.mark.parametrize("observable", ["intensity", "real_field"])
    def test_plus_state_comparison(self, tmp_path, observable):
        # (|0> + |1>)/sqrt(2): dim 2, so its mean photon number reads a moment of order n + m = dim
        plus = {"type": "mixed", "dim": 2, "rho": [[0.5, 0.0]] * 4}
        out = tmp_path / "cmp.json"
        assert main(["compare", "--state", json.dumps(plus), "--observable", observable,
                     "--n", "20000", "--seed", "5", "--out", str(out)]) == 0
        row = json.loads(out.read_text())
        assert row["nbar"] == 0.5 and row["source"] == "empirical"

    def test_high_fock_level_matches_the_closed_form(self, tmp_path):
        # each variance within 5 standard errors sqrt((m4 - var^2) / n), m4 from independent draws of its law
        state, eta, n = tomonoise.Fock(1000), 0.8, 200_000
        out = tmp_path / "cmp.json"
        assert main(["compare", "--state", '{"type":"fock","n":1000}', "--observable", "real_field",
                     "--eta", "0.8", "--n", str(n), "--seed", "3", "--out", str(out)]) == 0
        row = json.loads(out.read_text())
        exact = tomonoise.analytic_comparison(tomonoise.RealField(), state, eta)
        ds = tomonoise.sample_homodyne(state, eta, n, 101)
        draws = {"tomographic_variance": 2.0 * ds.x * np.cos(ds.phi),
                 "direct_variance": tomonoise.sample_fixed_phase(state, eta, n, 102)}
        for key, values in draws.items():
            centred = values - values.mean()
            se = math.sqrt((np.mean(centred**4) - np.mean(centred**2) ** 2) / n)
            assert abs(row[key] - getattr(exact, key)) < 5.0 * se, key


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

    @pytest.mark.parametrize(
        "observable",
        ['{"observable":"monomial","n":1,"m":1}',
         '{"observable":"polynomial","terms":[{"n":0,"m":1,"c":[0.5,0]},{"n":1,"m":0,"c":[0.5,0]}]}'],
        ids=["monomial", "polynomial"],
    )
    def test_observable_without_a_direct_detector(self, tmp_path, capsys, observable):
        assert main(["compare", "--state", '{"type":"coherent","beta":[1,0]}', "--observable", observable,
                     "--n", "100", "--out", str(tmp_path / "c.json")]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "capability" and "no direct simulator for observable" in err["message"]
        assert not (tmp_path / "c.json").exists()

    def test_repeated_polynomial_term(self, tmp_path, capsys):
        # both terms count, or neither: a repeated (n, m) is refused, not kept as its last term
        data = tmp_path / "d.csv"
        assert main(["simulate", "--state", '{"type":"fock","n":3}', "--n", "100", "--out", str(data)]) == 0
        capsys.readouterr()
        poly = '{"observable":"polynomial","terms":[{"n":1,"m":1,"c":[1,0]},{"n":1,"m":1,"c":[2,0]}]}'
        out = tmp_path / "e.json"
        assert main(["estimate", "--data", str(data), "--observable", poly, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "(n, m) = (1, 1) is repeated" in json.loads(lines[0])["message"]
        assert not out.exists() and not (tmp_path / "e.json.config.json").exists()

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_empty_polynomial(self, tmp_path, capsys, command):
        # refused as a config error before any work: estimate does not open --data, which is missing here
        poly = '{"observable":"polynomial","terms":[]}'
        out = tmp_path / "e.json"
        source = ["--data", str(tmp_path / "missing.csv")] if command == "estimate" else [
            "--state", '{"type":"coherent","beta":[1,0]}', "--n", "100"]
        assert main([command, *source, "--observable", poly, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "at least one term" in json.loads(lines[0])["message"]
        assert not out.exists() and not (tmp_path / "e.json.config.json").exists()

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
            ("wide.csv", "# state=x\n# eta=0.8\n# seed=1\n# n=2\nx,phi\n1.0,0.5,7.0\n2.0,0.5,7.0\n"),
            ("wide.json", '{"state_tag": "x", "eta": 0.8, "seed": 1, "n": 2, "samples": [[1.0, 0.5, 7.0], [2.0, 0.5, 7.0]]}'),
        ],
        ids=["csv-bad-eta", "csv-nan-row", "json-truncated", "csv-three-columns", "json-three-columns"],
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

    def test_override_warns_once_after_a_clean_run(self, tmp_path, coherent_state_file, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"eta": 0.9}))
        assert main(["simulate", "--state-file", coherent_state_file, "--eta", "0.5", "--n", "50",
                     "--out", str(tmp_path / "d.csv"), "--config", str(cfg)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["warning: --eta overridden by config file value"]

    def test_override_of_a_bad_value_leaves_one_error_line(self, tmp_path, coherent_state_file, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"eta": 1.5}))
        assert main(["simulate", "--state-file", coherent_state_file, "--eta", "0.5", "--n", "50",
                     "--out", str(tmp_path / "d.csv"), "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["exit"] == 2

    def test_misspelled_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seeed": 77, "n": 500}))
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--out", str(tmp_path / "d.csv"),
                     "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["message"].startswith("seeed")
        assert not (tmp_path / "d.csv").exists()

    def test_keys_of_other_commands_are_accepted(self, tmp_path, capsys):
        # one file serves several commands
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 50, "observable": "phase", "data": "x.csv", "mode": "empirical",
                                   "eta_list": [1.0], "nbar_grid": "1,2", "observables": "all"}))
        out = tmp_path / "d.csv"
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert len(read_result_rows(out)[1]) == 50

    @pytest.mark.parametrize("other", [{"observable": "bogus"}, {"nbar_grid": "1:x"}, {"mode": 5}])
    def test_keys_of_other_commands_are_not_checked(self, tmp_path, capsys, other):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 50, "seed": 2, **other}))
        out = tmp_path / "d.csv"
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--seed", "1", "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert capsys.readouterr().err.splitlines() == ["warning: --seed overridden by config file value"]
        assert len(read_result_rows(out)[1]) == 50
        assert set(json.loads(Path(str(out) + ".config.json").read_text())).isdisjoint(other)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--state", '{"type":"mixed","dim":2,"rho":[[0.5,0],[0.3,0.1],[0.3,-0.1],[0.5,0]]}',
             "--eta", "0.8", "--n", "300", "--seed", "5"],
            ["estimate", "--observable", "complex_amplitude"],
            ["compare", "--state", '{"type":"coherent","beta":[1,0.5]}', "--observable", "intensity",
             "--eta", "0.7", "--n", "400", "--seed", "6"],
            ["sweep", "--mode", "empirical", "--observables", "phase", "--nbar-grid", "1,2", "--n", "300",
             "--seed", "4"],
        ],
        ids=["simulate", "estimate", "compare", "sweep"],
    )
    def test_replayed_sidecar_reproduces_the_result(self, tmp_path, argv, capsys):
        # the sidecar's own command, max_workers and timestamp keys are accepted
        data = tmp_path / "data.json"
        tomonoise.save_dataset_json(tomonoise.sample_homodyne(tomonoise.Fock(1), 0.8, 200, 1), data)
        if argv[0] == "estimate":
            argv = [*argv, "--data", str(data)]
        out = tmp_path / ("out.json" if argv[0] in ("estimate", "compare") else "out.csv")
        assert main([*argv, "--out", str(out)]) == 0
        first = out.read_bytes()
        sidecar = tmp_path / "run.config.json"
        sidecar.write_bytes(Path(str(out) + ".config.json").read_bytes())
        assert {"command", "max_workers", "timestamp"} <= set(json.loads(sidecar.read_text()))
        out.unlink()
        assert main([argv[0], "--config", str(sidecar)]) == 0
        assert out.read_bytes() == first
        assert capsys.readouterr().err == ""


    @pytest.mark.parametrize(
        "flags, config, level, warned",
        [
            (["--state-file", "s1.json"], {"state": {"type": "fock", "n": 2}}, 2, "--state-file"),
            (["--state", '{"type":"fock","n":2}'], {"state_file": "s1.json"}, 1, "--state"),
            (["--state", '{"type":"fock","n":1}'], {"state_file": "s1.json"}, 1, "--state"),
            (["--state-file", "s1.json"], {"state_file": "s2.json"}, 2, "--state-file"),
        ],
        ids=["file-state-beats-state-file-flag", "file-state-file-beats-state-flag", "other-key-same-state",
             "file-state-file-beats-its-flag"],
    )
    def test_the_files_state_setting_wins(self, tmp_path, monkeypatch, capsys, flags, config, level, warned):
        # state and state_file are one setting: the file's replaces either flag, with one warning
        monkeypatch.chdir(tmp_path)
        Path("s1.json").write_text('{"type":"fock","n":1}')
        Path("s2.json").write_text('{"type":"fock","n":2}')
        Path("c.json").write_text(json.dumps(config))
        assert main(["simulate", *flags, "--n", "5", "--out", "d.csv", "--config", "c.json"]) == 0
        assert capsys.readouterr().err.splitlines() == [f"warning: {warned} overridden by config file value"]
        assert read_result_rows(Path("d.csv"))[0][0] == f"# state=fock(n={level})"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--state", '{ "type": "mixed", "dim": 2, "rho": [[0.5, 0], [0.3, 0.1], [0.3, -0.1], [0.5, 0]] }',
             "--eta", "0.8", "--n", "300", "--seed", "5"],
            ["estimate", "--observable", " complex_amplitude"],
            ["estimate", "--observable", '{"observable": "monomial", "n": 2, "m": 1}'],
            ["compare", "--state", '{"type":"coherent","beta":[1,0.5]}', "--observable", "intensity",
             "--eta", "0.7", "--n", "400", "--seed", "6"],
            ["sweep", "--mode", "empirical", "--observables", "phase", "--nbar-grid", "1:2:1", "--eta-list", "0.5,1",
             "--n", "300", "--seed", "4"],
        ],
        ids=["simulate", "estimate", "estimate-monomial", "compare", "sweep"],
    )
    def test_sidecar_replayed_with_its_own_flags_warns_nothing(self, tmp_path, argv, capsys):
        # the flags give the values the sidecar holds, so no flag is overridden
        data = tmp_path / "data.json"
        tomonoise.save_dataset_json(tomonoise.sample_homodyne(tomonoise.Fock(1), 0.8, 200, 1), data)
        if argv[0] == "estimate":
            argv = [*argv, "--data", str(data)]
        out = tmp_path / ("out.json" if argv[0] in ("estimate", "compare") else "out.csv")
        argv = [*argv, "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        sidecar = tmp_path / "run.config.json"
        sidecar.write_bytes(Path(str(out) + ".config.json").read_bytes())
        out.unlink()
        assert main([*argv, "--config", str(sidecar)]) == 0
        assert out.read_bytes() == first
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "flag, value, config, warns",
        [
            ("--nbar-grid", "1,2", [1, 2], False),
            ("--nbar-grid", "1:2:1", "1, 2", False),
            ("--nbar-grid", "1,2", [1, 3], True),
            ("--eta-list", "x", [1], True),
            ("--observables", "phase", "real_field", True),
        ],
    )
    def test_only_a_changed_flag_warns(self, tmp_path, capsys, flag, value, config, warns):
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: config}))
        assert main(["sweep", f"{flag}={value}", "--out", str(tmp_path / "s.csv"), "--config", str(cfg)]) == 0
        assert capsys.readouterr().err.splitlines() == ([f"warning: {flag} overridden by config file value"]
                                                        if warns else [])


def test_every_flag_is_a_key_its_command_reads():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(cli._COMMAND_KEYS)
    for name, sub in commands.items():
        dests = {a.dest for a in sub._actions} - {"help", "config"}
        # --state-file is the other way to give the state
        keys = {"state" if dest == "state_file" else dest for dest in dests}
        assert keys == set(cli._COMMAND_KEYS[name]), name


@pytest.mark.parametrize("flags", [["--eta", "0.3"], ["--n", "5"], ["--seed", "9"]])
def test_estimate_rejects_flags_it_does_not_read(tmp_path, capsys, flags):
    # estimate takes eta from its dataset and draws nothing
    data = tmp_path / "d.csv"
    tomonoise.save_dataset_csv(tomonoise.sample_homodyne(tomonoise.Fock(1), 0.8, 50, 1), data)
    out = tmp_path / "e.json"
    assert main(["estimate", "--data", str(data), "--observable", "intensity", *flags,
                 "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"
    assert flags[0] in json.loads(lines[0])["message"]
    assert not out.exists()


def test_cli_start_up_leaves_scipy_out(tmp_path):
    # scipy.special costs about 0.3 s of start-up; only the coherent photon-number
    # formula needs it, and imports it when called. Coherent comparisons do not reach it.
    # The squared-kernel coefficients divide exact ints, so fractions (and decimal) stay out too.
    # The dataset codec is imported by the dataset readers and writers that use it: compiling
    # it costs about 8 ms of every command run without a bytecode cache. run_blocks draws blocks
    # on plain threads, so a multi-block run imports neither concurrent.futures nor the logging
    # it pulls in (about 7 ms of a fresh command).
    env = dict(os.environ, PYTHONPATH=str(Path(tomonoise.__file__).parents[1]))
    code = (
        "import sys, tomonoise.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert 'fractions' not in sys.modules, 'fractions'\n"
        "assert 'tomonoise.floattext' not in sys.modules, 'floattext'\n"
        "for obs in ('intensity', 'real_field', 'complex_amplitude', 'phase'):\n"
        "    assert tomonoise.cli.main(['compare', '--state', '{\"type\":\"coherent\",\"beta\":[1,0]}',\n"
        "        '--observable', obs, '--n', '100', '--seed', '1', '--out', sys.argv[1]]) == 0\n"
        "    assert 'scipy' not in sys.modules, obs\n"
        f"assert tomonoise.cli.main(['compare', '--state', '{{\"type\":\"coherent\",\"beta\":[1,0]}}',\n"
        f"    '--observable', 'intensity', '--n', '{3 * BLOCK_SIZE + 5}', '--seed', '1', '--out', sys.argv[1]]) == 0\n"
        "for module in ('concurrent.futures', 'logging'):\n"
        "    assert module not in sys.modules, module\n"
    )
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.json")], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


class TestProcessEntry:
    """python -m tomonoise.cli runs entry(): main() in its own process, the imports' heap frozen first."""

    @staticmethod
    def run_module(*argv, cwd):
        env = dict(os.environ, PYTHONPATH=str(Path(tomonoise.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "tomonoise.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_compare_writes_the_bytes_of_main(self, tmp_path):
        argv = ["compare", "--state", '{"type":"coherent","beta":[1.5,0.5]}', "--observable", "intensity",
                "--eta", "0.8", "--n", str(BLOCK_SIZE + 7), "--seed", "5"]
        run = self.run_module(*argv, "--out", "process.json", cwd=tmp_path)
        assert run.returncode == 0 and run.stderr == "", run.stderr
        assert main([*argv, "--out", str(tmp_path / "main.json")]) == 0
        assert (tmp_path / "process.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    def test_bad_input_exits_2_with_one_json_line(self, tmp_path):
        run = self.run_module("compare", "--state", '{"type":"fock","n":1}', "--observable", "intensity",
                              "--eta", "1.5", "--out", "c.json", cwd=tmp_path)
        assert run.returncode == 2 and run.stdout == ""
        (line,) = run.stderr.splitlines()
        assert json.loads(line)["error"] == "config"
        assert not (tmp_path / "c.json").exists()

    def test_override_warning_reaches_stderr(self, tmp_path):
        (tmp_path / "run.json").write_text(json.dumps({"eta": 0.9}))
        run = self.run_module("simulate", "--state", '{"type":"fock","n":1}', "--eta", "0.5", "--n", "50",
                              "--out", "d.csv", "--config", "run.json", cwd=tmp_path)
        assert run.returncode == 0
        assert run.stderr.splitlines() == ["warning: --eta overridden by config file value"]

    def test_entry_freezes_the_heap_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 3)
        assert cli.entry() == 3
        assert calls == ["freeze", "main"]


class TestErrorContract:
    """Inputs that used to escape with a traceback now exit 2, 3 or 4 with one JSON line."""

    @pytest.mark.parametrize(
        "name, text",
        [
            ("empty.csv", "# state=x\n# eta=0.8\n# seed=1\n# n=0\nx,phi\n"),
            ("empty.json", '{"state_tag": "x", "eta": 0.8, "seed": 1, "samples": []}'),
        ],
        ids=["csv", "json"],
    )
    def test_dataset_without_samples(self, tmp_path, capsys, name, text):
        data = tmp_path / name
        data.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--data", str(data), "--observable", "intensity",
                         "--out", str(tmp_path / "e.json")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "holds no samples" in json.loads(lines[0])["message"]

    @pytest.mark.parametrize(
        "obs",
        [
            {"observable": "monomial", "n": 0, "m": 1},
            {"observable": "polynomial", "terms": [{"n": 0, "m": 1, "c": [0.0, 1.0]}]},
        ],
        ids=["monomial", "polynomial"],
    )
    def test_complex_kernel_estimate(self, tmp_path, obs):
        # <a> of a coherent state with beta = 2, through a kernel that is not real
        data = tmp_path / "d.csv"
        assert main(["simulate", "--state", '{"type":"coherent","beta":[2,0]}', "--n", "50000",
                     "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "e.json"
        assert main(["estimate", "--data", str(data), "--observable", json.dumps(obs),
                     "--out", str(out)]) == 0
        est = json.loads(out.read_text())
        coefficient = complex(*obs["terms"][0]["c"]) if "terms" in obs else 1.0
        value = complex(*est["value"]) / coefficient
        assert value == pytest.approx(2.0, abs=0.05)
        assert est["noise_plus"] >= est["noise_minus"] >= 0 and est["n"] == 50000

    @pytest.mark.parametrize("flag", ["--nbar-grid", "--eta-list"])
    def test_non_numeric_grid(self, tmp_path, capsys, flag):
        assert main(["sweep", flag, "1,x", "--out", str(tmp_path / "s.csv")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--bogus", "1"], ["sweep", "--nbar-grid", "-1,2"], [], ["simulate", "--n", "1.5"]],
        ids=["unknown-flag", "negative-grid", "no-subcommand", "non-integer-n"],
    )
    def test_usage_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "s.csv")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tomonoise sweep")

    @pytest.mark.parametrize("text", ["not json", '{"type":"fock"', ""])
    def test_state_file_not_json(self, tmp_path, capsys, text):
        state = tmp_path / "state.json"
        state.write_text(text)
        assert main(["simulate", "--state-file", str(state), "--out", str(tmp_path / "d.csv")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "state JSON does not parse" in json.loads(lines[0])["message"]

    @pytest.mark.parametrize(
        "name, text",
        [(name, text) for name in JSON_INPUTS for text in ("{not json", "[1]", '{"n": 1}')
         if JSON_INPUTS[name][1] or text != '{"n": 1}'],
    )
    def test_json_inputs_refuse_in_one_form(self, tmp_path, capsys, name, text):
        what, field, argv = JSON_INPUTS[name]
        out = tmp_path / "out.json"
        assert main([*argv(text, tmp_path), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        error = json.loads(lines[0])
        assert len(lines) == 1 and error["error"] == "config" and not out.exists()
        if text == "{not json":
            assert error["message"].startswith(f"{what} does not parse: ")
        else:
            assert error["message"] == f"{what} must be an object" + (f" holding {field!r}" if field else "")

    @pytest.mark.parametrize("flag", ["--state-file", "--config"])
    def test_input_file_not_utf8(self, tmp_path, capsys, flag):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["simulate", flag, str(path), "--out", str(tmp_path / "d.csv")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"

    @pytest.mark.parametrize(
        "key, value", [("n", "abc"), ("eta", "x"), ("out", 5), ("observables", ["phase"]), ("eta", True),
                       ("eta", "0.5")]
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, key, value):
        # a run checks only its own command's keys: observables belongs to sweep
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "d.csv"), key: value}))
        argv = ["sweep"] if key == "observables" else ["simulate", "--state", '{"type":"fock","n":1}']
        assert main([*argv, "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["message"].startswith(f"{key}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--state", '{"type":"fock","n":1.5}'],
            ["simulate", "--state", '{"type":"fock","n":true}'],
            ["simulate", "--state", '{"type":"mixed","dim":1.5,"rho":[[1,0]]}'],
            ["estimate", "--observable", '{"observable":"monomial","n":1.5,"m":1}'],
            ["estimate", "--observable", '{"observable":"monomial","n":1,"m":true}'],
            ["estimate", "--observable",
             '{"observable":"polynomial","terms":[{"n":1.5,"m":1,"c":[1,0]}]}'],
        ],
        ids=["fock-level", "fock-bool", "mixed-dim", "monomial-order", "monomial-bool",
             "polynomial-order"],
    )
    def test_non_integral_json_field(self, tmp_path, capsys, argv):
        data = tmp_path / "d.csv"
        tomonoise.save_dataset_csv(tomonoise.sample_homodyne(tomonoise.Fock(1), 0.8, 100, 5), data)
        extra = ["--data", str(data)] if argv[0] == "estimate" else []
        assert main([*argv, *extra, "--out", str(tmp_path / "out.json")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "integer" in json.loads(lines[0])["message"]
        assert not (tmp_path / "out.json").exists()

    def test_dataset_json_metadata_of_the_wrong_type(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"state_tag": "t", "eta": True, "seed": 1, "n": 1, "samples": [[0.5, 1.25]]}))
        out = tmp_path / "out.json"
        assert main(["estimate", "--data", str(data), "--observable", "intensity", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "eta must be a number" in json.loads(lines[0])["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("n", 2.7), ("n", True), ("seed", 2.5), ("seed", False), ("n", "10"), ("seed", "7")]
    )
    def test_non_integral_config_value(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "d.csv"), key: value}))
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["message"].startswith(f"{key}: expected an integer")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("key, value", [("nbar_grid", [True, "2"]), ("nbar_grid", [1, "2"]),
                                            ("eta_list", ["0.5"]), ("eta_list", [False])])
    def test_grid_list_of_wrong_type(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "s.csv"), key: value}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["message"].startswith(f"{key}: ")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("key, value", [("nbar_grid", "1,2"), ("nbar_grid", "0.1:2:0.1"), ("eta_list", "0.5,1"),
                                            ("nbar_grid", [1, 2.5]), ("eta_list", [1])])
    def test_numbers_and_grid_strings_still_read(self, tmp_path, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "s.csv"), key: value}))
        assert main(["sweep", "--observables", "real_field", "--config", str(cfg)]) == 0
        assert (tmp_path / "s.csv").exists()

    def test_integral_float_config_value_still_reads(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "d.csv"), "n": 20.0, "seed": 3.0}))
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--config", str(cfg)]) == 0
        meta, rows = read_result_rows(tmp_path / "d.csv")
        assert "# n=20" in meta and "# seed=3" in meta and len(rows) == 20

    def test_fock_levels_simulate_up_to_the_grid_resolution(self, tmp_path, capsys):
        # the grid over |x| <= 3 + 2 sqrt(1601) resolves levels up to 666: Fock(1600) is refused
        assert main(["simulate", "--state", '{"type":"fock","n":800}', "--n", "10",
                     "--out", str(tmp_path / "a.csv")]) == 0
        capsys.readouterr()
        assert main(["simulate", "--state", '{"type":"fock","n":1600}', "--n", "10",
                     "--out", str(tmp_path / "b.csv")]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["exit"] == 4 and "photon numbers above 666" in err["message"]
        assert not (tmp_path / "b.csv").exists()

    def test_rho_not_positive(self, tmp_path, capsys):
        # Hermitian, unit trace, nonnegative diagonal, but eigenvalues 1.1 and -0.1
        state = {"type": "mixed", "dim": 2, "rho": [[0.5, 0], [0.6, 0], [0.6, 0], [0.5, 0]]}
        out = tmp_path / "d.csv"
        assert main(["simulate", "--state", json.dumps(state), "--n", "10", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "positive semidefinite" in json.loads(lines[0])["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_rho_not_finite(self, tmp_path, capsys, bad):
        # json reads NaN and Infinity; the Hermiticity and trace checks do not see them
        state = f'{{"type": "mixed", "dim": 2, "rho": [[1, 0], [{bad}, 0], [{bad}, 0], [0, 0]]}}'
        assert main(["simulate", "--state", state, "--n", "10", "--out", str(tmp_path / "d.csv")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "non-finite" in json.loads(lines[0])["message"]

    def test_zero_direct_variance(self, tmp_path, capsys):
        assert main(["compare", "--state", '{"type":"fock","n":2}', "--observable", "intensity",
                     "--n", "1000", "--out", str(tmp_path / "c.json")]) == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "direct variance is zero" in json.loads(lines[0])["message"]
        with pytest.raises(tomonoise.CapabilityError, match="direct variance is zero"):
            tomonoise.analytic_comparison(tomonoise.Intensity(), tomonoise.Fock(2), 1.0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--mode", "analytic", "--eta-list", "0.5", "--nbar-grid", "5e-324"],
            ["sweep", "--mode", "analytic", "--eta-list", "0.5", "--nbar-grid", "1e-320"],
            ["compare", "--state", '{"type":"coherent","beta":[1e155,0]}', "--observable", "real_field",
             "--n", "1000"],
            ["sweep", "--mode", "analytic", "--observables", "phase", "--eta-list", "1", "--nbar-grid", "5e-324"],
            ["sweep", "--mode", "analytic", "--observables", "phase", "--eta-list", "0.5", "--nbar-grid",
             "1e-323"],
            ["compare", "--state", '{"type":"coherent","beta":[1e154,0]}', "--observable", "real_field",
             "--n", "1000"],
            ["compare", "--state", '{"type":"coherent","beta":[3.1e9,0]}', "--observable", "intensity",
             "--n", "1000"],
        ],
        ids=["eta-nbar-zero", "ratio-overflow", "nbar-overflow", "phase-ratio-underflow", "phase-eta-nbar-min",
             "variance-overflow", "poisson-mean"],
    )
    def test_non_finite_comparison(self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would be a second line on stderr
            assert main(argv + ["--out", str(tmp_path / "result")]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "numeric-range"
        for path in tmp_path.iterdir():
            assert "inf" not in path.read_text().lower()

    def test_overflow_on_the_pool(self, tmp_path, capsys, monkeypatch):
        # A coherent |beta| past the largest double puts its quadrature means out of the float
        # range: refused before any block is drawn. run_blocks' own test covers numpy's error
        # state on pool threads.
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--state", '{"type":"coherent","beta":[1.7976931348623157e308,1e308]}',
                         "--n", str(2 * BLOCK_SIZE + 1), "--out", str(tmp_path / "r.csv")]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "numeric-range"
        assert "|beta|" in json.loads(lines[0])["message"]
        assert not (tmp_path / "r.csv").exists()

    def test_subnormal_eta(self, tmp_path, capsys):
        # sqrt(0.25 / eta) overflows for a coherent state: refused with exit 4 before any block is
        # drawn. A Fock state draws after loss and rescales by 1/sqrt(eta): finite outcomes.
        argv = ["simulate", "--eta", "1e-320", "--n", "10", "--out"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + [str(tmp_path / "c.csv"), "--state", '{"type":"coherent","beta":[1,0]}']) == 4
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "numeric-range"
            assert not (tmp_path / "c.csv").exists()
            assert main(argv + [str(tmp_path / "f.csv"), "--state", '{"type":"fock","n":1}']) == 0
        assert tomonoise.load_dataset_csv(tmp_path / "f.csv").n == 10

    def test_largest_coherent_mean_is_simulated(self, tmp_path):
        # |beta| equal to the largest double still fits: its means reach it, never beyond
        path = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--state", '{"type":"coherent","beta":[1.7976931348623157e308,0]}',
                         "--n", "1000", "--out", str(path)]) == 0
        assert "inf" not in path.read_text()

    def test_non_finite_estimate(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        tomonoise.save_dataset_csv(tomonoise.Dataset([1e200, 2e200], [0.5, 1.0], 1.0, "x", 1), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--data", str(data), "--observable", "intensity",
                         "--out", str(tmp_path / "e.json")]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "numeric-range"
        assert not (tmp_path / "e.json").exists()

    # 8 EiB and 64 EiB (x and phi): beyond any x86-64 address space, refused under every overcommit mode
    @pytest.mark.parametrize("n", [2**59, 2**62], ids=["8EiB", "array-too-big"])
    def test_oversized_record(self, tmp_path, capsys, n):
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--n", str(n),
                     "--out", str(tmp_path / "d.csv")]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "numeric-range" and f"n = {n}" in error["message"]
        assert str(16 * n) in error["message"]  # x and phi, 8 bytes each
        assert not (tmp_path / "d.csv").exists()

    def test_memory_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def run(cfg):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli, "run", run)
        assert main(["simulate", "--state", '{"type":"fock","n":1}', "--n", "10",
                     "--out", str(tmp_path / "d.csv")]) == 4
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["message"] == "Unable to allocate 1.00 TiB"

    @pytest.mark.parametrize("key", ["state", "state_file", "eta", "n", "seed", "out"])
    def test_config_null_is_a_config_error(self, tmp_path, capsys, key):
        # a null in the file would otherwise give the key its default over the flag
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "d.csv"), key: None}))
        argv = ["simulate", "--state", '{"type":"fock","n":1}', "--n", "10", "--eta", "0.5", "--seed", "4"]
        assert main([*argv, "--out", str(tmp_path / "d.csv"), "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["message"].startswith(f"{key}: ")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("key", ["observables", "eta_list", "nbar_grid", "mode"])
    def test_sweep_config_null_is_a_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "s.csv"), key: None}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["message"].startswith(f"{key}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--state", '{"type":"coherent","beta":[true,0]}'],
            ["simulate", "--state", '{"type":"mixed","dim":1,"rho":[[true,0]]}'],
            ["estimate", "--observable", '{"observable":"polynomial","terms":[{"n":1,"m":1,"c":[true,0]}]}'],
        ],
        ids=["coherent-beta", "mixed-rho", "polynomial-c"],
    )
    def test_json_bool_is_not_a_number(self, tmp_path, capsys, argv):
        data = tmp_path / "d.csv"
        tomonoise.save_dataset_csv(tomonoise.sample_homodyne(tomonoise.Fock(1), 0.8, 100, 5), data)
        extra = ["--data", str(data)] if argv[0] == "estimate" else []
        assert main([*argv, *extra, "--out", str(tmp_path / "out.json")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "pair of numbers" in json.loads(lines[0])["message"]
        assert not (tmp_path / "out.json").exists()


class TestSidecar:
    """<out>.config.json holds command, the keys its command reads, max_workers and timestamp, in that order."""

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["simulate", "--state", '{"type":"fock","n":1}', "--n", "10"],
             ["state", "eta", "n", "seed", "out"]),
            (["estimate", "--observable", "intensity"], ["observable", "out", "data"]),
            (["compare", "--state", '{"type":"coherent","beta":[1,0]}', "--observable", "intensity",
              "--n", "100"],
             ["state", "observable", "eta", "n", "seed", "out"]),
            (["sweep", "--nbar-grid", "1,2"],
             ["n", "seed", "out", "mode", "observables", "eta_list", "nbar_grid"]),
        ],
        ids=["simulate", "estimate", "compare", "sweep"],
    )
    def test_exact_keys(self, tmp_path, argv, keys):
        data = tmp_path / "data.csv"
        tomonoise.save_dataset_csv(tomonoise.sample_homodyne(tomonoise.Fock(1), 0.8, 50, 1), data)
        if argv[0] == "estimate":
            argv = [*argv, "--data", str(data)]
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert list(json.loads((tmp_path / "out.csv.config.json").read_text())) == [
            "command", *keys, "max_workers", "timestamp"
        ]

    @pytest.mark.parametrize("command", ["simulate", "estimate", "compare", "sweep"])
    def test_sidecar_holds_no_null_and_replays(self, tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        tomonoise.save_dataset_csv(tomonoise.sample_homodyne(tomonoise.Fock(1), 0.8, 50, 1), data)
        argv = {
            "simulate": ["simulate", "--state", '{"type":"fock","n":1}', "--n", "10"],
            "estimate": ["estimate", "--observable", "intensity", "--data", str(data)],
            "compare": ["compare", "--state", '{"type":"coherent","beta":[1,0]}', "--observable", "intensity",
                        "--n", "100"],
            "sweep": ["sweep", "--nbar-grid", "1,2"],
        }[command]
        out, again = tmp_path / "out.csv", tmp_path / "again.csv"
        assert main([*argv, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "out.csv.config.json").read_text())
        assert None not in sidecar.values()
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps({**sidecar, "out": str(again)}))
        assert main([command, "--config", str(replay)]) == 0
        assert again.read_bytes() == out.read_bytes() and capsys.readouterr().err == ""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the allocator policy is glibc's")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_blocks_do_not_refault_memory(tmp_path, monkeypatch, workers):
    # Without the policy glibc hands each block's temporaries back to the kernel and
    # faults them in again: about 25k minor faults a run here.
    monkeypatch.setenv("TOMONOISE_MAX_WORKERS", workers)
    argv = ["compare", "--state", '{"type":"coherent","beta":[2,0]}', "--observable",
            "complex_amplitude", "--n", str(16 * BLOCK_SIZE), "--seed", "3",
            "--out", str(tmp_path / "c.json")]
    assert main(argv) == 0  # warm-up: the heap grows to its working size once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5000


# Probe families of the error contract, mixed with valid inputs.
FUZZ_STATES = [
    '{"type":"coherent","beta":[1.2,-0.4]}', '{"type":"fock","n":2}', '{"type":"fock","n":0}',
    '{"type":"mixed","dim":2,"rho":[[0.5,0],[0.3,0.1],[0.3,-0.1],[0.5,0]]}',
    '{"type":"fock","n":-1}', '{"type":"coherent"}', "not json", '{"type":"squeezed"}',
    '{"type":"fock","n":1.5}', '{"type":"fock","n":1000000}',
]
EMPTY_POLYNOMIAL = '{"observable":"polynomial","terms":[]}'
FUZZ_OBSERVABLES = [
    "intensity", "real_field", "complex_amplitude", "phase", "bogus",
    '{"observable":"monomial","n":0,"m":1}', '{"observable":"monomial","n":2,"m":2}',
    '{"observable":"monomial","n":30,"m":30}', '{"observable":"monomial","n":0}',
    '{"observable":"monomial","n":1.5,"m":1}',
    '{"observable":"polynomial","terms":[{"n":1,"m":0,"c":[1,0]},{"n":0,"m":1,"c":[1,0]}]}',
    '{"observable":"polynomial","terms":[{"n":0,"m":1,"c":[0,1]}]}',
    EMPTY_POLYNOMIAL,
]
FUZZ_STATE_FILES = {
    "state-ok.json": '{"type":"fock","n":1}', "state-text.json": "not json",
    "state-cut.json": '{"type":"fock"', "state-empty.json": "", "state-binary.json": b"\xff\xfe",
}
# Per config key, values of the wrong type.
FUZZ_CONFIG_VALUES = {
    "state": [5, ["fock"]], "state_file": [5, {"path": "x"}], "observable": [5, ["phase"], {"observable": []}],
    "eta": ["x", [1], True, "0.5"], "n": ["abc", {}, 2.7, True, "10"], "seed": ["x", [0], 2.5, False, "7"],
    "out": [5, ["out.csv"]], "data": [5, [1]],
    "mode": [5, ["analytic"]], "observables": [["phase"], 5], "eta_list": [{"a": 1}, [[1]], ["0.5"]],
    "nbar_grid": [{}, ["x"], [True, "2"]],
}
# A config file with a key that no command reads: exit 2 whatever the command.
FUZZ_MISSPELLED_CONFIG = "config-misspelled.json"
# Free-form argv is drawn from these; none starts a long run or names an output file.
FUZZ_TOKENS = [
    "simulate", "estimate", "compare", "sweep", "frob", "--bogus", "1", "20", "1.5", "-1,2", "x",
    "--n", "--seed", "--eta", "0.5", "--nbar-grid", "--mode", "--state", '{"type":"fock","n":1}',
    "--observable", "intensity", "--state-file",
]
FUZZ_DATA = {
    "valid.csv": None, "valid.json": None,
    "header.csv": "# state=x\n# eta=0.8\n# seed=1\n# n=0\nx,phi\n",
    "empty.json": '{"state_tag": "x", "eta": 0.8, "seed": 1, "samples": []}',
    "eta.csv": "# state=x\n# eta=abc\n# seed=1\n# n=1\nx,phi\n0.1,0.2\n",
    "nan.csv": "# state=x\n# eta=0.8\n# seed=1\n# n=1\nx,phi\nnan,0.2\n",
    "cut.json": '{"state_tag": "x", "eta": 0.8, "seed": 1, "samples": [[0.1, 0.2]',
    "missing.csv": None, "binary.json": b"\xff\xfe", "binary.csv": b"\xff\xfe",
    # JSON datasets that the sliced reader leaves to json.loads, or reads as json.loads does
    "order.json": '{"eta": 0.8, "state_tag": "x", "seed": 1, "n": 1, "samples": [[0.1, 0.2]]}',
    "indent.json": json.dumps({"state_tag": "x", "eta": 0.8, "seed": 1, "n": 1, "samples": [[0.1, 0.2]]}, indent=2),
    "nan.json": '{"state_tag": "x", "eta": 0.8, "seed": 1, "n": 1, "samples": [[NaN, 0.2]]}',
    "infinity.json": '{"state_tag": "x", "eta": 0.8, "seed": 1, "n": 1, "samples": [[0.1, Infinity]]}',
    "truncated.json": '{"state_tag": "x", "eta": 0.8, "seed": 1, "n": 2, "samples": [[0.1, 0.2], [0.3, 0',
    "trailing.json": '{"state_tag": "x", "eta": 0.8, "seed": 1, "n": 1, "samples": [[0.1, 0.2]]}]',
    "tag.json": '{"state_tag": "f\\u00f6ck \\"q\\"", "eta": 0.8, "seed": 1, "n": 1, "samples": [[0.1, 0.2]]}',
    "utf8-tag.json": '{"state_tag": "f\u00f6ck", "eta": 0.8, "seed": 1, "n": 1, "samples": [[0.1, 0.2]]}'.encode(),
    "exponent.json": '{"state_tag": "x", "eta": 0.8, "seed": 1, "n": 2, "samples": [[1e-05, 0.2], [-2E3, 1e-320]]}',
    "bigint.json": '{"state_tag": "x", "eta": 0.8, "seed": 1, "n": 1, "samples": [[' + "9" * 400 + ', 0.2]]}',
}


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ds = tomonoise.sample_homodyne(tomonoise.Fock(1), 0.8, 300, 5)
    tomonoise.save_dataset_csv(ds, root / "valid.csv")
    tomonoise.save_dataset_json(ds, root / "valid.json")
    for name, text in {**FUZZ_DATA, **FUZZ_STATE_FILES}.items():
        if isinstance(text, bytes):
            (root / name).write_bytes(text)
        elif text is not None:
            (root / name).write_text(text)
    base = {"state": {"type": "fock", "n": 1}, "observable": "intensity", "data": str(root / "valid.csv"),
            "eta": 0.8, "n": 50, "seed": 1, "mode": "analytic", "observables": "real_field",
            "out": str(root / "config-out.csv")}
    for key, values in FUZZ_CONFIG_VALUES.items():
        for i, value in enumerate(values):
            (root / f"config-{key}-{i}.json").write_text(json.dumps({**base, key: value}))
    (root / FUZZ_MISSPELLED_CONFIG).write_text(json.dumps({**base, "seeed": 77}))
    return root


@st.composite
def cli_argv(draw, data_dir, out):
    """argv and the exit code it must give, or None for any documented code."""
    family = draw(st.sampled_from(["command", "free", "config", "bright", "oversized", "float-range"]))
    command = draw(st.sampled_from(["simulate", "estimate", "compare", "sweep"]))
    if family == "free":
        return [*draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=6)), "--out", out], None
    if family == "bright":
        # |beta| from 26 to 100, far past the number basis's grids: coherent states are closed form
        modulus, angle = draw(st.floats(26.0, 100.0)), draw(st.floats(0.0, 2.0 * math.pi))
        beta = [modulus * math.cos(angle), modulus * math.sin(angle)]
        argv = ["simulate" if command == "simulate" else "compare",
                "--state", json.dumps({"type": "coherent", "beta": beta}),
                "--eta", draw(st.sampled_from(["1.0", "0.8", "0.3"])),
                "--n", str(draw(st.integers(50, 400))), "--seed", str(draw(st.integers(0, 2**64 - 1))),
                "--out", out]
        if argv[0] == "compare":
            argv += ["--observable", draw(st.sampled_from(FUZZ_OBSERVABLES[:4]))]
        return argv, 0
    if family == "float-range":
        # a kernel variance beyond the float range, a photon count beyond numpy's Poisson mean, and
        # an intensity kernel whose 1/eta^2 terms overflow where the direct variance is zero
        state, obs, *eta = draw(st.sampled_from([('{"type":"coherent","beta":[1e154,0]}', "real_field"),
                                                 ('{"type":"coherent","beta":[3.1e9,0]}', "intensity"),
                                                 ('{"type":"fock","n":2}', "intensity", "--eta", "1e-200")]))
        return ["compare", "--state", state, "--observable", obs, *eta, "--n", "1000", "--out", out], 4
    if family == "oversized":
        # 8 EiB and 64 EiB records, which no x86-64 address space holds
        state = draw(st.sampled_from(FUZZ_STATES[:2]))
        return ["simulate", "--state", state, "--n", str(draw(st.sampled_from([2**59, 2**62]))),
                "--out", out], 4
    if family == "config":
        # not the sidecar config-out.csv.config.json that a clean config run leaves here
        configs = sorted(path.name for path in data_dir.glob("config-*.json") if ".config." not in path.name)
        # a flag the config file overrides must not add a warning line to the error line
        flags = draw(st.sampled_from([[], ["--seed", "3"], ["--eta", "0.5"]]))
        name = draw(st.sampled_from(configs))
        # config-<key>-<i>.json: its one wrong value is checked only by a command that reads <key>
        reads = cli._COMMAND_KEYS[command]
        reads += ("state_file",) if "state" in reads else ()
        key = name[len("config-"):].rpartition("-")[0]
        bad = name == FUZZ_MISSPELLED_CONFIG or key in reads or any(flag[2:] not in reads for flag in flags[::2])
        return [command, *flags, "--config", str(data_dir / name)], 2 if bad else 0
    seed = draw(st.sampled_from([0, 7, -1, 2**64]) | st.integers(0, 2**64 - 1))
    n = draw(st.integers(-1, 400))
    if command == "sweep":
        return [
            "sweep", "--mode", draw(st.sampled_from(["analytic", "empirical"])),
            # joined with "=", since argparse takes "-1,2" after a space for an option
            "--nbar-grid=" + draw(st.sampled_from(["1,x", "0.5,2", "1:3:1", "1:2", "3:1:1", "0", "-1,2", "nan"])),
            "--eta-list", draw(st.sampled_from(["0.5,1", "1,x", "2", "0.7"])),
            "--observables", draw(st.sampled_from(["all", "intensity,phase", "real_field", "bogus"])),
            "--n", str(n), "--seed", str(seed), "--out", out,
        ], None
    if command == "estimate":
        data = data_dir / draw(st.sampled_from(sorted(FUZZ_DATA)))
        observable = draw(st.sampled_from(FUZZ_OBSERVABLES))
        # an empty polynomial is refused before --data is opened
        return ["estimate", "--data", str(data), "--observable", observable, "--out", out], \
            2 if observable == EMPTY_POLYNOMIAL else None
    state = draw(st.sampled_from([["--state", text] for text in FUZZ_STATES]
                                 + [["--state-file", str(data_dir / name)] for name in sorted(FUZZ_STATE_FILES)]))
    argv = [command, *state,
            "--eta", draw(st.sampled_from(["1.0", "0.8", "0.3", "0", "1.5", "nan"])),
            "--n", str(n), "--seed", str(seed), "--out", out]
    if command == "compare":
        argv += ["--observable", draw(st.sampled_from(FUZZ_OBSERVABLES))]
        if argv[-1] == EMPTY_POLYNOMIAL:
            return argv, 2
    return argv, None


@settings(max_examples=150)
@given(data=st.data())
def test_cli_fuzz_exit_codes(fuzz_data, data):
    with tempfile.TemporaryDirectory() as out_dir:
        out = str(Path(out_dir) / data.draw(st.sampled_from(["out.json", "out.csv"])))
        argv, expected = data.draw(cli_argv(fuzz_data, out))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 2, 3, 4, 5), argv
    assert expected is None or code == expected, argv
    assert not caught, [str(w.message) for w in caught]
    lines = stderr.getvalue().splitlines()
    if code:
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["exit"] == code
    else:
        # the fuzz config files hold eta and seed values other than the flags' 0.5 and 3
        flags = [arg for arg in argv if arg in ("--eta", "--seed")] if "--config" in argv else []
        assert lines == [f"warning: {flag} overridden by config file value" for flag in flags]
