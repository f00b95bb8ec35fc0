"""Batch command-line front end: simulate, estimate, compare, sweep.

Every run writes its fully resolved configuration (defaults filled in) next to
the result file as <out>.config.json; the only non-reproducible field, a
timestamp, lives there and never in result files. Values from --config win
over conflicting command-line flags, with a warning on stderr.

Exit codes: 0 success, 2 config error, 3 capability error, 4 numeric-range
error, 5 I/O error. Sample blocks are generated on as many threads as the
process has CPUs; TOMONOISE_MAX_WORKERS (a positive integer) lowers that count,
and the count used is recorded in the resolved config as max_workers.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import CapabilityError, NumericRangeError, ValidationError
from .estimators import (
    complex_estimate_to_json,
    estimate_complex,
    estimate_mean,
    estimate_to_json,
)
from .homodyne import (
    load_dataset_csv,
    load_dataset_json,
    sample_homodyne,
    save_dataset_csv,
    save_dataset_json,
    worker_count,
)
from .kernels import is_real_observable, observable_from_json, observable_to_json
from .noise import empirical_comparison, sweep, write_sweep_csv
from .states import state_from_json, state_to_json

_OBSERVABLE_NAMES = ("intensity", "real_field", "complex_amplitude", "phase")

DEFAULTS = {
    "eta": 1.0,
    "n": 10000,
    "seed": 0,
    "mode": "analytic",
    "observables": "all",
    "eta_list": [1.0],
    "nbar_grid": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
}


@dataclass
class RunConfig:
    command: str
    state: dict | None = None
    observable: dict | None = None
    eta: float = 1.0
    n: int = 10000
    seed: int = 0
    out: str = ""
    data: str | None = None
    mode: str = "analytic"
    observables: str = "all"
    eta_list: list | None = None
    nbar_grid: list | None = None
    max_workers: int | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomonoise",
        description="Homodyne-tomography noise toolkit: data synthesis, kernel "
        "estimation, and tomographic-vs-direct noise comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=True, observable=False):
        if state:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--state-file", help="path to a state JSON file")
            g.add_argument("--state", help="inline state JSON")
        if observable:
            p.add_argument("--observable", help="observable name or inline JSON")
        p.add_argument("--eta", type=float, help="quantum efficiency in (0, 1]")
        p.add_argument("--n", type=int, help="sample count")
        p.add_argument("--seed", type=int, help="64-bit RNG seed")
        p.add_argument("--out", required=False, help="output path")
        p.add_argument("--config", help="JSON config file; wins over flags")

    p = sub.add_parser("simulate", help="generate a homodyne dataset (CSV, or JSON by extension)")
    common(p)
    p = sub.add_parser("estimate", help="run a kernel estimator over a dataset file")
    common(p, state=False, observable=True)
    p.add_argument("--data", help="dataset file (CSV or JSON)")
    p = sub.add_parser("compare", help="empirical tomographic-vs-direct comparison")
    common(p, observable=True)
    p = sub.add_parser("sweep", help="noise-ratio table over coherent states")
    p.add_argument("--observables", help="'all' or comma list of observable names")
    p.add_argument("--eta-list", dest="eta_list", help="comma list of efficiencies")
    p.add_argument(
        "--nbar-grid",
        dest="nbar_grid",
        help="comma list of mean photon numbers, or min:max:step",
    )
    p.add_argument("--mode", choices=["analytic", "empirical"])
    p.add_argument("--n", type=int, help="samples per empirical point")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=False)
    p.add_argument("--config", help="JSON config file; wins over flags")
    return parser


#: Most points a min:max:step grid may expand to.
MAX_GRID_POINTS = 100_000


def _parse_grid(text) -> list[float]:
    """Finite numbers from a list, a comma list, or a min:max:step range."""
    try:
        if isinstance(text, (list, tuple)):
            values = [float(v) for v in text]
        elif ":" in str(text):
            lo, hi, step = (float(v) for v in str(text).split(":"))
            count = int(round((hi - lo) / step)) + 1 if step > 0 and hi >= lo else 0
            if not 0 < count <= MAX_GRID_POINTS:
                raise ValidationError(
                    f"bad grid range {text!r}: need step > 0, max >= min and at most "
                    f"{MAX_GRID_POINTS} points"
                )
            values = [lo + k * step for k in range(count)]
        else:
            values = [float(v) for v in str(text).split(",")]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"grid {text!r} is not a comma list of numbers or a min:max:step range"
        ) from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"grid {text!r} holds a non-finite value")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file does not parse: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValidationError("config file must hold a JSON object")
    merged = {}
    for key in set(flags) | set(file_cfg):
        flag_val = flags.get(key.replace("-", "_"))
        if key in file_cfg:
            if flag_val is not None and file_cfg[key] != flag_val:
                print(
                    f"warning: --{key.replace('_', '-')} overridden by config file value",
                    file=sys.stderr,
                )
            merged[key] = file_cfg[key]
        else:
            merged[key] = flag_val

    cfg = RunConfig(command=args.command)
    state_json = merged.get("state")
    if merged.get("state_file"):
        state_json = json.loads(Path(merged["state_file"]).read_text())
    if state_json is not None:
        cfg.state = state_to_json(state_from_json(state_json))
    if merged.get("observable") is not None:
        cfg.observable = observable_to_json(observable_from_json(merged["observable"]))
    for key in ("eta", "n", "seed", "mode", "observables"):
        if merged.get(key) is not None:
            setattr(cfg, key, merged[key])
        else:
            setattr(cfg, key, DEFAULTS[key])
    cfg.eta = float(cfg.eta)
    cfg.n = int(cfg.n)
    cfg.seed = int(cfg.seed)
    cfg.out = merged.get("out") or ""
    cfg.data = merged.get("data")
    cfg.eta_list = _parse_grid(merged["eta_list"]) if merged.get("eta_list") else DEFAULTS["eta_list"]
    cfg.nbar_grid = (
        _parse_grid(merged["nbar_grid"]) if merged.get("nbar_grid") else DEFAULTS["nbar_grid"]
    )
    cfg.max_workers = worker_count()
    if not cfg.out:
        raise ValidationError("an output path is required (--out)")
    return cfg


def _emit_config(cfg: RunConfig) -> None:
    resolved = asdict(cfg)
    resolved["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    Path(cfg.out + ".config.json").write_text(json.dumps(resolved, indent=2) + "\n")


def _sweep_observables(cfg: RunConfig):
    names = _OBSERVABLE_NAMES if cfg.observables == "all" else cfg.observables.split(",")
    return [observable_from_json(name.strip()) for name in names]


def run(cfg: RunConfig) -> None:
    """Execute one resolved configuration, writing result + resolved-config files."""
    if cfg.command == "simulate":
        if cfg.state is None:
            raise ValidationError("simulate needs a state (--state or --state-file)")
        ds = sample_homodyne(state_from_json(cfg.state), cfg.eta, cfg.n, cfg.seed)
        if cfg.out.endswith(".json"):
            save_dataset_json(ds, cfg.out)
        else:
            save_dataset_csv(ds, cfg.out)
    elif cfg.command == "estimate":
        if not cfg.data or cfg.observable is None:
            raise ValidationError("estimate needs --data and --observable")
        loader = load_dataset_json if cfg.data.endswith(".json") else load_dataset_csv
        ds = loader(cfg.data)
        obs = observable_from_json(cfg.observable)
        if is_real_observable(obs):
            payload = estimate_to_json(estimate_mean(ds, obs))
        else:
            payload = complex_estimate_to_json(estimate_complex(ds, obs))
        Path(cfg.out).write_text(json.dumps(payload, indent=2) + "\n")
    elif cfg.command == "compare":
        if cfg.state is None or cfg.observable is None:
            raise ValidationError("compare needs a state and an observable")
        row = empirical_comparison(
            observable_from_json(cfg.observable),
            state_from_json(cfg.state),
            cfg.eta,
            cfg.n,
            cfg.seed,
        )
        Path(cfg.out).write_text(json.dumps(row.to_json(), indent=2) + "\n")
    elif cfg.command == "sweep":
        rows = sweep(
            _sweep_observables(cfg),
            cfg.nbar_grid,
            cfg.eta_list,
            cfg.mode,
            n=cfg.n if cfg.mode == "empirical" else None,
            seed=cfg.seed if cfg.mode == "empirical" else None,
        )
        write_sweep_csv(rows, cfg.out)
    else:
        raise ValidationError(f"unknown command {cfg.command!r}")
    _emit_config(cfg)


def _fail(kind: str, code: int, exc: Exception) -> int:
    print(json.dumps({"error": kind, "exit": code, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run(resolve_config(args))
    except ValidationError as exc:
        return _fail("config", 2, exc)
    except CapabilityError as exc:
        return _fail("capability", 3, exc)
    except NumericRangeError as exc:
        return _fail("numeric-range", 4, exc)
    except OSError as exc:
        return _fail("io", 5, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
