"""Batch command-line front end: simulate, estimate, compare, sweep.

Every run writes its resolved configuration (defaults filled in) next to the
result file as <out>.config.json: the keys its command reads (_COMMAND_KEYS),
command, max_workers and a timestamp. The timestamp, the only non-reproducible
field, lives there and never in result files. Values from --config win over
conflicting command-line flags; a run that succeeds then warns on stderr once
per overridden flag, and a run that fails prints only its error line.

Exit codes: 0 success, 2 config error, 3 capability error, 4 numeric-range
error, 5 I/O error; every error is one JSON line on stderr. Usage errors (a
flag its command does not read, a missing subcommand, a flag value argparse
cannot read), config-file keys that no command reads and config-file values of
the wrong type are config errors. A config file may hold the keys of other
commands, unread and unchecked, so that one file serves several, and a sidecar
replayed as --config reproduces its run. A record too large to allocate, and
any other MemoryError, is a numeric-range error. Sample blocks are generated
on as many threads as the process has CPUs; TOMONOISE_MAX_WORKERS (a positive
integer) lowers that count, and the count used is recorded in the resolved
config as max_workers.

On glibc, main() first sets the allocator policy of the process: arrays up
to a few blocks come from the heap, and freed heap is kept rather than handed
back to the kernel, so blocks reuse memory instead of faulting it in again
(MMAP_THRESHOLD, TRIM_THRESHOLD). Importing the package does not do this.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import CapabilityError, NumericRangeError, ValidationError
from .estimators import (
    complex_estimate_to_json,
    estimate_complex,
    estimate_mean,
    estimate_to_json,
)
from .homodyne import (
    BLOCK_SIZE,
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

# glibc allocator policy of a CLI run (see _keep_block_memory). The largest per-block array is a
# complex block, 16 B x BLOCK_SIZE = 1 MiB, and each worker has at most two blocks in flight.
#: Arrays below this size come from the heap, not from their own mmap: four complex blocks.
MMAP_THRESHOLD = 4 * 16 * BLOCK_SIZE
#: Free heap memory kept, not handed back to the kernel: room for every worker's blocks.
TRIM_THRESHOLD = 8 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters in glibc's malloc.h


def _keep_block_memory() -> None:
    """Have glibc keep block-sized memory mapped between blocks instead of trimming it.

    By default glibc returns each block's freed temporaries to the kernel and
    faults them in again for the next block. Setting either threshold also
    switches off glibc's dynamic thresholds. Without mallopt (not glibc) this
    does nothing. Only the CLI calls it: importing the package leaves its host's
    allocator alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


@dataclass
class RunConfig:
    """A resolved run; the field defaults are the CLI defaults."""

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
    eta_list: list = field(default_factory=lambda: [1.0])
    nbar_grid: list = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    max_workers: int | None = None


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they leave like every config error."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


#: The config keys each command reads, in the order of its flags: with command,
#: max_workers and a timestamp, also its whole sidecar.
_COMMAND_KEYS = {
    "simulate": ("state", "eta", "n", "seed", "out"),
    "estimate": ("data", "observable", "out"),
    "compare": ("state", "observable", "eta", "n", "seed", "out"),
    "sweep": ("observables", "eta_list", "nbar_grid", "mode", "n", "seed", "out"),
}
_COMMAND_HELP = {
    "simulate": "generate a homodyne dataset (CSV, or JSON by extension)",
    "estimate": "run a kernel estimator over a dataset file",
    "compare": "empirical tomographic-vs-direct comparison",
    "sweep": "noise-ratio table over coherent states",
}
#: argparse options of the flag --<key> (underscores as dashes) of each key but state.
_FLAG_OPTIONS = {
    "observable": {"help": "observable name or inline JSON"},
    "eta": {"type": float, "help": "quantum efficiency in (0, 1]"},
    "n": {"type": int, "help": "sample count (per point of an empirical sweep)"},
    "seed": {"type": int, "help": "64-bit RNG seed"},
    "out": {"help": "output path"},
    "data": {"help": "dataset file (CSV or JSON)"},
    "mode": {"choices": ["analytic", "empirical"]},
    "observables": {"help": "'all' or comma list of observable names"},
    "eta_list": {"help": "comma list of efficiencies"},
    "nbar_grid": {"help": "comma list of mean photon numbers, or min:max:step"},
}
#: Config-file keys that no command reads but a replayed sidecar holds, or that name the state's file.
_OTHER_CONFIG_KEYS = {"state_file", "command", "max_workers", "timestamp"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tomonoise",
        description="Homodyne-tomography noise toolkit: data synthesis, kernel "
        "estimation, and tomographic-vs-direct noise comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        for key in keys:
            if key == "state":
                g = p.add_mutually_exclusive_group()
                g.add_argument("--state-file", help="path to a state JSON file")
                g.add_argument("--state", help="inline state JSON")
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAG_OPTIONS[key])
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
    if not values or not all(math.isfinite(v) for v in values):
        raise ValidationError(f"grid {text!r} is empty or holds a non-finite value")
    return values


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _integer(value) -> int:
    # int() alone would turn 2.7 into 2 and true into 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


#: How the value of each plain config key is read; an unset key keeps its RunConfig default.
_READERS = {
    "eta": float, "n": _integer, "seed": _integer, "out": _text, "data": _text, "mode": _text,
    "observables": _text, "eta_list": _parse_grid, "nbar_grid": _parse_grid,
}


def _read(key: str, value, reader):
    try:
        return reader(value)
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def resolve_config(args: argparse.Namespace, overridden: list) -> RunConfig:
    """Merge flags and config file into a RunConfig; flags the file replaced go to overridden."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file does not parse: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValidationError("config file must hold a JSON object")
        # a key of another command is accepted and left unread, so that one file can serve several
        known = _OTHER_CONFIG_KEYS.union(*_COMMAND_KEYS.values())
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise ValidationError(f"{unknown[0]}: no command reads this config key")
    keys = _COMMAND_KEYS[args.command]
    merged = {}
    for key in (keys + ("state_file",) if "state" in keys else keys):
        flag_val = getattr(args, key)
        if key in file_cfg:
            if flag_val is not None and file_cfg[key] != flag_val:
                overridden.append(key)
            merged[key] = file_cfg[key]
        else:
            merged[key] = flag_val

    cfg = RunConfig(command=args.command)
    for key, reader in _READERS.items():
        if merged.get(key) is not None:
            setattr(cfg, key, _read(key, merged[key], reader))
    state_json = merged.get("state")
    if merged.get("state_file") is not None:
        state_json = Path(_read("state_file", merged["state_file"], _text)).read_text()
    if state_json is not None:
        cfg.state = state_to_json(state_from_json(state_json))
    if merged.get("observable") is not None:
        cfg.observable = observable_to_json(observable_from_json(merged["observable"]))
    cfg.max_workers = worker_count()
    if not cfg.out:
        raise ValidationError("an output path is required (--out)")
    return cfg


def _emit_config(cfg: RunConfig) -> None:
    keys = {"command", "max_workers", *_COMMAND_KEYS[cfg.command]}
    resolved = {key: value for key, value in asdict(cfg).items() if key in keys}
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
    _keep_block_memory()
    overridden = []
    try:
        run(resolve_config(build_parser().parse_args(argv), overridden))
    except (ValidationError, UnicodeDecodeError) as exc:  # the latter from an input file
        return _fail("config", 2, exc)
    except CapabilityError as exc:
        return _fail("capability", 3, exc)
    except (NumericRangeError, MemoryError) as exc:
        return _fail("numeric-range", 4, exc)
    except OSError as exc:
        return _fail("io", 5, exc)
    for key in sorted(overridden):  # only now, so that an error stays a single line
        flag = key.replace("_", "-")
        print(f"warning: --{flag} overridden by config file value", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
