"""Batch command-line front end: simulate, estimate, compare, sweep.

Every run writes its resolved configuration (defaults filled in) next to the
result file as <out>.config.json: the keys its command reads (_COMMAND_KEYS),
command, max_workers and a timestamp. The timestamp, the only non-reproducible
field, lives there and never in result files. Values from --config win over
conflicting command-line flags, state and state_file as one setting; a run
that succeeds then warns on stderr once per flag whose value the file
changed, and a run that fails prints only its error line.

Exit codes: 0 success, 2 config error, 3 capability error, 4 numeric-range
error, 5 I/O error; every error is one JSON line on stderr. Usage errors (a
flag its command does not read, a missing subcommand, a flag value argparse
cannot read), config-file keys that no command reads and config-file values of
the wrong JSON type (eta a number, n and seed integers, grids lists of
numbers or strings, never null) are config errors; what a number and an
integer are is the rule in errors.py. A config file may hold the keys of other
commands, unread and unchecked, so that one file serves several, and a sidecar
replayed as --config reproduces its run. A record too large to allocate, and
any other MemoryError, is a numeric-range error, and so is a comparison or
an estimate that is not finite; numpy's floating-point warnings are off
during a run, sampling threads included, so that such a refusal stays one
line. Sample blocks are drawn on as many threads as the process has CPUs,
the calling thread and helpers that each homodyne.run_blocks call starts and
joins; TOMONOISE_MAX_WORKERS (a positive integer) lowers that count, and the
count used is recorded in the resolved config as max_workers.

On glibc, main() first sets the allocator policy of the process: arrays up
to a few blocks come from the heap, and freed heap is kept rather than handed
back to the kernel, so blocks reuse memory instead of faulting it in again
(MMAP_THRESHOLD, TRIM_THRESHOLD). Importing the package does not do this.

The process entry, entry(), which `python -m tomonoise.cli` and the tomonoise
script run, freezes the heap left by the imports (gc.freeze) before main(), so
that the collections of the run and the last one at exit skip numpy's and the
package's objects. main() does not freeze: tests and in-process callers run it
in their own heap, whose cyclic garbage a freeze would keep.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import CapabilityError, NumericRangeError, ValidationError, is_integral, is_real
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
from .kernels import NAMED_OBSERVABLES, observable_from_json, observable_to_json
from .noise import empirical_comparison, sweep, write_sweep_csv
from .states import state_from_json, state_to_json

# glibc allocator policy of a CLI run (see _keep_block_memory). The largest per-block array is a
# complex block, 16 B x BLOCK_SIZE = 1 MiB, and at most two blocks per drawing thread are drawn
# but not yet consumed.
#: Arrays below this size come from the heap, not from their own mmap: four complex blocks.
MMAP_THRESHOLD = 4 * 16 * BLOCK_SIZE
#: Free heap memory kept, not handed back to the kernel: room for every drawing thread's blocks.
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
                p.add_argument("--" + key.replace("_", "-"), dest=key, **_KEYS[key][2])
        p.add_argument("--config", help="JSON config file; wins over flags")
    return parser


#: Most points a min:max:step grid may expand to.
MAX_GRID_POINTS = 100_000


def _parse_grid(text) -> list[float]:
    """Finite numbers from a list of numbers, a comma list, or a min:max:step range."""
    try:
        if isinstance(text, (list, tuple)):
            if not all(map(is_real, text)):
                raise TypeError("a grid list holds numbers only")
            values = [float(v) for v in text]
        elif ":" in str(text):
            lo, hi, step = (float(v) for v in str(text).split(":"))
            count = int(round((hi - lo) / step)) + 1 if step > 0 and hi >= lo else 0
            values = [lo + k * step for k in range(count)] if 0 < count <= MAX_GRID_POINTS else None
        else:
            values = [float(v) for v in str(text).split(",")]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"grid {text!r} is not a list of numbers, a comma list or a min:max:step range") from exc
    if values is None:
        raise ValueError(
            f"bad grid range {text!r}: need step > 0, max >= min and at most {MAX_GRID_POINTS} points"
        )
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid {text!r} is empty or holds a non-finite value")
    return values


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _number(value) -> float:
    if not is_real(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if not is_integral(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


#: Every config key but state_file, in sidecar order: how a flag or config-file value is read,
#: the value of an unset key, and the argparse options of its flag --<key> (underscores as
#: dashes); state has the flags --state and --state-file instead. The state reader looks up
#: state_from_json when it runs, so that a wrapper set on this module sees the call.
_KEYS = {
    "state": (lambda value: state_from_json(value), None, None),
    "observable": (observable_from_json, None, {"help": "observable name or inline JSON"}),
    "eta": (_number, 1.0, {"type": float, "help": "quantum efficiency in (0, 1]"}),
    "n": (_integer, 10000, {"type": int, "help": "sample count (per point of an empirical sweep)"}),
    "seed": (_integer, 0, {"type": int, "help": "64-bit RNG seed"}),
    "out": (_text, "", {"help": "output path"}),
    "data": (_text, None, {"help": "dataset file (CSV or JSON)"}),
    "mode": (_text, "analytic", {"choices": ["analytic", "empirical"]}),
    "observables": (_text, "all", {"help": "'all' or comma list of observable names"}),
    "eta_list": (_parse_grid, (1.0,), {"help": "comma list of efficiencies"}),
    "nbar_grid": (_parse_grid, (0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                  {"help": "comma list of mean photon numbers, or min:max:step"}),
}


def _read(key: str, value, reader):
    """A reader's ValidationError is worded for the user already; its other errors are named by key."""
    try:
        return reader(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def _json_value(key: str, value):
    """The JSON value of a state or observable given as text (an observable may be a bare name)."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    if key == "observable" and not text.startswith("{"):
        return {"observable": text}
    return json.loads(text)


def _same(key: str, flag, value) -> bool:
    """Whether a flag and a config-file value give the same setting, without parsing a state."""
    try:
        if key in ("eta_list", "nbar_grid"):
            return _parse_grid(flag) == _parse_grid(value)
        if key in ("state", "observable"):
            return _json_value(key, flag) == _json_value(key, value)
    except ValueError:  # json.JSONDecodeError too
        return False
    return flag == value


def resolve_config(args: argparse.Namespace, overridden: list) -> dict:
    """Merge flags and config file into the run's config; flags whose value the file changed go to overridden.

    state and state_file are one setting: if the file holds either, it replaces
    both flags. The config holds command, the keys its command reads in _KEYS
    order with the defaults filled in, the state as a StateSpec and the
    observable as an Observable, and max_workers.
    """
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
        if key in file_cfg and file_cfg[key] is None:
            raise ValidationError(f"{key}: null is not a value; leave the key out to keep its flag or default")
        flag_val = getattr(args, key)
        setting = ("state", "state_file") if key in ("state", "state_file") else (key,)
        if file_cfg.keys() & set(setting):
            if flag_val is not None and not _same(key, flag_val, file_cfg.get(key)):
                overridden.append(key)
            merged[key] = file_cfg.get(key)
        else:
            merged[key] = flag_val

    cfg = {"command": args.command}
    cfg.update((key, default) for key, (_, default, _) in _KEYS.items() if key in keys)
    # every other value is read before the state file is opened and the state and observable are
    # parsed, so that a bad value is reported before a state file is read
    for key in sorted(list(cfg)[1:], key=("state", "observable").__contains__):
        value = merged[key]
        if key == "state" and merged["state_file"] is not None:
            value = Path(_read("state_file", merged["state_file"], _text)).read_text()
        if value is not None:
            cfg[key] = _read(key, value, _KEYS[key][0])
    cfg["max_workers"] = worker_count()
    if not cfg["out"]:
        raise ValidationError("an output path is required (--out)")
    return cfg


def _emit_config(cfg: dict) -> None:
    resolved = dict(cfg, timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    for key, to_json in (("state", state_to_json), ("observable", observable_to_json)):
        if key in resolved:
            resolved[key] = to_json(resolved[key])
    Path(cfg["out"] + ".config.json").write_text(json.dumps(resolved, indent=2) + "\n")


def _sweep_observables(cfg: dict):
    names = NAMED_OBSERVABLES if cfg["observables"] == "all" else cfg["observables"].split(",")
    return [observable_from_json(name.strip()) for name in names]


def run(cfg: dict) -> None:
    """Execute one resolved configuration, writing result + resolved-config files."""
    command, state, obs, out = cfg["command"], cfg.get("state"), cfg.get("observable"), cfg["out"]
    if command == "simulate":
        if state is None:
            raise ValidationError("simulate needs a state (--state or --state-file)")
        ds = sample_homodyne(state, cfg["eta"], cfg["n"], cfg["seed"])
        if out.endswith(".json"):
            save_dataset_json(ds, out)
        else:
            save_dataset_csv(ds, out)
    elif command == "estimate":
        if not cfg["data"] or obs is None:
            raise ValidationError("estimate needs --data and --observable")
        loader = load_dataset_json if cfg["data"].endswith(".json") else load_dataset_csv
        ds = loader(cfg["data"])
        if obs.real:
            payload = estimate_to_json(estimate_mean(ds, obs))
        else:
            payload = complex_estimate_to_json(estimate_complex(ds, obs))
        if not np.isfinite(np.hstack(list(payload.values()))).all():
            raise NumericRangeError(f"the estimate leaves the float range: {payload}")
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    elif command == "compare":
        if state is None or obs is None:
            raise ValidationError("compare needs a state and an observable")
        row = empirical_comparison(obs, state, cfg["eta"], cfg["n"], cfg["seed"])
        Path(out).write_text(json.dumps(row.to_json(), indent=2) + "\n")
    elif command == "sweep":
        empirical = cfg["mode"] == "empirical"
        rows = sweep(
            _sweep_observables(cfg),
            cfg["nbar_grid"],
            cfg["eta_list"],
            cfg["mode"],
            n=cfg["n"] if empirical else None,
            seed=cfg["seed"] if empirical else None,
        )
        write_sweep_csv(rows, out)
    else:
        raise ValidationError(f"unknown command {command!r}")
    _emit_config(cfg)


def _fail(kind: str, code: int, exc: Exception) -> int:
    print(json.dumps({"error": kind, "exit": code, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    _keep_block_memory()
    overridden = []
    try:
        # Every result is checked to be finite before it is written, so numpy's
        # floating-point warnings would only add lines to the one-line contract.
        with np.errstate(all="ignore"):
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


def entry() -> int:
    """Run main() as a process of its own: the imports' heap is frozen first (gc.freeze)."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
