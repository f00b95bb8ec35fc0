#!/usr/bin/env python3
"""tomonoise benchmark: CLI workloads timed end to end, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload mc-coherent --seed 1 --seconds 40 --trace 0

Workloads are `mc-coherent`, `mc-mixed` and `dataset-io` (see workloads.py and
BENCHMARK.json for why each exists). The package is not installed: every
command runs as `python -m tomonoise.cli` with PYTHONPATH=src, one subprocess
after another from this single process (a closed loop with one client).

--trace 0 times passes over the workload's command sequence with tracing off
and reports the end-to-end metrics, scaled by a speed reference timed in the
same run (SPEED_REFERENCE). --trace 1 runs one untraced subprocess
pass, then replays the same commands in-process with spans around the
package's public calls (tracing.py), and times each layer on precomputed inputs
(layers.py); it reports the per-layer metrics.

Every result file is checked (workloads.py), and every pass must reproduce the
first pass's bytes. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the full record, spans included,
goes to <out-dir>/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
IMPORT_CLI = "import tomonoise.cli"
#: The speed reference: a fresh interpreter that imports numpy and scipy.special, no code of this
#: repository. The shared machine slows by up to a third for minutes at a time and the reference
#: slows with it; gated times are scaled to a machine on which it takes REFERENCE_S. A shorter
#: reference (numpy alone, 0.2 s) is quantised by 50 ms scheduling delays and does not track.
SPEED_REFERENCE = "import numpy, scipy.special"
REFERENCE_S = 0.6
#: Fresh interpreters that split the import time in a traced run.
IMPORT_SPLIT_REPEATS = 3

#: Metric names and units to report: end_to_end for --trace 0, per_layer for --trace 1.
DECLARED = ROOT / "BENCHMARK.json"


# ---------------------------------------------------------------- subprocess passes


def run_pass(plan, pass_dir: Path) -> list[dict]:
    """Run the workload's commands one after another; wall time, CPU and peak RSS of each."""
    pass_dir.mkdir(parents=True)
    records = []
    for cmd in plan.commands:
        with open(pass_dir / f"{cmd.out}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "tomonoise.cli", *cmd.argv], cwd=pass_dir,
                                    env=ENV, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        records.append({
            "label": cmd.label, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
        })
    return records


def verify(plan, pass_dir: Path, records: list[dict], reference: dict, verdicts: dict) -> None:
    """Mark each record with its digest and failure; the first digest per command is the reference.

    A command fails when it exits non-zero, its result fails its check, or its
    bytes differ from the first pass (the `<out>.config.json` sidecar, which
    holds a timestamp, is not compared).
    """
    for cmd, rec in zip(plan.commands, records):
        path = pass_dir / cmd.out
        rec["failure"] = None
        if rec["exit"] != 0 or not path.exists():
            err = pass_dir / f"{cmd.out}.stderr"
            stderr = err.read_text(errors="replace").strip()[-300:] if err.exists() else ""
            rec["failure"] = f"exit code {rec['exit']}: {stderr}"
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        rec["sha256"] = digest
        if digest not in verdicts:
            verdicts[digest] = cmd.check(path)
        first = reference.setdefault(cmd.label, digest)
        if verdicts[digest]:
            rec["failure"] = verdicts[digest]
        elif digest != first:
            rec["failure"] = "result bytes differ from the first pass with the same seed"


def fresh_interpreter(code: str, env=ENV) -> float:
    """Wall time of a fresh interpreter that runs `code` and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def import_parts() -> tuple[float, float, float]:
    """One fresh interpreter: (its whole wall time, scipy.special after numpy, tomonoise.cli after both)."""
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import scipy.special; t2 = time.perf_counter(); import tomonoise.cli; "
            "print(t2 - t1, time.perf_counter() - t2)")
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=ENV, check=True, timeout=120,
                         capture_output=True, text=True)
    wall = time.perf_counter() - t0
    scipy_s, own_s = (float(v) for v in out.stdout.split())
    return wall, scipy_s, own_s


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest per-command percentile with at least ten commands beyond it (nearest rank).

    Returns (value, percentile, count). With ten commands or fewer no percentile
    qualifies, and the maximum is returned as percentile 100.
    """
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0, len(ordered)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def timed_passes(plan, run_dir: Path, seconds: float) -> tuple[list[list[dict]], list[float], list[float]]:
    """Timed passes, each after one set-up sample between two speed-reference samples.

    Returns the passes, the set-up samples and the speed-reference samples.
    Stops early when another pass would end after `seconds`.
    """
    fresh_interpreter(IMPORT_CLI)  # untimed: compiles bytecode and warms the file cache
    passes, setup, speed, reference, verdicts = [], [], [], {}, {}
    started = time.perf_counter()
    longest = 0.0
    for k in range(plan.passes):
        if passes and time.perf_counter() - started + longest > seconds:
            break
        lap = time.perf_counter()
        speed.append(fresh_interpreter(SPEED_REFERENCE, os.environ))
        setup.append(fresh_interpreter(IMPORT_CLI))
        speed.append(fresh_interpreter(SPEED_REFERENCE, os.environ))
        pass_dir = run_dir / f"pass{k}"
        records = run_pass(plan, pass_dir)
        verify(plan, pass_dir, records, reference, verdicts)
        shutil.rmtree(pass_dir)
        passes.append(records)
        longest = max(longest, time.perf_counter() - lap)
    return passes, setup, speed


def interquartile_mean(values) -> float:
    """Mean of the values left after a quarter (rounded down) is dropped from each end.

    A command's time on the shared machine falls into a fast and a slow mode;
    the median of a few passes jumps between the two, this mean moves smoothly.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(plan, passes: list[list[dict]], setup: list[float], speed: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics; every time is scaled by REFERENCE_S over the speed-reference time."""
    reference_s = interquartile_mean(speed)
    scale = REFERENCE_S / reference_s
    samples = sum(c.samples for c in plan.commands)
    per_command = [interquartile_mean(p[i]["wall_s"] for p in passes) for i in range(len(plan.commands))]
    wall = sum(per_command)
    commands = [r["wall_s"] for p in passes for r in p]
    tail_value, tail_pct, count = tail(commands)
    values = {
        "setup_s": interquartile_mean(setup) * scale,
        "wall_s": wall * scale,
        "samples_per_s": samples / (wall * scale),
        "cmd_p50_s": statistics.median(per_command) * scale,
        "cmd_tail_s": tail_value * scale,
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p),
        "unscaled.setup_s": interquartile_mean(setup),
        "unscaled.wall_s": wall,
        "reference_s": reference_s,
    }
    notes = {
        "reference_s": f"interquartile mean of {len(speed)} fresh interpreters running {SPEED_REFERENCE!r}; "
                       f"times are scaled by {REFERENCE_S} s over this",
        "unscaled.setup_s": "setup_s before scaling",
        "unscaled.wall_s": "wall_s before scaling",
        "setup_s": f"interquartile mean of {len(setup)} fresh interpreters importing tomonoise.cli, scaled",
        "wall_s": f"{len(plan.commands)} commands, each the interquartile mean of {len(passes)} passes, scaled",
        "samples_per_s": f"{samples} samples generated or read per pass, over wall_s",
        "cmd_p50_s": f"median over {len(plan.commands)} commands, each as in wall_s; they draw or read "
                     f"{min(c.samples for c in plan.commands)} to {max(c.samples for c in plan.commands)} samples",
        "cmd_tail_s": f"p{tail_pct:.1f} over {count} commands"
                      + (" (fewer than 11 commands: the maximum)" if tail_pct == 100.0 else ""),
        "peak_rss_mb": "largest ru_maxrss among the commands",
    }
    return values, notes


# ---------------------------------------------------------------- traced run


def traced_run(plan, args, run_dir: Path) -> tuple[dict, dict, list[list[dict]]]:
    import layers
    import tracing
    import workloads
    from tomonoise import cli

    reference, verdicts = {}, {}
    plain_dir = run_dir / "untraced"
    plain = run_pass(plan, plain_dir)
    verify(plan, plain_dir, plain, reference, verdicts)
    shutil.rmtree(plain_dir)

    tracer = tracing.Tracer()
    traced_dir = run_dir / "traced"
    traced_dir.mkdir()
    traced = []
    cwd = os.getcwd()
    os.chdir(traced_dir)
    try:
        with tracing.instrument(tracer):
            for cmd in plan.commands:
                trace_id = f"{plan.workload}-{args.seed}-{cmd.label}"
                with tracer.span(f"cli.{cmd.argv[0]}", samples=cmd.samples, trace_id=trace_id) as root:
                    try:
                        code = cli.main(cmd.argv)
                    except Exception as exc:  # a crash is this command's failure, not the run's
                        code = f"raised {exc!r}"
                traced.append({"label": cmd.label, "wall_s": root.duration, "exit": code})
    finally:
        os.chdir(cwd)
    verify(plan, traced_dir, traced, reference, verdicts)
    shutil.rmtree(traced_dir)
    balance_err = tracer.finish()

    beta, rho6 = workloads.layer_states(args.seed)
    values = layers.measure(beta, rho6, workloads.ETA, args.seed, run_dir, args.n_scale)
    parts = [import_parts() for _ in range(IMPORT_SPLIT_REPEATS)]
    values["setup_s"], values["states.import_scipy_s"], values["cli.import_own_s"] = (
        statistics.median(column) for column in zip(*parts))
    values["cli.pass_cpu_s"] = sum(r["cpu_s"] for r in plain)
    for rec in plain:
        values[f"cli.{rec['label']}.cpu_s"] = rec["cpu_s"]
        values[f"cli.{rec['label']}.rss_mb"] = rec["rss_mb"]

    spans = tracer.spans
    by_name: dict[str, dict] = {}
    for sp in spans:
        agg = by_name.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "samples": 0, "peak_alloc_mb": None})
        agg["calls"] += 1
        agg["s"] += sp.duration
        agg["self_s"] += sp.self_s
        agg["samples"] += sp.samples
        if sp.peak_alloc_mb is not None:
            agg["peak_alloc_mb"] = max(agg["peak_alloc_mb"] or 0.0, sp.peak_alloc_mb)
    for name, agg in by_name.items():
        if name.startswith(("estimators.estimate_", "noise.empirical_comparison")):
            values[f"{name}.s"] = agg["s"]
            values[f"{name}.self_s"] = agg["self_s"]
            values[f"{name}.ms_per_1e6"] = agg["s"] / agg["samples"] * 1e9 if agg["samples"] else float("nan")
        if agg["peak_alloc_mb"] is not None:
            values[f"{name}.peak_alloc_mb"] = agg["peak_alloc_mb"]
    layer_self: dict[str, float] = {}
    for sp in spans:
        layer = tracing.layer_of(sp.name)
        layer_self[layer] = layer_self.get(layer, 0.0) + sp.self_s
    for layer, s in layer_self.items():
        values[f"layer.{layer}.self_s"] = s
    traced_wall = sum(r["wall_s"] for r in traced)
    untraced_wall = sum(r["wall_s"] for r in plain)
    # the subprocess pass also pays one interpreter start-up and import per command
    values["trace.overhead_s"] = traced_wall - (untraced_wall - len(plain) * values["setup_s"])
    values["trace.samples"] = sum(sp.samples for sp in spans)

    # the samples drawn or read inside each command must add up to the workload's count
    roots = [i for i, sp in enumerate(spans) if sp.parent is None]
    for cmd, root, rec in zip(plan.commands, roots, traced):
        counted = sum(spans[d].samples for d in tracer.descendants(root) if spans[d].name in tracing.SOURCES)
        if counted != cmd.samples and not rec.get("failure"):
            rec["failure"] = f"spans counted {counted} samples drawn or read, want {cmd.samples}"
    if balance_err > 1e-9:
        traced[0]["failure"] = traced[0].get("failure") or f"span self times do not add up (error {balance_err:.3g} s)"

    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "span_balance_max_err_s": balance_err,
        "spans_by_name": by_name,
        "layer_self_s": layer_self,
        "roadmap": layers.roadmap_table(values, {r["label"]: r for r in plain}),
        "roadmap_excluded": layers.ROADMAP_EXCLUDED,
        "spans": tracer.records(),
    }
    return values, detail, [plain, traced]


# ---------------------------------------------------------------- record


def machine_record() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(str(index / "level")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = read(str(index / "size")).strip()
    mem = next((line.split(":", 1)[1].strip() for line in read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), None)
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "l2": caches.get("L2"), "l3": caches.get("L3"),
        "mem_total": mem, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc-coherent", "mc-mixed", "dataset-io"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="cap on the time spent in timed passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", type=Path, default=Path(".perfbench-out"), help="run files and the record")
    parser.add_argument("--n-scale", type=float, default=1.0, help="scale every sample count (smoke tests)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # unwinds, stopping children

    if not (SRC / "tomonoise" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'tomonoise'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    declared = json.loads(DECLARED.read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    load_start = os.getloadavg()
    plan = workloads.build(args.workload, args.seed, args.n_scale)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = args.out_dir / f"{name}.{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            values, detail, passes = traced_run(plan, args, run_dir)
            notes = {}
        else:
            passes, setup, speed = timed_passes(plan, run_dir, args.seconds)
            values, notes = end_to_end(plan, passes, setup, speed)
            detail = {"setup_samples": setup, "reference_samples": speed}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = [r for p in passes for r in p]
    failures = [f"{r['label']}: {r['failure']}" for r in records if r.get("failure")]
    attempted, failed = len(records), len(failures)
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
        "trace": args.trace, "inputs": plan.inputs, "machine": machine_record(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted, "failures": failures,
        "commands": records, "values": values, "notes": notes, **detail,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / f"{name}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    for problem in failures:
        print(f"FAILED {problem}", file=sys.stderr)
    for key in sorted(values):
        if key not in units:
            print(f"  {key} = {values[key]:.6g}" + (f" s  ({notes[key]}; not gated)" if key in notes else ""))
    for key, unit in units.items():
        print(f"{key} = {values[key]:.6g} {unit}" + (f"  ({notes[key]})" if key in notes else ""))
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} commands failed)")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
