"""The benchmark's workloads: CLI command sequences generated from a seed, with output checks.

The workload seed draws the CLI seeds and a state inside a narrow family; the
program only sees the generated state JSON and flags. Each command carries the
check that decides whether its result file is right.
"""

from __future__ import annotations

import json
import math
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

#: Detector efficiency used by every workload.
ETA = 0.8

WHY = {
    "mc-coherent": (
        "four compare commands on a coherent state at n=4e6: closed-form sampler, kernels, "
        "accumulators and all three direct simulators; bypasses the grid sampler and dataset I/O"
    ),
    "mc-mixed": (
        "two compare commands on a dim-6 mixed state with coherences at n=5e5: stresses the grid "
        "inverse-CDF bisection sampler; bypasses heterodyne and dataset I/O"
    ),
    "dataset-io": (
        "simulate Fock(3) to CSV (n=2e5) and JSON (n=1e5), then estimate from the files: stresses "
        "dataset writers and readers; bypasses direct simulators and the phase-dependent grid sampler"
    ),
}

#: Most passes a run makes; --seconds stops it before a pass that would end later.
#: mc-mixed and dataset-io run smaller commands many times: one command's time swings by about
#: 15 per cent from one run of it to the next, and only many passes average that out.
PASSES = {"mc-coherent": 4, "mc-mixed": 7, "dataset-io": 6}

Check = Callable[[Path], "str | None"]


@dataclass
class Command:
    label: str
    argv: list[str]
    out: str
    samples: int
    check: Check


@dataclass
class Plan:
    workload: str
    passes: int
    commands: list[Command]
    inputs: dict


def build(workload: str, seed: int, n_scale: float = 1.0) -> Plan:
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    make = {"mc-coherent": _mc_coherent, "mc-mixed": _mc_mixed, "dataset-io": _dataset_io}[workload]
    commands, inputs = make(rng, lambda n: max(1000, int(n * n_scale)))
    return Plan(workload, PASSES[workload], commands, inputs)


def _cli_seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def _compare(state_json: dict, rho, obs: str, n: int, seed: int) -> Command:
    argv = [
        "compare", "--state", json.dumps(state_json), "--observable", obs,
        "--eta", repr(ETA), "--n", str(n), "--seed", str(seed), "--out", f"compare_{obs}.json",
    ]
    check = _compare_check(state_json, rho, obs, n, seed)
    return Command(f"compare.{obs}", argv, f"compare_{obs}.json", 2 * n, check)


def mixed_state(rng) -> np.ndarray:
    """Random pure state of dimension 6 mixed with the identity: every band of rho is non-zero."""
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    p = rng.uniform(0.2, 0.4)
    return (1.0 - p) * np.outer(v, v.conj()) + p * np.eye(6) / 6.0


def layer_states(seed: int) -> tuple[float, np.ndarray]:
    """States for the per-layer rows: a coherent amplitude and a dim-6 mixed rho from the seed."""
    rng = np.random.default_rng([seed, zlib.crc32(b"layers")])
    return math.sqrt(rng.uniform(1.0, 8.0)), mixed_state(rng)


def _mc_coherent(rng, size):
    nbar = float(rng.uniform(3.0, 6.0))
    beta = math.sqrt(nbar)
    state = {"type": "coherent", "beta": [beta, 0.0]}
    rho = ref.coherent_rho(beta)
    n = size(4_000_000)
    commands = [
        _compare(state, rho, obs, n, _cli_seed(rng))
        for obs in ("intensity", "real_field", "complex_amplitude", "phase")
    ]
    return commands, {"state": state, "eta": ETA, "n": n}


def _mc_mixed(rng, size):
    rho = mixed_state(rng)
    state = {"type": "mixed", "dim": 6, "rho": [[z.real, z.imag] for z in rho.reshape(-1)]}
    n = size(500_000)
    commands = [
        _compare(state, rho, obs, n, _cli_seed(rng)) for obs in ("intensity", "real_field")
    ]
    return commands, {"state": state, "eta": ETA, "n": n}


def _dataset_io(rng, size):
    state = json.dumps({"type": "fock", "n": 3})
    n_csv, n_json = size(200_000), size(100_000)
    seed_csv, seed_json = _cli_seed(rng), _cli_seed(rng)
    fock = ref.QuadratureModel(ref.fock_rho(3), ETA, kmax=24, phis=np.array([0.0]))
    monomial = '{"observable":"monomial","n":3,"m":3}'
    commands = [
        Command(
            "simulate.csv",
            ["simulate", "--state", state, "--eta", repr(ETA), "--n", str(n_csv), "--seed", str(seed_csv),
             "--out", "fock3.csv"],
            "fock3.csv", n_csv, _csv_header_check(n_csv, seed_csv),
        ),
        Command(
            "estimate.intensity",
            ["estimate", "--data", "fock3.csv", "--observable", "intensity", "--out", "est_intensity.json"],
            "est_intensity.json", n_csv,
            _estimate_check(3.0, ref.kernel_variance(fock, ref.kernel_poly("intensity", ETA)), n_csv),
        ),
        Command(
            "estimate.monomial3_3",
            ["estimate", "--data", "fock3.csv", "--observable", monomial, "--out", "est_monomial.json"],
            "est_monomial.json", n_csv,
            _estimate_check(6.0, ref.kernel_variance(fock, ref.monomial_poly(3, 3, ETA)), n_csv),
        ),
        Command(
            "simulate.json",
            ["simulate", "--state", state, "--eta", repr(ETA), "--n", str(n_json), "--seed", str(seed_json),
             "--out", "fock3.json"],
            "fock3.json", n_json, _json_header_check(n_json, seed_json),
        ),
        Command(
            "estimate.phase",
            ["estimate", "--data", "fock3.json", "--observable", "phase", "--out", "est_phase.json"],
            "est_phase.json", n_json, _estimate_check(0.0, ref.uniform_phase_variance(), n_json),
        ),
    ]
    # the reference model must reproduce the exact Fock(3) means it checks against
    for poly, exact in ((ref.kernel_poly("intensity", ETA), 3.0), (ref.monomial_poly(3, 3, ETA), 6.0)):
        got = float(np.real(fock.mean(poly)))
        if abs(got - exact) > ref.QUADRATURE_RTOL * exact:
            raise RuntimeError(f"reference quadrature gives {got} for an exact Fock(3) value {exact}")
    return commands, {"state": json.loads(state), "eta": ETA, "n": [n_csv, n_json]}


# ---------------------------------------------------------------- output checks


def _read_json(path: Path):
    try:
        return json.loads(path.read_text()), None
    except (OSError, ValueError) as exc:
        return None, f"unreadable result {path.name}: {exc}"


def _compare_check(state_json: dict, rho, obs: str, n: int, seed: int) -> Check:
    """Compare row against analytic_comparison (or the phase densities), within Z_SIGMA stderr."""
    from tomonoise import analytic_comparison, observable_from_json, state_from_json

    beta = state_json["beta"][0] if state_json["type"] == "coherent" else None
    problems_at_setup = []
    if obs == "phase":
        tomo, tomo_v = ref.tomographic_phase(beta, ETA)
        direct, direct_v = ref.heterodyne_phase(beta, ETA)
    else:
        row = analytic_comparison(observable_from_json(obs), state_from_json(state_json), ETA)
        model = ref.QuadratureModel(rho, ETA, kmax=8)
        q_tomo, tomo_v = ref.kernel_variance(model, ref.kernel_poly(obs, ETA), obs == "complex_amplitude")
        q_direct, direct_v = {
            "intensity": lambda: ref.photocount_variance(rho, ETA),
            "real_field": lambda: ref.fixed_phase_variance(rho, ETA),
            "complex_amplitude": lambda: ref.heterodyne_amplitude_variance(ETA),
        }[obs]()
        tomo, direct = row.tomographic_variance, row.direct_variance
        for name, closed, quad in (("tomographic", tomo, q_tomo), ("direct", direct, q_direct)):
            if abs(closed - quad) > ref.QUADRATURE_RTOL * abs(quad):
                problems_at_setup.append(f"analytic {name} variance {closed} != quadrature {quad}")
    tomo_se, direct_se = math.sqrt(tomo_v / n), math.sqrt(direct_v / n)

    def check(path: Path) -> str | None:
        got, err = _read_json(path)
        if err:
            return err
        problems = list(problems_at_setup)
        if got.get("observable") != obs or got.get("n") != n or got.get("seed") != seed:
            problems.append("observable, n or seed do not echo the command")
        t, d = got.get("tomographic_variance", math.nan), got.get("direct_variance", math.nan)
        if not ref.within(t, tomo, tomo_se):
            problems.append(f"tomographic variance {t} vs {tomo} +- {ref.Z_SIGMA}*{tomo_se:.3g}")
        if not ref.within(d, direct, direct_se):
            problems.append(f"direct variance {d} vs {direct} +- {ref.Z_SIGMA}*{direct_se:.3g}")
        if not problems:
            derived = (t - d, math.sqrt(t / d), 10.0 * math.log10(t / d))
            reported = (got.get("added_noise"), got.get("ratio_linear"), got.get("ratio_db"))
            if not all(isinstance(r, float) and math.isclose(r, e, rel_tol=1e-12, abs_tol=1e-12)
                       for r, e in zip(reported, derived)):
                problems.append(f"added_noise/ratios {reported} do not follow from the variances")
        return "; ".join(problems) or None

    return check


def _estimate_check(exact: float, variance: tuple[float, float], n: int) -> Check:
    """Estimate within Z_SIGMA of its own stderr of the exact value; stderr within Z_SIGMA of sd/sqrt(n)."""
    var, var_v = variance
    want_se = math.sqrt(var / n)
    # delta method: se(sample variance) = sqrt(Var(V)/n); se(sd) = that / (2 sd)
    se_of_se = math.sqrt(var_v / n) / (2.0 * math.sqrt(var)) / math.sqrt(n)

    def check(path: Path) -> str | None:
        got, err = _read_json(path)
        if err:
            return err
        value, stderr = got.get("value", math.nan), got.get("stderr", math.nan)
        problems = []
        if got.get("n") != n:
            problems.append(f"n {got.get('n')} != {n}")
        if not (math.isfinite(stderr) and stderr > 0.0 and ref.within(value, exact, stderr)):
            problems.append(f"value {value} vs exact {exact} +- {ref.Z_SIGMA}*{stderr}")
        if not ref.within(stderr, want_se, se_of_se):
            problems.append(f"stderr {stderr} vs {want_se:.6g} +- {ref.Z_SIGMA}*{se_of_se:.3g}")
        return "; ".join(problems) or None

    return check


def _csv_header_check(n: int, seed: int) -> Check:
    header = f"# state=fock(n=3)\n# eta={ETA!r}\n# seed={seed}\n# n={n}\nx,phi\n".encode()

    def check(path: Path) -> str | None:
        data = path.read_bytes()
        if not data.startswith(header):
            return f"CSV header {data[:len(header)]!r} != {header!r}"
        rows = data.count(b"\n") - 5
        if rows != n:
            return f"CSV holds {rows} rows, want {n}"
        return None

    return check


def _json_header_check(n: int, seed: int) -> Check:
    def check(path: Path) -> str | None:
        with path.open("rb") as fh:
            head = fh.read(400).decode("ascii", "replace")
        fields = dict(re.findall(r'"(state_tag|eta|seed|n)": ("[^"]*"|[-0-9.e]+)', head))
        want = {"state_tag": '"fock(n=3)"', "eta": repr(ETA), "seed": str(seed), "n": str(n)}
        return None if fields == want else f"JSON dataset header {fields} != {want}"

    return check
