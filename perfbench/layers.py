"""Per-layer timings of the package's public functions on precomputed inputs.

Each row times one call site the CLI uses, outside any span, at a fixed size
scaled by --n-scale. A `ns_per_sample` figure is also the number of
milliseconds per 10^6 samples, which is how the ROADMAP baseline states it.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

#: Sample counts at --n-scale 1: samplers and direct simulators, dataset I/O.
SAMPLER_N = 1 << 18
IO_N = 1 << 17
#: One estimator chunk; kernels and accumulators are called on blocks of this size.
CHUNK = 1 << 16


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(coherent_beta: float, rho6: np.ndarray, eta: float, seed: int, workdir: Path,
            n_scale: float = 1.0) -> dict[str, float]:
    from tomonoise import (
        Coherent, ComplexAmplitude, Fock, Intensity, Mixed, Monomial, Phase, RealField,
        kernel_observable, load_dataset_csv, load_dataset_json, sample_fixed_phase,
        sample_homodyne, save_dataset_csv, save_dataset_json, simulate_heterodyne,
        simulate_photocount,
    )
    from tomonoise.estimators import ComplexStreamingMoments, StreamingMoments
    from tomonoise.homodyne import QuadratureGridSampler

    n = max(CHUNK, int(SAMPLER_N * n_scale))
    states = {"coherent": Coherent(coherent_beta), "fock3": Fock(3), "mixed6": Mixed(rho6)}
    rows: dict[str, float] = {}

    def per_sample(fn, count, repeats=3) -> float:
        return _median_s(fn, repeats) / count * 1e9

    for label, state in states.items():
        rows[f"homodyne.sample_homodyne.{label}.ns_per_sample"] = per_sample(
            lambda: sample_homodyne(state, eta, n, seed), n)
    for label in ("coherent", "mixed6"):
        state = states[label]
        rows[f"homodyne.sample_fixed_phase.{label}.ns_per_sample"] = per_sample(
            lambda: sample_fixed_phase(state, eta, n, seed), n)
        rows[f"direct.simulate_photocount.{label}.ns_per_sample"] = per_sample(
            lambda: simulate_photocount(state, eta, n, seed), n)
    rows["direct.simulate_heterodyne.ns_per_sample"] = per_sample(
        lambda: simulate_heterodyne(states["coherent"], eta, n, seed), n)
    rows["homodyne.grid_build_s"] = _median_s(lambda: QuadratureGridSampler(states["mixed6"]), 5)

    block = sample_homodyne(states["coherent"], eta, CHUNK, seed)
    observables = {
        "intensity": Intensity(), "real_field": RealField(), "complex_amplitude": ComplexAmplitude(),
        "phase": Phase(), "monomial3_3": Monomial(3, 3),
    }
    for label, obs in observables.items():
        rows[f"kernels.kernel_observable.{label}.ns_per_sample"] = per_sample(
            lambda: kernel_observable(obs, eta, block.x, block.phi), CHUNK, repeats=15)
    real_vals = kernel_observable(Intensity(), eta, block.x, block.phi)
    complex_vals = kernel_observable(ComplexAmplitude(), eta, block.x, block.phi)
    rows["estimators.StreamingMoments.update.ns_per_sample"] = per_sample(
        lambda: StreamingMoments().update(real_vals), CHUNK, repeats=15)
    rows["estimators.ComplexStreamingMoments.update.ns_per_sample"] = per_sample(
        lambda: ComplexStreamingMoments().update(complex_vals), CHUNK, repeats=15)

    io_n = max(1000, int(IO_N * n_scale))
    dataset = sample_homodyne(states["fock3"], eta, io_n, seed)
    for fmt, save, load in (("csv", save_dataset_csv, load_dataset_csv),
                            ("json", save_dataset_json, load_dataset_json)):
        path = workdir / f"layer_dataset.{fmt}"
        save_s = _median_s(lambda: save(dataset, path), 1)
        size = path.stat().st_size
        load_s = _median_s(lambda: load(path), 1)
        for op, seconds, fn in (("save", save_s, lambda: save(dataset, path)), ("load", load_s, lambda: load(path))):
            key = f"homodyne.{op}_dataset_{fmt}"
            rows[f"{key}.mb_per_s"] = size / 1e6 / seconds
            rows[f"{key}.bytes"] = size
            rows[f"{key}.peak_alloc_mb"] = _peak_alloc_mb(fn)
            rows[f"{key}.ns_per_sample"] = seconds / io_n * 1e9
        path.unlink()
    return rows


#: ROADMAP Open item 1 baseline rows (n = 10^6, best of 3): (row, ROADMAP figure, metric, unit).
#: ns_per_sample and ms_per_1e6 metrics read directly as milliseconds per 10^6 samples.
ROADMAP_ROWS = [
    ("sample_homodyne coherent", "132 ms", "homodyne.sample_homodyne.coherent.ns_per_sample", "ms per 1e6"),
    ("sample_homodyne Fock(3)", "178 ms", "homodyne.sample_homodyne.fock3.ns_per_sample", "ms per 1e6"),
    ("sample_homodyne mixed dim 6", "1609 ms", "homodyne.sample_homodyne.mixed6.ns_per_sample", "ms per 1e6"),
    ("estimate_mean intensity", "6 ms", "estimators.estimate_mean.intensity.ms_per_1e6", "ms per 1e6"),
    ("estimate_mean phase", "14 ms", "estimators.estimate_mean.phase.ms_per_1e6", "ms per 1e6"),
    ("estimate_mean monomial(3,3)", "41 ms", "estimators.estimate_mean.monomial3_3.ms_per_1e6", "ms per 1e6"),
    ("estimate_complex", "53 ms", "estimators.estimate_complex.ms_per_1e6", "ms per 1e6"),
    ("simulate_photocount", "184 ms", "direct.simulate_photocount.coherent.ns_per_sample", "ms per 1e6"),
    ("simulate_heterodyne", "79 ms", "direct.simulate_heterodyne.ns_per_sample", "ms per 1e6"),
    ("save_dataset_csv", "4308 ms", "homodyne.save_dataset_csv.ns_per_sample", "ms per 1e6"),
    ("load_dataset_csv", "1401 ms", "homodyne.load_dataset_csv.ns_per_sample", "ms per 1e6"),
    ("save_dataset_json", "4541 ms", "homodyne.save_dataset_json.ns_per_sample", "ms per 1e6"),
    ("load_dataset_json", "2729 ms", "homodyne.load_dataset_json.ns_per_sample", "ms per 1e6"),
    ("CLI simulate 1e6 -> CSV", "4.6 s, 86 MB", "cli.simulate.csv", "wall, peak RSS at n = 2e5"),
    ("CLI compare phase 1e6 / 1e7", "1.1 s, 102 MB / 3.3 s, 515 MB", "cli.compare.phase",
     "wall, peak RSS at n = 4e6"),
    ("import tomonoise", "0.6-0.7 s", "setup_s", "s"),
    ("  of which scipy.special", "~0.3 s", "states.import_scipy_s", "s"),
]

#: ROADMAP rows the benchmark leaves out, and why.
ROADMAP_EXCLUDED = {
    "quadrature_pdf coherent, eta = 0.7, 1000 points": "no CLI command calls quadrature_pdf",
    "square_kernel_monomial(5,5)": "no CLI command calls square_kernel_monomial",
    "tier-1 suite": "a test-suite timing, not a path of any CLI workload",
}


def roadmap_table(values: dict[str, float], commands: dict[str, dict]) -> list[dict]:
    """ROADMAP rows beside this run's figures; rows off this workload's path say so."""
    table = []
    for row, roadmap, metric, unit in ROADMAP_ROWS:
        if metric.startswith("cli."):
            rec = commands.get(metric[len("cli."):])
            measured = rec and f"{rec['wall_s']:.2f} s, {rec['rss_mb']:.0f} MB"
        else:
            measured = f"{values[metric]:.4g}" if metric in values else None
        table.append({"row": row, "roadmap": roadmap, "measured": measured or "not on this workload's path",
                      "unit": unit, "metric": metric})
    return table
