"""Added-noise bookkeeping: tomographic vs direct variances, ratios, sweeps.

Conventions: added noise is (tomographic variance - direct variance); the
linear noise ratio is sqrt(tomographic/direct); the dB ratio is
10*log10(tomographic/direct), i.e. 20*log10 of the linear ratio. For the
complex amplitude both variances are the mean covariance eigenvalue of the
outcome cloud, which makes the added noise exactly nbar/2 for every state and
efficiency.

Each named observable class in kernels.py carries its own closed forms:
noise(state, eta, nbar, coherent) gives the exact (tomographic, direct, added)
noise from the state's moments, and coherent_ratio(eta nbar) the linear noise
ratio of a coherent state. _analytic checks eta and refuses an observable
without them; analytic_variances, added_noise_analytic and the direct
variances of photon counting and fixed-phase homodyne
(intensity_variance_direct, quadrature_variance_direct) are views of it.
amplitude_noise_direct gives the two covariance eigenvalues of heterodyne
detection, whose mean is the complex amplitude's direct side. Phase has the
bright-state limits only, variance pi^2/12 for tomography and 1/(2 eta nbar)
for heterodyne (Phase.bright), for coherent states of mean photon number at
least Phase.PHASE_ASYMPTOTIC_NBAR; the analytic sweep also writes them below
it, marked asymptotic. Empirically, both routes stream through one _variance:
the tomographic route samples the kernel under phase-scanned homodyne
detection, and the direct route is looked up by observable type in
empirical_comparison, a simulator and a reducer each. Every comparison row,
analytic or empirical, is built by _row, and every row is finite or refused.
A direct variance of zero (the intensity of a Fock state at eta = 1, or any
empirical comparison with n = 1) raises CapabilityError naming it; variances,
a ratio or a mean photon number out of the float range, or a ratio that
underflows to 0, raise NumericRangeError; a variance out of the float range
is refused so even when the direct variance is zero. Strict JSON cannot
carry inf.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import estimators

# heterodyne_phase_variance, empirical_kernel_variance and estimate_complex are
# not called here, but the traced benchmark replay (perfbench/tracing.py) wraps
# them on this module, so they stay importable from it.
from .direct import heterodyne_phase_variance, simulate_heterodyne, simulate_photocount  # noqa: F401
from .errors import CapabilityError, NumericRangeError, ValidationError, is_real
from .estimators import (  # noqa: F401
    ComplexStreamingMoments,
    StreamingMoments,
    empirical_kernel_variance,
    estimate_complex,
)
from .homodyne import sample_fixed_phase, sample_homodyne
from .kernels import (
    ComplexAmplitude,
    Intensity,
    Observable,
    Phase,
    RealField,
)
from .states import (
    Coherent,
    StateSpec,
    check_eta,
    mean_photon,
    normal_moment,
    state_tag,
)

#: Each column of the sweep CSV, in order, and the NoiseComparison field it holds.
SWEEP_COLUMNS = {
    "observable": "observable",
    "eta": "eta",
    "nbar": "nbar",
    "tomo_var": "tomographic_variance",
    "direct_var": "direct_variance",
    "added_noise": "added_noise",
    "ratio_linear": "ratio_linear",
    "ratio_db": "ratio_db",
    "source": "source",
    "n": "n",
    "seed": "seed",
}


@dataclass
class NoiseComparison:
    observable: str
    state_tag: str
    eta: float
    tomographic_variance: float
    direct_variance: float
    added_noise: float
    ratio_linear: float
    ratio_db: float
    source: str
    nbar: float | None = None
    n: int | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        return asdict(self)


def _row(
    obs: Observable,
    state: StateSpec,
    eta: float,
    tomo: float,
    direct: float,
    source: str,
    *,
    ratio: float | None = None,
    nbar: float | None = None,
    **run,
) -> NoiseComparison:
    """The comparison row of one (tomographic, direct) pair; a row that is not finite is refused.

    ratio is a closed-form linear noise ratio (the coherent sweep's); without
    one the ratios are those of the two variances. nbar defaults to the
    state's; run sets n and seed.
    """
    if nbar is None:
        nbar = mean_photon(state)
    # a variance out of the float range (a kernel's 1/eta^2 terms at tiny eta) is refused as
    # such, even when the direct variance is zero too
    in_range = math.isfinite(tomo) and math.isfinite(direct)
    if in_range and direct <= 0.0:  # zero, or below it by rounding
        # inf ratios would not survive strict JSON, so there is no row to write
        raise CapabilityError(
            f"the direct variance is zero ({direct:.3g}), so the noise ratios are undefined "
            f"(tomographic variance {tomo:.17g})"
        )
    closed_form = ratio is not None
    if not closed_form:
        ratio = math.sqrt(tomo / direct) if in_range else math.nan
    if not (all(map(math.isfinite, (tomo, direct, ratio, nbar))) and ratio > 0.0):
        raise NumericRangeError(
            f"the {obs.name} comparison leaves the float range: tomographic variance "
            f"{tomo:.3g}, direct variance {direct:.3g}, noise ratio {ratio:.3g}, mean photon number {nbar:.3g}"
        )
    db = 20.0 * math.log10(ratio) if closed_form else 10.0 * math.log10(tomo / direct)
    return NoiseComparison(
        obs.name, state_tag(state), eta, tomo, direct, tomo - direct, ratio, db, source,
        nbar=nbar, **run,
    )


def _analytic(obs: Observable, state: StateSpec, eta: float) -> tuple[float, float, float]:
    """Exact (tomographic, direct, added) noise of one observable, from the state's moments.

    The added noise is the closed form of tomographic - direct, which keeps the
    digits that subtracting the two variances would cancel. A coherent state's
    central moments are constants: <dn^2> = nbar, <dx^2> = 1/4, |<a>|^2 = nbar;
    the closed forms take them as such, which cancels no digits at bright nbar.
    """
    check_eta(eta)
    nbar = mean_photon(state)
    if not hasattr(obs, "noise"):
        raise CapabilityError(f"no analytic kernel variance for observable {obs!r}")
    return obs.noise(state, eta, nbar, isinstance(state, Coherent))


def analytic_variances(obs: Observable, state: StateSpec, eta: float) -> tuple[float, float]:
    """Exact (tomographic, direct) variances of one observable, from the state's moments.

    Tomography samples the kernel under phase-scanned homodyne detection;
    direct detection is photon counting (intensity), fixed-phase homodyne (real
    field) or heterodyne (complex amplitude, phase). Phase has the bright-state
    limits only, for coherent states of nbar >= Phase.PHASE_ASYMPTOTIC_NBAR.
    """
    tomo, direct, _ = _analytic(obs, state, eta)
    return tomo, direct


def intensity_variance_direct(state: StateSpec, eta: float) -> float:
    """Variance of the rescaled photocurrent n/eta: <dn^2> + nbar (1/eta - 1)."""
    return _analytic(Intensity(), state, eta)[1]


def quadrature_variance_direct(state: StateSpec, eta: float) -> float:
    """Variance of fixed-phase homodyne: <dx^2> + (1 - eta)/(4 eta)."""
    return _analytic(RealField(), state, eta)[1]


def amplitude_noise_direct(state: StateSpec, eta: float) -> tuple[float, float]:
    """Covariance eigenvalues of ideal two-quadrature detection.

    (1/2) [nbar + 1/eta - |<a>|^2 +/- |<a^2> - <a>^2|], largest first; for a
    coherent state both are 1/(2 eta), taken without the subtraction.
    """
    check_eta(eta)
    nbar = mean_photon(state)  # also refuses a state out of the float range
    if isinstance(state, Coherent):
        return 0.5 / eta, 0.5 / eta
    a1 = normal_moment(state, 0, 1)
    a2 = normal_moment(state, 0, 2)
    base = nbar + 1.0 / eta - abs(a1) ** 2
    split = abs(a2 - a1 * a1)
    return 0.5 * (base + split), 0.5 * (base - split)


def added_noise_analytic(obs: Observable, state: StateSpec, eta: float) -> float:
    """Noise added by the tomographic route relative to direct detection, in closed form.

    Intensity: (1/2)[<n^2> + nbar (2/eta - 1) + 1/eta^2];
    real field: (1/2)[nbar + 1/(2 eta)]; complex amplitude: nbar/2;
    phase (bright coherent states): pi^2/12 - 1/(2 eta nbar).
    """
    return _analytic(obs, state, eta)[2]


def noise_ratio_coherent(obs: Observable, nbar: float, eta: float) -> float:
    """Closed-form linear noise ratio for a coherent state of mean photon number nbar."""
    check_eta(eta)
    if not (is_real(nbar) and nbar >= 0):
        raise ValidationError(f"mean photon number must be a nonnegative number, got {nbar!r}")
    if not hasattr(obs, "coherent_ratio"):
        raise CapabilityError(f"no closed-form noise ratio for observable {obs!r}")
    ratio = obs.coherent_ratio(eta * nbar)
    if not math.isfinite(ratio):
        raise NumericRangeError(
            f"the {obs.name} comparison leaves the float range: closed-form noise ratio {ratio:.3g} "
            f"at nbar = {nbar!r}, eta = {eta!r}"
        )
    return ratio


def _variance(obs: Observable, simulate, reducer, state: StateSpec, eta: float, n: int, seed: int) -> float:
    """Variance of one route: simulate(state, eta, n, seed) streamed into reducer(moments).

    A real observable's stream gives its population variance; a complex one's
    the mean eigenvalue of its (Re, Im) covariance.
    """
    acc = StreamingMoments() if obs.real else ComplexStreamingMoments()
    simulate(state, eta, n, seed, reduce=reducer(acc))
    if obs.real:
        return acc.population_variance
    plus, minus = acc.covariance_eigenvalues
    return 0.5 * (plus + minus)


def empirical_comparison(
    obs: Observable, state: StateSpec, eta: float, n: int, seed: int
) -> NoiseComparison:
    """Simulate both routes at the same size and seed and compare their variances.

    The tomographic and direct streams are independent (distinct generator
    purposes). Complex-amplitude and phase comparisons need a coherent state
    because the direct side is heterodyne. Both sides stream: each block's
    kernel values or direct outcomes are merged into running moments as it
    is generated, so memory does not grow with n.
    """
    # nbar first: a state out of the float range is refused before any sampling. The direct
    # side goes next: an observable or state it cannot simulate fails before any homodyne sampling.
    nbar = mean_photon(state)
    # Built per call, not at import, so that it holds the simulators this module holds now: the
    # traced benchmark replay (perfbench/tracing.py) swaps wrappers onto them.
    direct_routes = {
        Intensity: (simulate_photocount, lambda acc: lambda counts: acc.update(counts / eta)),
        RealField: (sample_fixed_phase, lambda acc: acc.update),
        ComplexAmplitude: (simulate_heterodyne, lambda acc: acc.update),
        Phase: (simulate_heterodyne, lambda acc: lambda alphas: acc.update(np.angle(alphas))),
    }
    if type(obs) not in direct_routes:
        raise CapabilityError(f"no direct simulator for observable {obs!r}")
    direct = _variance(obs, *direct_routes[type(obs)], state, eta, n, seed)
    tomo = _variance(obs, sample_homodyne, lambda acc: estimators.kernel_reducer(acc, obs, eta), state, eta, n, seed)
    return _row(obs, state, eta, tomo, direct, "empirical", nbar=nbar, n=int(n), seed=int(seed))


def analytic_comparison(obs: Observable, state: StateSpec, eta: float) -> NoiseComparison:
    """Closed-form comparison from exact state moments."""
    return _row(obs, state, eta, *analytic_variances(obs, state, eta), "analytic")


def _analytic_coherent_row(obs: Observable, nbar: float, eta: float) -> NoiseComparison:
    # coherent rows report the closed-form ratio (identical to the variance
    # quotient within 1e-12, but exact where the closed form is exact)
    ratio = noise_ratio_coherent(obs, nbar, eta)
    state = Coherent(math.sqrt(nbar))
    if isinstance(obs, Phase):
        variances = obs.bright(nbar, eta)
        source = "analytic" if nbar >= obs.PHASE_ASYMPTOTIC_NBAR else "analytic-asymptotic"
    else:
        variances, source = analytic_variances(obs, state, eta), "analytic"
    return _row(obs, state, eta, *variances, source, ratio=ratio, nbar=nbar)


def sweep(
    observables: Iterable[Observable],
    nbar_grid: Sequence[float],
    eta_list: Sequence[float],
    mode: str = "analytic",
    n: int | None = None,
    seed: int | None = None,
) -> list[NoiseComparison]:
    """One NoiseComparison per (observable, eta, nbar) over coherent states.

    Analytic mode evaluates closed forms; empirical mode runs the full
    simulations (n and seed required). Rows come back ordered by
    (observable, eta, nbar).
    """
    observables, nbar_grid, eta_list = list(observables), list(nbar_grid), list(eta_list)
    if not observables or not nbar_grid or not eta_list:
        raise ValidationError("sweep needs nonempty observable, nbar, and eta grids")
    if mode not in ("analytic", "empirical"):
        raise ValidationError(f"mode must be 'analytic' or 'empirical', got {mode!r}")
    if mode == "empirical" and (n is None or seed is None):
        raise ValidationError("empirical sweep needs n and seed")
    if not all(is_real(nbar) and nbar >= 0.0 for nbar in nbar_grid):
        raise ValidationError(f"mean photon numbers must be nonnegative numbers, got {nbar_grid}")
    if not all(map(is_real, eta_list)):
        raise ValidationError(f"efficiencies must be numbers, got {eta_list}")
    rows = []
    for obs in observables:
        for eta in eta_list:
            for nbar in nbar_grid:
                if mode == "analytic":
                    rows.append(_analytic_coherent_row(obs, float(nbar), float(eta)))
                else:
                    state = Coherent(math.sqrt(float(nbar)))
                    row = empirical_comparison(obs, state, float(eta), n, seed)
                    row.nbar = float(nbar)  # grid value, not its sqrt round trip
                    rows.append(row)
    rows.sort(key=lambda r: (r.observable, r.eta, r.nbar))
    return rows


def _cell(value) -> str:
    """A sweep CSV cell: empty for None, '%.17g' for a float, str of anything else."""
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def sweep_rows_to_csv(rows: Iterable[NoiseComparison]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(",".join(_cell(getattr(r, field)) for field in SWEEP_COLUMNS.values()))
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: Iterable[NoiseComparison], path) -> None:
    Path(path).write_text(sweep_rows_to_csv(rows))
