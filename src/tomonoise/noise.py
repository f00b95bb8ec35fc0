"""Added-noise bookkeeping: tomographic vs direct variances, ratios, sweeps.

Conventions: added noise is (tomographic variance - direct variance); the
linear noise ratio is sqrt(tomographic/direct); the dB ratio is
10*log10(tomographic/direct), i.e. 20*log10 of the linear ratio. For the
complex amplitude both variances are the mean covariance eigenvalue of the
outcome cloud, which makes the added noise exactly nbar/2 for every state and
efficiency.

Every closed form lives here. _analytic is the one analytic dispatch: for
each observable it gives the exact (tomographic, direct) pair from the state's
moments (analytic_variances) and the closed form of their difference
(added_noise_analytic). The direct variances of photon counting and
fixed-phase homodyne, intensity_variance_direct and quadrature_variance_direct,
are views of it; amplitude_noise_direct gives the two covariance eigenvalues
of heterodyne detection, whose mean is the complex amplitude's direct side.
_analytic's phase branch uses the bright-state limits, variance pi^2/12 for
tomography and 1/(2 eta nbar) for heterodyne (_bright_phase), for coherent
states of mean photon number at least PHASE_ASYMPTOTIC_NBAR; the analytic
sweep also writes them below it, marked asymptotic. Every comparison row,
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
    observable_name,
)
from .states import (
    VACUUM_QUADRATURE_VARIANCE,
    Coherent,
    StateSpec,
    _check_eta,
    mean_photon,
    normal_moment,
    state_tag,
)

#: Mean photon number above which the analytic phase formulas are trusted.
PHASE_ASYMPTOTIC_NBAR = 10.0

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
            f"the {observable_name(obs)} comparison leaves the float range: tomographic variance "
            f"{tomo:.3g}, direct variance {direct:.3g}, noise ratio {ratio:.3g}, mean photon number {nbar:.3g}"
        )
    db = 20.0 * math.log10(ratio) if closed_form else 10.0 * math.log10(tomo / direct)
    return NoiseComparison(
        observable_name(obs), state_tag(state), eta, tomo, direct, tomo - direct, ratio, db, source,
        nbar=nbar, **run,
    )


def _bright_phase(nbar: float, eta: float) -> tuple[float, float]:
    """Bright-state limits of the (tomographic, heterodyne) phase variances."""
    return math.pi**2 / 12.0, 0.5 / (eta * nbar)  # not 1/(2 eta nbar): 2 eta nbar overflows first


def _analytic(obs: Observable, state: StateSpec, eta: float) -> tuple[float, float, float]:
    """Exact (tomographic, direct, added) noise of one observable, from the state's moments.

    The added noise is the closed form of tomographic - direct, which keeps the
    digits that subtracting the two variances would cancel.
    """
    _check_eta(eta)
    nbar = mean_photon(state)
    # A coherent state's central moments are constants: <dn^2> = nbar, <dx^2> = 1/4,
    # |<a>|^2 = nbar. Taking them as such cancels no digits at bright nbar.
    coherent = isinstance(state, Coherent)
    if isinstance(obs, Intensity):
        n2 = nbar + normal_moment(state, 2, 2).real
        dn2 = nbar if coherent else n2 - nbar * nbar
        tomo = dn2 + 0.5 * n2 + nbar * (2.0 / eta - 1.5) + 1.0 / (2.0 * eta * eta)
        added = 0.5 * (n2 + nbar * (2.0 / eta - 1.0) + 1.0 / (eta * eta))
        return tomo, dn2 + nbar * (1.0 / eta - 1.0), added
    if isinstance(obs, RealField):
        if coherent:
            dx2 = VACUUM_QUADRATURE_VARIANCE
        else:
            x2 = (2.0 * normal_moment(state, 0, 2).real + 2.0 * nbar + 1.0) / 4.0
            dx2 = x2 - normal_moment(state, 0, 1).real ** 2
        tomo = dx2 + 0.5 * nbar + (2.0 - eta) / (4.0 * eta)
        return tomo, dx2 + (1.0 - eta) / (4.0 * eta), 0.5 * (nbar + 1.0 / (2.0 * eta))
    if isinstance(obs, ComplexAmplitude):
        if coherent:
            return 0.5 * (1.0 / eta + nbar), 0.5 / eta, 0.5 * nbar
        a1_sq = abs(normal_moment(state, 0, 1)) ** 2
        return 0.5 * (1.0 / eta + 2.0 * nbar - a1_sq), 0.5 * (nbar + 1.0 / eta - a1_sq), 0.5 * nbar
    if isinstance(obs, Phase):
        if not isinstance(state, Coherent):
            raise CapabilityError(
                "analytic phase noise is available for bright coherent states only; "
                "use empirical_comparison"
            )
        if nbar < PHASE_ASYMPTOTIC_NBAR:
            raise CapabilityError(
                f"analytic phase noise needs mean photon number >= {PHASE_ASYMPTOTIC_NBAR}; "
                f"got {nbar:.3g}; use empirical_comparison"
            )
        tomo, direct = _bright_phase(nbar, eta)
        return tomo, direct, tomo - direct
    raise CapabilityError(f"no analytic kernel variance for observable {obs!r}")


def analytic_variances(obs: Observable, state: StateSpec, eta: float) -> tuple[float, float]:
    """Exact (tomographic, direct) variances of one observable, from the state's moments.

    Tomography samples the kernel under phase-scanned homodyne detection;
    direct detection is photon counting (intensity), fixed-phase homodyne (real
    field) or heterodyne (complex amplitude, phase). Phase has the bright-state
    limits only, for coherent states of nbar >= PHASE_ASYMPTOTIC_NBAR.
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
    _check_eta(eta)
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
    _check_eta(eta)
    if not (is_real(nbar) and nbar >= 0):
        raise ValidationError(f"mean photon number must be a nonnegative number, got {nbar!r}")
    scaled = eta * nbar
    if isinstance(obs, Intensity):
        if scaled == 0:
            raise NumericRangeError("intensity noise ratio diverges at eta * nbar = 0")
        return math.sqrt(2.0 + 0.5 * (scaled + 1.0 / scaled))
    if isinstance(obs, RealField):
        return math.sqrt(2.0 * (1.0 + scaled))
    if isinstance(obs, ComplexAmplitude):
        return math.sqrt(1.0 + scaled)
    if isinstance(obs, Phase):
        if scaled == 0:
            raise NumericRangeError("phase noise ratio is undefined at eta * nbar = 0")
        return math.pi * math.sqrt(scaled / 6.0)
    raise CapabilityError(f"no closed-form noise ratio for observable {obs!r}")


def _variance(acc) -> float:
    """Population variance of a real stream; mean covariance eigenvalue of a complex one."""
    if isinstance(acc, ComplexStreamingMoments):
        plus, minus = acc.covariance_eigenvalues
        return 0.5 * (plus + minus)
    return acc.population_variance


def _direct_variance(obs: Observable, state: StateSpec, eta: float, n: int, seed: int) -> float:
    if isinstance(obs, Intensity):
        acc = StreamingMoments()
        simulate_photocount(state, eta, n, seed, reduce=lambda counts: acc.update(counts / eta))
    elif isinstance(obs, RealField):
        acc = StreamingMoments()
        sample_fixed_phase(state, eta, n, seed, reduce=acc.update)
    elif isinstance(obs, ComplexAmplitude):
        acc = ComplexStreamingMoments()
        simulate_heterodyne(state, eta, n, seed, reduce=acc.update)
    elif isinstance(obs, Phase):
        acc = StreamingMoments()
        simulate_heterodyne(state, eta, n, seed, reduce=lambda alphas: acc.update(np.angle(alphas)))
    else:
        raise CapabilityError(f"no direct simulator for observable {obs!r}")
    return _variance(acc)


def _tomographic_variance(obs: Observable, state: StateSpec, eta: float, n: int, seed: int) -> float:
    acc = ComplexStreamingMoments() if isinstance(obs, ComplexAmplitude) else StreamingMoments()
    sample_homodyne(state, eta, n, seed, reduce=estimators.kernel_reducer(acc, obs, eta))
    return _variance(acc)


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
    direct = _direct_variance(obs, state, eta, n, seed)
    tomo = _tomographic_variance(obs, state, eta, n, seed)
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
        variances = _bright_phase(nbar, eta)
        source = "analytic" if nbar >= PHASE_ASYMPTOTIC_NBAR else "analytic-asymptotic"
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
    observables = list(observables)
    if not observables or len(list(nbar_grid)) == 0 or len(list(eta_list)) == 0:
        raise ValidationError("sweep needs nonempty observable, nbar, and eta grids")
    if mode not in ("analytic", "empirical"):
        raise ValidationError(f"mode must be 'analytic' or 'empirical', got {mode!r}")
    if mode == "empirical" and (n is None or seed is None):
        raise ValidationError("empirical sweep needs n and seed")
    if not all(is_real(nbar) and nbar >= 0.0 for nbar in nbar_grid):
        raise ValidationError(f"mean photon numbers must be nonnegative numbers, got {list(nbar_grid)}")
    if not all(map(is_real, eta_list)):
        raise ValidationError(f"efficiencies must be numbers, got {list(eta_list)}")
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
