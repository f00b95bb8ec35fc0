"""Added-noise bookkeeping: tomographic vs direct variances, ratios, sweeps.

Conventions: added noise is (tomographic variance - direct variance); the
linear noise ratio is sqrt(tomographic/direct); the dB ratio is
10*log10(tomographic/direct), i.e. 20*log10 of the linear ratio. For the
complex amplitude both variances are the mean covariance eigenvalue of the
outcome cloud, which makes the added noise exactly nbar/2 for every state and
efficiency. Analytic phase entries use the bright-state limits, variance
pi^2/12 for tomography and 1/(2 eta nbar) for heterodyne, and are marked
asymptotic below PHASE_ASYMPTOTIC_NBAR.

A comparison whose direct variance is zero (the intensity of a Fock state at
eta = 1, or any empirical comparison with n = 1) has no ratio. It raises
CapabilityError naming the zero variance, rather than reporting infinite
ratios, which strict JSON cannot carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import estimators

# heterodyne_phase_variance, empirical_kernel_variance and estimate_complex are
# not called here, but the traced benchmark replay (perfbench/tracing.py) wraps
# them on this module, so they stay importable from it.
from .direct import (  # noqa: F401
    heterodyne_phase_variance,
    intensity_variance_direct,
    quadrature_variance_direct,
    simulate_heterodyne,
    simulate_photocount,
)
from .errors import CapabilityError, NumericRangeError, ValidationError
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
from .states import Coherent, StateSpec, _check_eta, mean_photon, normal_moment, state_tag

#: Mean photon number above which the analytic phase formulas are trusted.
PHASE_ASYMPTOTIC_NBAR = 10.0

SWEEP_COLUMNS = (
    "observable",
    "eta",
    "nbar",
    "tomo_var",
    "direct_var",
    "added_noise",
    "ratio_linear",
    "ratio_db",
    "source",
    "n",
    "seed",
)


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
        return {
            "observable": self.observable,
            "state_tag": self.state_tag,
            "eta": self.eta,
            "tomographic_variance": self.tomographic_variance,
            "direct_variance": self.direct_variance,
            "added_noise": self.added_noise,
            "ratio_linear": self.ratio_linear,
            "ratio_db": self.ratio_db,
            "source": self.source,
            "nbar": self.nbar,
            "n": self.n,
            "seed": self.seed,
        }


def _ratios(tomo: float, direct: float) -> tuple[float, float]:
    if direct <= 0.0:  # zero, or below it by rounding
        # inf ratios would not survive strict JSON, so there is no row to write
        raise CapabilityError(
            f"the direct variance is zero ({direct:.3g}), so the noise ratios are undefined "
            f"(tomographic variance {tomo:.17g})"
        )
    r = tomo / direct
    return math.sqrt(r), 10.0 * math.log10(r)


def _state_moments(state: StateSpec) -> dict:
    nbar = mean_photon(state)
    a1 = normal_moment(state, 0, 1)
    a2 = normal_moment(state, 0, 2)
    n2 = nbar + normal_moment(state, 2, 2).real
    return {"nbar": nbar, "a1": a1, "a2": a2, "n2": n2}


def tomographic_variance_analytic(obs: Observable, state: StateSpec, eta: float) -> float:
    """Variance of the kernel under phase-scanned homodyne sampling."""
    _check_eta(eta)
    mom = _state_moments(state)
    nbar, n2 = mom["nbar"], mom["n2"]
    if isinstance(obs, Intensity):
        dn2 = n2 - nbar * nbar
        return dn2 + 0.5 * n2 + nbar * (2.0 / eta - 1.5) + 1.0 / (2.0 * eta * eta)
    if isinstance(obs, RealField):
        x2 = (2.0 * mom["a2"].real + 2.0 * nbar + 1.0) / 4.0
        dx2 = x2 - mom["a1"].real ** 2
        return dx2 + 0.5 * nbar + (2.0 - eta) / (4.0 * eta)
    if isinstance(obs, ComplexAmplitude):
        return 0.5 * (1.0 / eta + 2.0 * nbar - abs(mom["a1"]) ** 2)
    if isinstance(obs, Phase):
        _require_phase_asymptotic(state, nbar)
        return math.pi**2 / 12.0
    raise CapabilityError(f"no analytic kernel variance for observable {obs!r}")


def direct_variance_analytic(obs: Observable, state: StateSpec, eta: float) -> float:
    """Variance of the matching direct measurement."""
    _check_eta(eta)
    if isinstance(obs, Intensity):
        return intensity_variance_direct(state, eta)
    if isinstance(obs, RealField):
        return quadrature_variance_direct(state, eta)
    if isinstance(obs, ComplexAmplitude):
        mom = _state_moments(state)
        return 0.5 * (mom["nbar"] + 1.0 / eta - abs(mom["a1"]) ** 2)
    if isinstance(obs, Phase):
        nbar = mean_photon(state)
        _require_phase_asymptotic(state, nbar)
        return 1.0 / (2.0 * eta * nbar)
    raise CapabilityError(f"no analytic direct variance for observable {obs!r}")


def _require_phase_asymptotic(state: StateSpec, nbar: float) -> None:
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


def added_noise_analytic(obs: Observable, state: StateSpec, eta: float) -> float:
    """Noise added by the tomographic route relative to direct detection.

    Intensity: (1/2)[<n^2> + nbar (2/eta - 1) + 1/eta^2];
    real field: (1/2)[nbar + 1/(2 eta)]; complex amplitude: nbar/2;
    phase (bright coherent states): pi^2/12 - 1/(2 eta nbar).
    """
    _check_eta(eta)
    mom = _state_moments(state)
    nbar = mom["nbar"]
    if isinstance(obs, Intensity):
        return 0.5 * (mom["n2"] + nbar * (2.0 / eta - 1.0) + 1.0 / (eta * eta))
    if isinstance(obs, RealField):
        return 0.5 * (nbar + 1.0 / (2.0 * eta))
    if isinstance(obs, ComplexAmplitude):
        return 0.5 * nbar
    if isinstance(obs, Phase):
        _require_phase_asymptotic(state, nbar)
        return math.pi**2 / 12.0 - 1.0 / (2.0 * eta * nbar)
    raise CapabilityError(f"no analytic added noise for observable {obs!r}")


def noise_ratio_coherent(obs: Observable, nbar: float, eta: float) -> float:
    """Closed-form linear noise ratio for a coherent state of mean photon number nbar."""
    _check_eta(eta)
    if nbar < 0:
        raise ValidationError(f"mean photon number must be nonnegative, got {nbar}")
    scaled = eta * nbar
    if isinstance(obs, Intensity):
        if nbar == 0:
            raise NumericRangeError("intensity noise ratio diverges at nbar = 0")
        return math.sqrt(2.0 + 0.5 * (scaled + 1.0 / scaled))
    if isinstance(obs, RealField):
        return math.sqrt(2.0 * (1.0 + scaled))
    if isinstance(obs, ComplexAmplitude):
        return math.sqrt(1.0 + scaled)
    if isinstance(obs, Phase):
        if nbar == 0:
            raise NumericRangeError("phase noise ratio is undefined at nbar = 0")
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
    # The direct side goes first: an observable or state it cannot simulate
    # fails before any homodyne sampling.
    direct = _direct_variance(obs, state, eta, n, seed)
    tomo = _tomographic_variance(obs, state, eta, n, seed)
    lin, db = _ratios(tomo, direct)
    return NoiseComparison(
        observable=observable_name(obs),
        state_tag=state_tag(state),
        eta=eta,
        tomographic_variance=tomo,
        direct_variance=direct,
        added_noise=tomo - direct,
        ratio_linear=lin,
        ratio_db=db,
        source="empirical",
        nbar=mean_photon(state),
        n=int(n),
        seed=int(seed),
    )


def analytic_comparison(obs: Observable, state: StateSpec, eta: float) -> NoiseComparison:
    """Closed-form comparison from exact state moments."""
    tomo = tomographic_variance_analytic(obs, state, eta)
    direct = direct_variance_analytic(obs, state, eta)
    lin, db = _ratios(tomo, direct)
    return NoiseComparison(
        observable=observable_name(obs),
        state_tag=state_tag(state),
        eta=eta,
        tomographic_variance=tomo,
        direct_variance=direct,
        added_noise=tomo - direct,
        ratio_linear=lin,
        ratio_db=db,
        source="analytic",
        nbar=mean_photon(state),
    )


def _analytic_coherent_row(obs: Observable, nbar: float, eta: float) -> NoiseComparison:
    # coherent rows report the closed-form ratio (identical to the variance
    # quotient within 1e-12, but exact where the closed form is exact)
    lin = noise_ratio_coherent(obs, nbar, eta)
    db = 20.0 * math.log10(lin)
    state = Coherent(math.sqrt(nbar))
    if isinstance(obs, Phase):
        tomo = math.pi**2 / 12.0
        direct = 1.0 / (2.0 * eta * nbar)
        source = "analytic" if nbar >= PHASE_ASYMPTOTIC_NBAR else "analytic-asymptotic"
        return NoiseComparison(
            observable_name(obs), state_tag(state), eta, tomo, direct, tomo - direct,
            lin, db, source, nbar=nbar,
        )
    row = analytic_comparison(obs, state, eta)
    row.nbar = nbar
    row.ratio_linear = lin
    row.ratio_db = db
    return row


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
    if not all(float(nbar) >= 0.0 for nbar in nbar_grid):
        raise ValidationError(f"mean photon numbers must be nonnegative, got {list(nbar_grid)}")
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


def sweep_rows_to_csv(rows: Iterable[NoiseComparison]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.observable,
                    f"{r.eta:.17g}",
                    "" if r.nbar is None else f"{r.nbar:.17g}",
                    f"{r.tomographic_variance:.17g}",
                    f"{r.direct_variance:.17g}",
                    f"{r.added_noise:.17g}",
                    f"{r.ratio_linear:.17g}",
                    f"{r.ratio_db:.17g}",
                    r.source,
                    "" if r.n is None else str(r.n),
                    "" if r.seed is None else str(r.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows: Iterable[NoiseComparison], path) -> None:
    Path(path).write_text(sweep_rows_to_csv(rows))
