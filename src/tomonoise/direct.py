"""Direct-detection counterparts of the tomographic estimators.

Photon counting (Bernoulli-thinned number statistics), fixed-phase homodyne,
and heterodyne detection of coherent states, plus the corresponding analytic
variances computed from exact state moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, NumericRangeError, ValidationError
from .estimators import StreamingMoments, accumulate
from .homodyne import PURPOSE_HETERODYNE, PURPOSE_PHOTOCOUNT, generate, sample_count
from .states import (
    Coherent,
    Fock,
    Mixed,
    StateSpec,
    _check_eta,
    mean_photon,
    normal_moment,
    photon_distribution,
    smearing_variance,
    state_tag,
    validate_state,
)


#: The largest mean numpy's Generator.poisson accepts (its POISSON_LAM_MAX).
POISSON_LAM_MAX = 9.223372006484771e18


@dataclass
class PhotocountRecord:
    counts: np.ndarray
    eta: float
    seed: int
    state_tag: str

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or self.counts.size < 1 or (self.counts < 0).any():
            raise ValidationError("counts must be a nonempty array of nonnegative integers")
        _check_eta(self.eta)

    @property
    def n(self) -> int:
        return self.counts.size


@dataclass
class HeterodyneRecord:
    alphas: np.ndarray
    eta: float
    seed: int
    state_tag: str

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=complex)
        if self.alphas.ndim != 1 or self.alphas.size < 1 or not np.isfinite(self.alphas).all():
            raise ValidationError("alphas must be a nonempty array of finite complex numbers")
        _check_eta(self.eta)

    @property
    def n(self) -> int:
        return self.alphas.size


def simulate_photocount(
    state: StateSpec, eta: float, n: int, seed: int, reduce=None
) -> PhotocountRecord | None:
    """Draw true photon numbers, then thin each binomially with success probability eta.

    With reduce, each block goes to reduce(counts) instead (see
    homodyne.generate), and None is returned.
    """
    n = sample_count(state, eta, n)
    if isinstance(state, Mixed):
        probs, _ = photon_distribution(state, state.dim)
        cdf = np.cumsum(probs / probs.sum())
    if isinstance(state, Coherent) and abs(state.beta) ** 2 > POISSON_LAM_MAX:
        raise NumericRangeError(
            f"photon counts of |beta|^2 = {abs(state.beta) ** 2!r} exceed the largest Poisson mean "
            f"numpy draws, {POISSON_LAM_MAX!r}"
        )

    def draw(rng, k):
        if isinstance(state, Coherent):
            true = rng.poisson(abs(state.beta) ** 2, k)
        elif isinstance(state, Fock):
            true = np.full(k, state.n, dtype=np.int64)
        else:
            true = np.searchsorted(cdf, rng.random(k)).astype(np.int64)
        return (true if eta == 1.0 else rng.binomial(true, eta),)

    columns = generate(n, seed, PURPOSE_PHOTOCOUNT, draw, reduce, (np.int64,))
    return None if columns is None else PhotocountRecord(columns[0], eta, int(seed), state_tag(state))


def intensity_variance_direct(state: StateSpec, eta: float) -> float:
    """Variance of the rescaled photocurrent n/eta: <dn^2> + nbar (1/eta - 1)."""
    _check_eta(eta)
    nbar = mean_photon(state)
    n2 = nbar + normal_moment(state, 2, 2).real
    return (n2 - nbar * nbar) + nbar * (1.0 / eta - 1.0)


def quadrature_variance_direct(state: StateSpec, eta: float) -> float:
    """Variance of fixed-phase homodyne: <dx^2> + (1 - eta)/(4 eta)."""
    _check_eta(eta)
    nbar = mean_photon(state)
    a1 = normal_moment(state, 0, 1)
    a2 = normal_moment(state, 0, 2)
    x2 = (2.0 * a2.real + 2.0 * nbar + 1.0) / 4.0
    return (x2 - a1.real**2) + smearing_variance(eta)


def simulate_heterodyne(
    state: StateSpec, eta: float, n: int, seed: int, reduce=None
) -> HeterodyneRecord | None:
    """Joint two-quadrature detection of a coherent state.

    Each outcome is alpha = beta + g with g complex Gaussian of per-quadrature
    variance 1/(2 eta), so mean |alpha|^2 - |beta|^2 = 1/eta. Only coherent
    states are supported; for anything else use amplitude_noise_direct. With
    reduce, each block goes to reduce(alphas) instead (see homodyne.generate),
    and None is returned.
    """
    if not isinstance(state, Coherent):
        validate_state(state)  # a non-state or a bad eta is reported before the capability
        _check_eta(eta)
        raise CapabilityError(
            "heterodyne simulation supports coherent states only; "
            "use amplitude_noise_direct for the analytic comparison"
        )
    n = sample_count(state, eta, n)
    sigma = math.sqrt(1.0 / (2.0 * eta))

    def draw(rng, k):
        return (state.beta + rng.normal(0.0, sigma, k) + 1j * rng.normal(0.0, sigma, k),)

    columns = generate(n, seed, PURPOSE_HETERODYNE, draw, reduce, (complex,))
    return None if columns is None else HeterodyneRecord(columns[0], eta, int(seed), state_tag(state))


def amplitude_noise_direct(state: StateSpec, eta: float) -> tuple[float, float]:
    """Covariance eigenvalues of ideal two-quadrature detection.

    (1/2) [nbar + 1/eta - |<a>|^2 +/- |<a^2> - <a>^2|], largest first.
    """
    _check_eta(eta)
    nbar = mean_photon(state)
    a1 = normal_moment(state, 0, 1)
    a2 = normal_moment(state, 0, 2)
    base = nbar + 1.0 / eta - abs(a1) ** 2
    split = abs(a2 - a1 * a1)
    return 0.5 * (base + split), 0.5 * (base - split)


def heterodyne_phase_variance(record: HeterodyneRecord) -> float:
    """Population variance of arg(alpha) over a heterodyne record."""
    if record.n < 1:
        raise ValidationError("empty heterodyne record")
    acc = StreamingMoments()
    accumulate(acc.update, record.n, lambda sl: np.angle(record.alphas[sl]))
    return acc.population_variance

