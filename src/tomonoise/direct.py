"""Direct-detection simulators: the detectors the tomographic estimators are compared with.

Photon counting through a loss channel of transmission eta (Poisson(eta |beta|^2)
counts for a coherent state, Binomial(n, eta) for Fock(n), one draw of the lossy
photon number for a mixed state) and heterodyne detection of coherent states, each
returning its outcome array (int64 counts, complex128 alphas) or streaming it block
by block into a reduce callable, and the phase variance of heterodyne outcomes.
Mixed counts, and coherent counts of Poisson mean below POISSON_TABLE_MEAN = 10,
invert a CDF table with one uniform per count; larger means are drawn by
numpy's generator, whose PTRS sampler needs about one uniform pair per count there.
Fixed-phase homodyne is homodyne.sample_fixed_phase. The closed-form
direct-detection variances live with the tomographic ones in noise.py.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError, NumericRangeError, ValidationError
from .estimators import StreamingMoments, accumulate
from .homodyne import PURPOSE_HETERODYNE, PURPOSE_PHOTOCOUNT, generate, noise_sigma, sample_count
from .states import (
    Coherent,
    Fock,
    StateSpec,
    _lossy_band,
    check_eta,
    photon_distribution,
    validate_state,
)


#: The largest mean numpy's Generator.poisson accepts (its POISSON_LAM_MAX).
POISSON_LAM_MAX = 9.223372006484771e18
#: Poisson means below this invert a CDF table with one uniform a count; numpy's rng.poisson
#: multiplies about lam + 1 uniforms a count there, and switches to its PTRS sampler at 10.
POISSON_TABLE_MEAN = 10.0
#: Entries of that table, counts 0 to 63: below mean 10 the counts past it hold under 2**-64 of the mass.
POISSON_TABLE_SIZE = 64


def _categorical(probs: np.ndarray):
    """draw(rng, k) for homodyne.generate: k indices drawn from probs, one rng.random uniform each."""
    # index i takes u in [cdf[i-1], cdf[i]); the last index also takes u past a total rounded below 1
    cdf = np.cumsum(probs / probs.sum())[:-1]
    return lambda rng, k: (np.searchsorted(cdf, rng.random(k), side="right").astype(np.int64),)


def simulate_photocount(
    state: StateSpec, eta: float, n: int, seed: int, reduce=None
) -> np.ndarray | None:
    """The int64 counts of n detections with efficiency eta.

    A coherent state stays coherent under loss, so its counts are one
    Poisson(eta |beta|^2) draw each, and a Fock state's one Binomial(n, eta)
    draw, the closed forms of the loss channel. A mixed state's are one draw
    from its photon-number probabilities after that channel. Mixed counts, and
    Poisson counts of mean below POISSON_TABLE_MEAN, invert their CDF with one
    uniform each; larger means take numpy's rng.poisson. With reduce, each
    block goes to reduce(counts) instead (see homodyne.generate), and None is
    returned.
    """
    n = sample_count(state, eta, n)
    if isinstance(state, Coherent):
        if abs(state.beta) ** 2 > POISSON_LAM_MAX:
            raise NumericRangeError(
                f"photon counts of |beta|^2 = {abs(state.beta) ** 2!r} exceed the largest Poisson mean "
                f"numpy draws, {POISSON_LAM_MAX!r}"
            )
        lam = eta * abs(state.beta) ** 2  # |beta|^2 itself at eta = 1
        if lam < POISSON_TABLE_MEAN:  # p(k) = p(k - 1) lam / k from p(0) = exp(-lam)
            draw = _categorical(np.cumprod(np.append(math.exp(-lam), lam / np.arange(1.0, POISSON_TABLE_SIZE))))
        else:

            def draw(rng, k):
                return (rng.poisson(lam, k),)

    elif isinstance(state, Fock):

        def draw(rng, k):  # one binomial setup for the one n, not one per sample
            return (np.full(k, state.n, dtype=np.int64) if eta == 1.0 else rng.binomial(state.n, eta, k),)

    else:
        draw = _categorical(_lossy_band(0, photon_distribution(state, state.dim)[0], eta))

    columns = generate(n, seed, PURPOSE_PHOTOCOUNT, draw, reduce, (np.int64,))
    return None if columns is None else columns[0]


def simulate_heterodyne(
    state: StateSpec, eta: float, n: int, seed: int, reduce=None
) -> np.ndarray | None:
    """The complex128 outcomes of n joint two-quadrature detections of a coherent state.

    Each outcome is alpha = beta + g with g complex Gaussian of per-quadrature
    variance 1/(2 eta), so mean |alpha|^2 - |beta|^2 = 1/eta. Only coherent
    states are supported; for any state, analytic_comparison(ComplexAmplitude(),
    state, eta) gives the analytic comparison and amplitude_noise_direct the
    direct noise pair. With reduce, each block goes to reduce(alphas) instead
    (see homodyne.generate), and None is returned.
    """
    if not isinstance(state, Coherent):
        validate_state(state)  # a non-state or a bad eta is reported before the capability
        check_eta(eta)
        raise CapabilityError(
            "heterodyne simulation supports coherent states only; for any state, "
            "analytic_comparison(ComplexAmplitude(), state, eta) gives the analytic comparison "
            "and amplitude_noise_direct the direct noise pair"
        )
    n = sample_count(state, eta, n)
    sigma = noise_sigma(0.5, eta)

    def draw(rng, k):  # written in place: the bits of beta + g_re + 1j g_im, drawn in that order
        alphas = np.empty(k, dtype=complex)
        np.add(state.beta.real, rng.normal(0.0, sigma, k), out=alphas.real)
        np.add(state.beta.imag, rng.normal(0.0, sigma, k), out=alphas.imag)
        return (alphas,)

    columns = generate(n, seed, PURPOSE_HETERODYNE, draw, reduce, (complex,))
    return None if columns is None else columns[0]


def heterodyne_phase_variance(alphas: np.ndarray) -> float:
    """Population variance of arg(alpha) over heterodyne outcomes alphas."""
    try:
        alphas = np.asarray(alphas, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"alphas must be complex numbers: {exc}") from exc
    if alphas.ndim != 1 or alphas.size < 1 or not np.isfinite(alphas).all():
        raise ValidationError("alphas must be a nonempty 1-D array of finite complex numbers")
    acc = StreamingMoments()
    accumulate(acc.update, alphas.size, lambda sl: np.angle(alphas[sl]))
    return acc.population_variance

