"""Single-mode optical states: exact moments, photon statistics, quadrature densities.

Quadrature convention used throughout the package: x = (a + a^dag)/2, so the
vacuum quadrature distribution is a zero-mean Gaussian of variance 1/4.
Detector quantum efficiency eta < 1 has two equivalent exact forms: additive
zero-mean Gaussian noise of variance (1 - eta)/(4 eta) on the ideal quadrature
outcome, which the samplers add, and a loss channel of transmission eta on the
state, which quadrature_pdf applies to number-basis states.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NumericRangeError, ValidationError, integer, is_real

#: Vacuum variance of x = (a + a^dag)/2.
VACUUM_QUADRATURE_VARIANCE = 0.25

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
DIAGONAL_FLOOR = -1e-12
EIGENVALUE_FLOOR = -1e-10

#: |x| beyond which exp(-x^2), the seed of the Hermite recurrence, leaves the
#: normal floats (about 26.6); no number-basis density resolves more.
HERMITE_REACH = math.sqrt(-math.log(sys.float_info.min))
#: Highest photon number whose turning point sqrt((2n + 1)/2) lies within HERMITE_REACH (707).
REACH_LEVEL = math.floor(HERMITE_REACH**2 - 0.5)
#: Probability mass a number-basis density may leave unresolved: above REACH_LEVEL or off its grid.
GRID_MASS_TOL = 1e-6
#: Points per Hermite table in quadrature_pdf: 4096 keep Fock(750)'s 751-row table at 25 MB.
PDF_POINTS = 1 << 12


def smearing_variance(eta: float) -> float:
    """Variance of the Gaussian noise modelling quantum efficiency eta."""
    _check_eta(eta)
    return (1.0 - eta) / (4.0 * eta)


def _check_eta(eta: float) -> None:
    if not (is_real(eta) and 0.0 < eta <= 1.0):
        raise ValidationError(f"quantum efficiency must satisfy 0 < eta <= 1, got {eta}")


@dataclass(frozen=True)
class Coherent:
    """Coherent state with complex amplitude beta; mean photon number |beta|^2."""

    beta: complex

    def __post_init__(self):
        if not (is_real(self.beta) or isinstance(self.beta, (complex, np.complexfloating))):
            raise ValidationError(f"coherent amplitude must be a number, got {self.beta!r}")
        b = complex(self.beta)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ValidationError("coherent amplitude must be finite")
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True)
class Fock:
    """Photon-number eigenstate |n>."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "Fock level", 0))


@dataclass(frozen=True, eq=False)
class Mixed:
    """Truncated number-basis density matrix rho[n, m], n, m = 0..dim-1.

    Construction checks that rho is finite, Hermitian, of unit trace, with a
    nonnegative diagonal and no eigenvalue below EIGENVALUE_FLOOR. The
    eigenvalues cost 0.2 ms at dim 6 (first call in a process), 0.3 ms at
    dim 48 and 7 ms at dim 200, where OpenBLAS's threads then spin on for
    about 0.13 s of CPU time (2 cores, numpy 2.4).
    """

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 1:
            raise ValidationError("mixed-state rho must be a square matrix")
        if not np.isfinite(rho).all():
            raise ValidationError("rho has a non-finite entry")
        herm = np.max(np.abs(rho - rho.conj().T)) if rho.size else 0.0
        if herm > HERMITICITY_TOL:
            raise ValidationError(f"rho is not Hermitian: max |rho_nm - conj(rho_mn)| = {herm:.3e}")
        tr = rho.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"rho is not normalizable: trace = {tr:.12g}")
        diag = np.diag(rho).real
        if diag.min() < DIAGONAL_FLOOR:
            raise ValidationError(f"rho has a negative diagonal entry: min = {diag.min():.3e}")
        lo = np.linalg.eigvalsh(rho).min()
        if lo < EIGENVALUE_FLOOR:
            raise ValidationError(f"rho is not positive semidefinite: min eigenvalue = {lo:.3e}")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


StateSpec = Union[Coherent, Fock, Mixed]


def validate_state(state: StateSpec) -> None:
    """Refuse anything but a state; each state checks its own fields when it is built."""
    if not isinstance(state, (Coherent, Fock, Mixed)):
        raise ValidationError(f"not a state: {state!r}")


def state_tag(state: StateSpec) -> str:
    if isinstance(state, Coherent):
        b = state.beta
        return f"coherent(beta={b.real:.17g}{b.imag:+.17g}j)"
    if isinstance(state, Fock):
        return f"fock(n={state.n})"
    return f"mixed(dim={state.dim})"


def state_to_json(state: StateSpec) -> dict:
    """JSON form: coherent/fock/mixed with [re, im] pairs for complex entries."""
    if isinstance(state, Coherent):
        return {"type": "coherent", "beta": [state.beta.real, state.beta.imag]}
    if isinstance(state, Fock):
        return {"type": "fock", "n": state.n}
    rho = [[v.real, v.imag] for v in state.rho.reshape(-1)]
    return {"type": "mixed", "dim": state.dim, "rho": rho}


def _complex_from_json(pair, what: str) -> complex:
    """The complex number of a JSON [re, im] pair of numbers; else a ValidationError naming what."""
    re, im = pair
    if not (is_real(re) and is_real(im)):
        raise ValidationError(f"{what} must be a [re, im] pair of numbers, got {pair!r}")
    return complex(re, im)


def state_from_json(obj) -> StateSpec:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"state JSON does not parse: {exc}") from exc
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("state JSON must be an object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "coherent":
            return Coherent(_complex_from_json(obj["beta"], "coherent beta"))
        if kind == "fock":
            return Fock(obj["n"])
        if kind == "mixed":
            dim = integer(obj["dim"], "mixed dim", 1)
            flat = obj["rho"]
            if len(flat) != dim * dim:
                raise ValidationError(f"mixed rho must have dim^2 = {dim * dim} entries, got {len(flat)}")
            rho = np.array([_complex_from_json(pair, "mixed rho entry") for pair in flat]).reshape(dim, dim)
            return Mixed(rho)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed state JSON: {exc}") from exc
    raise ValidationError(f"unknown state type {kind!r}")


def hermite_functions(nmax: int, x) -> np.ndarray:
    """Oscillator eigenfunctions psi_0..psi_nmax of the variance-1/4 convention.

    psi_n are orthonormal on the real line and satisfy
    psi_0(x) = (2/pi)^(1/4) exp(-x^2). Evaluated with the normalized
    three-term recurrence from that seed, so only |x| <= HERMITE_REACH is
    resolved, which reaches the support of psi_n up to n of a few hundred.
    Returns an array of shape (nmax + 1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1, x.size))
    out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    if nmax >= 1:
        out[1] = 2.0 * x * out[0]
    for k in range(1, nmax):
        out[k + 1] = (2.0 / math.sqrt(k + 1.0)) * x * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def photon_distribution(state: StateSpec, dim: int) -> tuple[np.ndarray, float]:
    """Photon-number probabilities p_0..p_{dim-1} plus the neglected tail mass."""
    dim = integer(dim, "dim", 1)
    validate_state(state)
    if isinstance(state, Fock):
        probs = np.zeros(dim)
        tail = 0.0
        if state.n < dim:
            probs[state.n] = 1.0
        else:
            tail = 1.0
        return probs, tail
    if isinstance(state, Coherent):
        from scipy.special import gammainc, gammaln  # deferred: costs ~0.3 s of start-up

        lam = abs(state.beta) ** 2
        if lam == 0.0:
            probs = np.zeros(dim)
            probs[0] = 1.0
            return probs, 0.0
        n = np.arange(dim)
        probs = np.exp(n * math.log(lam) - lam - gammaln(n + 1.0))
        tail = float(gammainc(dim, lam))
        return probs, tail
    diag = np.clip(np.diag(state.rho).real, 0.0, None)
    if dim >= state.dim:
        probs = np.zeros(dim)
        probs[: state.dim] = diag
    else:
        probs = diag[:dim].copy()
    return probs, float(max(0.0, 1.0 - probs.sum()))


def normal_moment(state: StateSpec, n: int, m: int) -> complex:
    """Normally ordered moment <a^dag^n a^m>, exact at every order.

    Closed forms for coherent and Fock states. For a mixed state only band
    d = n - m of rho contributes, as a^m and a^dag^n move each level by a fixed
    amount: the sum over its non-zero entries, in j order, of
    rho[j, j + d] sqrt(perm(j, m) perm(j + d, n)), the integer coefficient
    exact before its one square root (none at d = 0). Truncating rho loses
    nothing, and (n, m) and (m, n) give conjugate values. A moment beyond the
    float range raises NumericRangeError.
    """
    n, m = integer(n, "moment order n", 0), integer(m, "moment order m", 0)
    validate_state(state)
    try:  # complex ** and the int-to-float conversion of a coefficient raise OverflowError
        if isinstance(state, Coherent):
            moment = (state.beta.conjugate() ** n) * (state.beta ** m)
        elif isinstance(state, Fock):
            moment = complex(math.perm(state.n, n)) if n == m and n <= state.n else 0j
        else:
            d = n - m
            first = max(0, -d)  # band entry i is rho[j, j + d] with j = first + i
            band = np.diagonal(state.rho, offset=d)
            moment = 0j
            for i in np.flatnonzero(band):
                j = first + int(i)
                coeff = math.perm(j, m) if d == 0 else math.sqrt(math.perm(j, m) * math.perm(j + d, n))
                moment += complex(band[i]) * coeff
        if cmath.isfinite(moment):
            return moment
    except OverflowError:
        pass
    raise NumericRangeError(f"the moment <a^dag^{n} a^{m}> of {state_tag(state)} leaves the float range")


def mean_photon(state: StateSpec) -> float:
    """Mean photon number <a^dag a>."""
    return normal_moment(state, 1, 1).real


def coherent_mean(beta: complex, phi):
    """Mean Re(beta exp(-i phi)) of a coherent state's quadrature at phase phi."""
    if beta.imag == 0.0:
        # equal to the complex form below (up to the sign of a zero), without its complex exp
        return beta.real * np.cos(phi)
    # numpy's complex product does not round like the split form b.r cos + b.i sin
    return (beta * np.exp(-1j * phi)).real


def number_bands(state: Fock | Mixed) -> list[tuple[int, np.ndarray]]:
    """Each non-zero band (d, rho[n, n + d] over n), d = 0 first; a Fock state's one band is one-hot."""
    if isinstance(state, Fock):
        return [(0, np.eye(1, state.n + 1, state.n, dtype=complex)[0])]
    bands = ((d, np.diagonal(state.rho, offset=d)) for d in range(state.dim))
    return [(d, band) for d, band in bands if np.max(np.abs(band)) > 0.0]


def band_densities(bands, psi: np.ndarray) -> np.ndarray:
    """One row C_d(x) = sum_n rho[n, n + d] psi_n(x) psi_{n+d}(x) per band; psi holds psi_0.. at x.

    The real and imaginary parts of each row are two real sums, the values the
    complex sum gives without casting psi to complex.
    """
    dim = psi.shape[0]
    rows = np.empty((len(bands), psi.shape[1]), dtype=complex)
    for row, (d, band) in zip(rows, bands):
        row.real = np.einsum("n,nx,nx->x", band.real, psi[: dim - d], psi[d:dim])
        row.imag = np.einsum("n,nx,nx->x", band.imag, psi[: dim - d], psi[d:dim])
    return rows


def _lossy_band(d: int, band: np.ndarray, eta: float) -> np.ndarray:
    """Band d of the state after a loss channel of transmission eta, in log space.

    rho'[n, n + d] = sum_k A(n, k) A(n + d, k) rho[n + k, n + d + k],
    A(n, k)^2 = C(n + k, k) eta^n (1 - eta)^k, summed over the non-zero entries j = n + k only.
    """
    n = np.arange(band.size)[:, None]
    j = np.flatnonzero(band)
    k = np.maximum(j - n, 0)
    log_fact = np.cumsum(np.log(np.maximum(np.arange(band.size + d), 1)))
    both = log_fact[n + k] + log_fact[n + d + k] - log_fact[n] - log_fact[n + d] + (2 * n + d) * math.log(eta)
    log_a = 0.5 * both - log_fact[k] + k * math.log1p(-eta)  # log A(n, k) A(n + d, k)
    return np.einsum("nj,j->n", np.exp(log_a) * (j >= n), band[j])


def check_reach(diagonal: np.ndarray) -> None:
    """Refuse photon-number weights (band d = 0) that put more than GRID_MASS_TOL above REACH_LEVEL.

    The recurrence seeded with exp(-x^2) resolves psi_n only for |x| <= HERMITE_REACH;
    past it the seed is subnormal and psi_n garbage, not zero, so the density of a
    higher level is wrong however its mass comes out.
    """
    beyond = float(np.sum(diagonal[REACH_LEVEL + 1:].real))
    if beyond > GRID_MASS_TOL:
        raise NumericRangeError(
            f"photon numbers above {REACH_LEVEL} hold weight {beyond:.3g}; the number-basis recurrence "
            f"resolves only |x| <= {HERMITE_REACH:.1f}, the turning point of level {REACH_LEVEL}"
        )


def quadrature_pdf(state: StateSpec, phi: float, eta: float, x) -> np.ndarray | float:
    """Probability density of the homodyne outcome x at local-oscillator phase phi.

    A coherent state's density is the Gaussian of mean coherent_mean(beta, phi)
    and variance 1/(4 eta), in closed form for any beta. For Fock and mixed
    states it is sum_{n,m} rho_nm exp(i (m - n) phi) psi_n(x) psi_m(x) at
    eta = 1, summed by band; below, exactly sqrt(eta) p'(sqrt(eta) x), p' that
    density of the state after a loss channel of transmission eta. A state whose
    weight after that channel reaches above REACH_LEVEL is refused (check_reach).
    """
    _check_eta(eta)
    validate_state(state)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    phi = float(phi)
    if isinstance(state, Coherent):
        var = VACUUM_QUADRATURE_VARIANCE / eta
        z = xs - coherent_mean(state.beta, phi)
        p = np.exp(-0.5 * z * z / var) / math.sqrt(2.0 * math.pi * var)
    else:
        bands = [(d, _lossy_band(d, band, eta) if eta < 1.0 else band) for d, band in number_bands(state)]
        check_reach(bands[0][1])
        weights = np.array([(2.0 if d else 1.0) * np.exp(1j * d * phi) for d, _ in bands])
        scaled = math.sqrt(eta) * xs
        p = np.empty(xs.size)
        for start in range(0, xs.size, PDF_POINTS):
            psi = hermite_functions(bands[0][1].size - 1, scaled[start : start + PDF_POINTS])
            rows = band_densities(bands, psi)
            p[start : start + PDF_POINTS] = math.sqrt(eta) * np.einsum("d,dx->x", weights, rows).real
    p = np.clip(p, 0.0, None)
    return float(p[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else p
