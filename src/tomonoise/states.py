"""Single-mode optical states: exact moments, photon statistics, quadrature densities.

Quadrature convention used throughout the package: x = (a + a^dag)/2, so the
vacuum quadrature distribution is a zero-mean Gaussian of variance 1/4.
Detector quantum efficiency eta < 1 is modelled one way: a loss channel of
transmission eta on the state, whose outcome x is rescaled by 1/sqrt(eta).
lossy_bands gives a number-basis state's bands after that channel, and
quadrature_pdf and the grid sampler both read them. A coherent state stays
coherent under loss (beta -> sqrt(eta) beta), so its rescaled outcome is one
Gaussian of variance 1/(4 eta) and its photocount one Poisson(eta |beta|^2)
draw; the samplers draw those closed forms directly.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NumericRangeError, ValidationError, integer, is_complex, is_real

#: Vacuum variance of x = (a + a^dag)/2.
VACUUM_QUADRATURE_VARIANCE = 0.25

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
DIAGONAL_FLOOR = -1e-12
EIGENVALUE_FLOOR = -1e-10

#: Probability mass by which the grid sampler's density may miss 1: weight on levels its grid
#: cannot resolve, refused before the Hermite table is built, or grid mass off 1 either way.
GRID_MASS_TOL = 1e-6
#: Most points in each slice of x that quadrature_pdf takes, and most entries of each slice's
#: Hermite table: slices of min(PDF_POINTS, PDF_TABLE // dim) points keep it near 25 MB at any dim.
PDF_POINTS = 1 << 12
PDF_TABLE = 768 * PDF_POINTS


def _check_eta(eta: float) -> None:
    if not (is_real(eta) and 0.0 < eta <= 1.0):
        raise ValidationError(f"quantum efficiency must satisfy 0 < eta <= 1, got {eta}")


def _check_phase(phi) -> float:
    """phi as a float, if it is a number that is finite as a float; else a ValidationError."""
    try:
        finite = is_real(phi) and math.isfinite(phi)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValidationError(f"phase must be a finite number, got {phi!r}")
    return float(phi)


@dataclass(frozen=True)
class Coherent:
    """Coherent state with complex amplitude beta; mean photon number |beta|^2."""

    beta: complex

    def __post_init__(self):
        if not is_complex(self.beta):
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
        kind = np.asarray(self.rho).dtype.kind
        if kind not in "iufc":  # complex() alone would read bools and numeric strings as numbers
            raise ValidationError(f"rho entries must be numbers, got an array of dtype kind {kind!r}")
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
    psi_0(x) = (2/pi)^(1/4) exp(-x^2); the normalized three-term recurrence
    gives the rest. Where that seed is a normal float (|x| <= 26.6) the
    recurrence runs on the values themselves. Past that the seed underflows,
    so each such point carries a binary exponent e and the recurrence runs on
    psi_n 2^-e: from 2^-970 (2^52 above the smallest normal float, so that a
    subnormal rounding stays below the pair's last bit) up to at most 1,
    rescaled by a power of two, which is exact, whenever a bound on its growth
    from the largest such |x| could pass 1. A level is psi_n 2^-e times the
    float 2^e: one rounding, as for any float, or 0 where 2^e underflows and
    psi_n rounds to 0 too. So no level underflows before its value does.
    Returns an array of shape (nmax + 1, len(x)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1, x.size))
    out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    log2_seed = -math.log2(math.e) * (x * x)
    # Past |x| = 1e154 log2_seed overflows, and the plain recurrence from the 0 seed gives 0 at every level.
    far = (out[0] < 2.0**-1022) & (log2_seed > -np.inf)  # below the smallest normal float
    low, growth, grown, start = -1022.0 + 52.0, 0.0, 0.0, 0  # low: 2^52 above it
    if far.any():
        exponent = np.where(far, np.ceil(log2_seed) - low, 0.0)
        out[0, far] = (2.0 / math.pi) ** 0.25 * np.exp2(log2_seed[far] - exponent[far])
        # |psi_{k+1}| <= (growth / sqrt(k + 1) + 1) max(|psi_k|, |psi_{k-1}|); grown sums the log2 of
        # these bounds, and with no such point growth stays 0 and nothing is rescaled
        growth = 2.0 * np.max(np.abs(x[far]))
    prev, cur = 0.0, out[0]
    for k in range(nmax):
        step = math.log2(growth / math.sqrt(k + 1.0) + 1.0)
        if grown + step > -low:  # rescale the pair to norm 2^low; levels start..k get their 2^e
            shift = np.where(far, np.frexp(np.hypot(prev, cur))[1] - low, 0.0)
            prev, cur = prev * np.exp2(-shift), cur * np.exp2(-shift)
            out[start : k + 1] *= np.exp2(exponent)
            exponent += shift
            grown, start = 0.0, k + 1
        grown += step
        out[k + 1] = (2.0 / math.sqrt(k + 1.0)) * x * cur - math.sqrt(k / (k + 1.0)) * prev
        prev, cur = cur, out[k + 1]
    if far.any():
        out[start:] *= np.exp2(exponent)
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


#: pi/4 - fl(pi/4), the part of pi/4 that the double math.pi / 4 leaves out.
_QUARTER_PI_LO = 3.061616997868383e-17


def phase_trig(func, phi, out=None):
    """func(phi), func np.cos or np.sin, through numpy's vectorised tangent for a float64 array in [0, pi].

    Every scanned, dataset and guide-edge phase lies in [0, pi]. There
    cos phi = 2u / (1 + u^2) with u = tan((pi/4 - phi/2) + _QUARTER_PI_LO),
    which keeps its relative accuracy where cos phi nears 0 at pi/2, and
    sin phi = 2t / (1 + t^2) with t = tan(phi/2), which keeps it where sin phi
    nears 0 at 0 and pi; both stay within 4 ulp of the exact value there.
    numpy's float64 tan is vectorised where its SIMD dispatch provides it
    (X86_V4, as on AVX-512 CPUs), about 2 ns a value against 16-19 ns for its
    scalar-libm cos and sin. Elsewhere these forms stay as accurate, but can
    be slower than func and differ from it in the last bits. Outside [0, pi],
    at NaN, for an empty or non-float64 array and for a scalar the identities
    lose accuracy or gain nothing, and func(phi) itself is returned (a 0-d
    array counts as a scalar). The arithmetic runs in out (a new array if None).
    """
    if not (
        isinstance(phi, np.ndarray) and phi.dtype == np.float64 and phi.ndim and phi.size
        and 0.0 <= phi.min() and phi.max() <= math.pi  # min and max propagate NaN
    ):
        return func(phi, out=out)
    if func is np.cos:  # fl(pi/4) - phi/2 is exact from phi = pi/4 on, where u nears 0
        t = np.multiply(phi, -0.5, out=out)
        t += math.pi / 4
        t += _QUARTER_PI_LO
    else:
        t = np.multiply(phi, 0.5, out=out)
    np.tan(t, out=t)
    denominator = np.multiply(t, t)
    denominator += 1.0
    t += t
    t /= denominator
    return t


def coherent_mean(beta: complex, phi):
    """Mean Re(beta exp(-i phi)) of a coherent state's quadrature at phase phi.

    It is the split form beta.real cos(phi) + beta.imag sin(phi), its cos and
    sin from phase_trig and its sine term only where beta.imag != 0. At a
    scalar phase phase_trig is np.cos and np.sin, and the split form has the
    bits of numpy's scalar complex product (beta * np.exp(-1j * phi)).real.
    """
    mean = phase_trig(np.cos, phi)
    mean *= beta.real
    if beta.imag != 0.0:
        mean += beta.imag * phase_trig(np.sin, phi)
    return mean


def lossy_bands(state: Fock | Mixed, eta: float) -> list[tuple[int, np.ndarray]]:
    """Band (d, rho'[n, n + d] over n) of the state after a loss channel of transmission eta, d = 0 first.

    One per band d that is non-zero in rho; at eta = 1 they are rho's own, a Fock state's one band one-hot.
    """
    if isinstance(state, Fock):
        bands = [(0, np.eye(1, state.n + 1, state.n, dtype=complex)[0])]
    else:
        bands = ((d, np.diagonal(state.rho, offset=d)) for d in range(state.dim))
    return [(d, _lossy_band(d, band, eta)) for d, band in bands if np.max(np.abs(band)) > 0.0]


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
    A(n, k)^2 = C(n + k, k) eta^n (1 - eta)^k, summed over the non-zero entries j = n + k only; band itself at eta = 1.
    """
    if eta == 1.0:
        return band
    n = np.arange(band.size)[:, None]
    j = np.flatnonzero(band)
    k = np.maximum(j - n, 0)
    log_fact = np.cumsum(np.log(np.maximum(np.arange(band.size + d), 1)))
    both = log_fact[n + k] + log_fact[n + d + k] - log_fact[n] - log_fact[n + d] + (2 * n + d) * math.log(eta)
    log_a = 0.5 * both - log_fact[k] + k * math.log1p(-eta)  # log A(n, k) A(n + d, k)
    return np.einsum("nj,j->n", np.exp(log_a) * (j >= n), band[j])


def quadrature_pdf(state: StateSpec, phi: float, eta: float, x) -> np.ndarray | float:
    """Probability density of the homodyne outcome x at local-oscillator phase phi.

    A coherent state's density is the Gaussian of mean coherent_mean(beta, phi)
    and variance 1/(4 eta), in closed form for any beta. For Fock and mixed
    states it is sum_{n,m} rho_nm exp(i (m - n) phi) psi_n(x) psi_m(x) at
    eta = 1, summed by band; below, exactly sqrt(eta) p'(sqrt(eta) x), p' that
    density of the state after a loss channel of transmission eta. Every level
    is resolved (hermite_functions); x is taken in slices of at most PDF_POINTS
    points and PDF_TABLE // dim points, so each slice's Hermite table stays
    near 25 MB.
    """
    _check_eta(eta)
    validate_state(state)
    phi = _check_phase(phi)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(state, Coherent):
        var = VACUUM_QUADRATURE_VARIANCE / eta
        z = xs - coherent_mean(state.beta, phi)
        p = np.exp(-0.5 * z * z / var) / math.sqrt(2.0 * math.pi * var)
    else:
        bands = lossy_bands(state, eta)
        dim = bands[0][1].size
        weights = np.array([(2.0 if d else 1.0) * np.exp(1j * d * phi) for d, _ in bands])
        scaled = math.sqrt(eta) * xs
        p = np.empty(xs.size)
        points = max(1, min(PDF_POINTS, PDF_TABLE // dim))
        for start in range(0, xs.size, points):
            rows = band_densities(bands, hermite_functions(dim - 1, scaled[start : start + points]))
            p[start : start + points] = math.sqrt(eta) * np.einsum("d,dx->x", weights, rows).real
    p = np.clip(p, 0.0, None)
    return float(p[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else p
