"""Exact reference values for the benchmark's output checks.

Everything here is computed by quadrature from the state's density matrix,
independently of the package under test: the homodyne density
p(y | phi) = sum_nm rho_nm exp(-i (n - m) phi) psi_n(y) psi_m(y), smeared by the
efficiency Gaussian of variance (1 - eta)/(4 eta), gives the raw moments of x at
each phase; kernel powers are polynomials in x, so their means follow exactly.

A check compares an empirical variance (or mean) with its exact value within
Z_SIGMA standard errors, where the standard error is sqrt(Var(V) / n) for the
per-sample quantity V whose mean is the variance. Every tolerance therefore
shrinks as 1/sqrt(n).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.special import erf, gammaln

#: Allowed distance between an empirical value and its exact value, in standard errors.
Z_SIGMA = 5.0
#: Relative agreement required between a closed form and this module's quadrature.
QUADRATURE_RTOL = 1e-6

_PHI_NODES = 256
_Y = np.linspace(-14.0, 14.0, 7001)
_ANGLE = np.linspace(-math.pi, math.pi, 200001)


def hermite_functions(nmax: int, y: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions for the x = (a + a^dag)/2 convention."""
    out = np.empty((nmax + 1, y.size))
    out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-y * y)
    if nmax >= 1:
        out[1] = 2.0 * y * out[0]
    for k in range(1, nmax):
        out[k + 1] = (2.0 / math.sqrt(k + 1.0)) * y * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def coherent_rho(beta: float) -> np.ndarray:
    """Number-basis density matrix of a real-amplitude coherent state."""
    lam = beta * beta
    dim = max(40, math.ceil(lam + 12.0 * beta + 30.0))
    n = np.arange(dim)
    amp = np.exp(-0.5 * lam + n * math.log(max(beta, 1e-300)) - 0.5 * gammaln(n + 1.0))
    return np.outer(amp, amp).astype(complex)


def fock_rho(level: int) -> np.ndarray:
    rho = np.zeros((level + 1, level + 1), dtype=complex)
    rho[level, level] = 1.0
    return rho


class QuadratureModel:
    """Raw moments E[x^k | phi] of smeared homodyne outcomes on a phase grid."""

    def __init__(self, rho: np.ndarray, eta: float, kmax: int, phis: np.ndarray | None = None):
        self.phis = (np.arange(_PHI_NODES) + 0.5) * math.pi / _PHI_NODES if phis is None else phis
        dim = rho.shape[0]
        psi = hermite_functions(dim - 1, _Y)
        dy = _Y[1] - _Y[0]
        powers = _Y[None, :] ** np.arange(kmax + 1)[:, None]
        # band d of rho contributes 2 Re(exp(i d phi) g_d(y)) for d > 0
        ymom = np.zeros((self.phis.size, kmax + 1))
        for d in range(dim):
            band = np.diagonal(rho, offset=d)
            if not np.any(band):
                continue
            g = np.einsum("n,nx,nx->x", band, psi[: dim - d], psi[d:])
            mom_d = (powers * g[None, :]).sum(axis=1) * dy
            weight = np.exp(1j * d * self.phis) * (1.0 if d == 0 else 2.0)
            ymom += np.real(weight[:, None] * mom_d[None, :])
        s2 = (1.0 - eta) / (4.0 * eta)
        gmom = [0.0 if k % 2 else s2 ** (k // 2) * _double_factorial(k - 1) for k in range(kmax + 1)]
        self.moments = np.zeros_like(ymom)
        for k in range(kmax + 1):
            for j in range(k + 1):
                self.moments[:, k] += math.comb(k, j) * ymom[:, j] * gmom[k - j]

    def mean(self, poly_of_phi) -> complex:
        """Phase-averaged E[f(x, phi)] for f given as x-polynomial coefficients per phase."""
        total = 0.0
        for i, phi in enumerate(self.phis):
            coef = poly_of_phi(phi)
            total += np.dot(coef, self.moments[i, : coef.size])
        return total / self.phis.size


def _double_factorial(k: int) -> float:
    return float(np.prod(np.arange(k, 0, -2))) if k > 0 else 1.0


def kernel_poly(observable: str, eta: float):
    """Kernel as a function phi -> x-polynomial coefficients (intensity, real_field, complex)."""
    if observable == "intensity":
        return lambda phi: np.array([-1.0 / (2.0 * eta), 0.0, 2.0])
    if observable == "real_field":
        return lambda phi: np.array([0.0, 2.0 * math.cos(phi)])
    if observable == "complex_amplitude":
        return lambda phi: np.array([0.0, 2.0 * np.exp(1j * phi)])
    raise ValueError(observable)


def monomial_poly(n: int, m: int, eta: float):
    """Kernel of a^dag^n a^m: exp(i(m-n)phi) H_{n+m}(sqrt(2 eta) x) / (sqrt(2 eta)^(n+m) C(n+m, n))."""
    s = n + m
    herm = np.polynomial.hermite.herm2poly([0.0] * s + [1.0])
    scaled = herm * math.sqrt(2.0 * eta) ** np.arange(s + 1) / (math.sqrt((2.0 * eta) ** s) * math.comb(s, n))
    return lambda phi: scaled * np.exp(1j * (m - n) * phi)


def kernel_variance(model: QuadratureModel, kernel, complex_kernel: bool = False) -> tuple[float, float]:
    """Variance of a kernel under phase-scanned sampling, and Var(V) of its per-sample term.

    For a complex kernel the variance is the mean covariance eigenvalue
    E|K - <K>|^2 / 2, matching how the package reports complex amplitudes.
    """
    mean = model.mean(kernel)

    def centred(phi):
        c = np.array(kernel(phi), dtype=complex)
        c[0] -= mean
        return c

    if complex_kernel:
        def v_poly(phi):
            c = centred(phi)
            return np.real(P.polymul(c, np.conj(c))) / 2.0
    else:
        def v_poly(phi):
            c = np.real(centred(phi))
            return P.polymul(c, c)

    ev = float(np.real(model.mean(v_poly)))
    ev2 = float(np.real(model.mean(lambda phi: P.polymul(v_poly(phi), v_poly(phi)))))
    return ev, ev2 - ev * ev


def _variance_from_density(values: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """Variance of values under a discretised density, and Var(V) for V = (value - mean)^2."""
    w = density / density.sum()
    centred = values - (w * values).sum()
    var = float((w * centred**2).sum())
    return var, float((w * centred**4).sum()) - var * var


def tomographic_phase(beta: float, eta: float) -> tuple[float, float]:
    """Variance of arg(x exp(i phi)) for a real-amplitude coherent state, and Var(V).

    The phase kernel's density on (-pi, pi] is (1 + erf(sqrt(2 eta) beta cos w)) / (2 pi).
    """
    dens = 1.0 + erf(math.sqrt(2.0 * eta) * beta * np.cos(_ANGLE))
    return _variance_from_density(_ANGLE, _trapezoid_weights(dens))


def heterodyne_phase(beta: float, eta: float) -> tuple[float, float]:
    """Variance of arg(alpha) for heterodyne detection of a real-amplitude coherent state.

    alpha = beta + g with per-quadrature noise variance 1/(2 eta); the angle of a
    displaced circular Gaussian has density
    exp(-b^2/2)/(2 pi) [1 + sqrt(pi/2) u exp(u^2/2) (1 + erf(u/sqrt 2))], u = b cos(theta),
    b = beta sqrt(2 eta).
    """
    b = beta * math.sqrt(2.0 * eta)
    u = b * np.cos(_ANGLE)
    dens = 1.0 + math.sqrt(math.pi / 2.0) * u * np.exp(0.5 * u * u) * (1.0 + erf(u / math.sqrt(2.0)))
    return _variance_from_density(_ANGLE, _trapezoid_weights(dens))


def _trapezoid_weights(dens: np.ndarray) -> np.ndarray:
    w = dens.copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def photocount_variance(rho: np.ndarray, eta: float) -> tuple[float, float]:
    """Variance of counts/eta after binomial thinning (0 < eta < 1) of the photon numbers."""
    p = np.clip(np.real(np.diag(rho)), 0.0, None)
    n = np.arange(p.size)[:, None]
    m = np.arange(p.size)[None, :]
    keep = m <= n
    logc = gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(np.where(keep, n - m, 0) + 1.0)
    thinning = np.where(keep, np.exp(logc + m * math.log(eta) + (n - m) * math.log1p(-eta)), 0.0)
    return _variance_from_density(np.arange(p.size) / eta, p @ thinning)


def fixed_phase_variance(rho: np.ndarray, eta: float) -> tuple[float, float]:
    """Variance of homodyne outcomes at phase 0, and Var(V)."""
    model = QuadratureModel(rho, eta, kmax=4, phis=np.array([0.0]))
    return kernel_variance(model, lambda phi: np.array([0.0, 1.0]))


def heterodyne_amplitude_variance(eta: float) -> tuple[float, float]:
    """Mean covariance eigenvalue of heterodyne outcomes, 1/(2 eta), and Var(V) = its square."""
    s2 = 1.0 / (2.0 * eta)
    return s2, s2 * s2


def uniform_phase_variance() -> tuple[float, float]:
    """Phase kernel of an x-symmetric, phase-independent state is uniform on (-pi, pi]."""
    return math.pi**2 / 3.0, 4.0 * math.pi**4 / 45.0


def within(value: float, expected: float, stderr: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= Z_SIGMA * stderr
