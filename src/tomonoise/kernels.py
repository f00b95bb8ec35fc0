"""Estimator kernels: the functions of (x, phi) whose homodyne averages give <A>.

For the monomial a^dag^n a^m the kernel is
    exp(i (m - n) phi) * H_{n+m}(sqrt(2 eta) x) / (sqrt((2 eta)^(n+m)) * C(n+m, n)),
with H_s the physicists' Hermite polynomial. Everything else (intensity, real
field, complex amplitude, finite normal-ordered polynomials) follows by
linearity; the phase kernel is arg(x exp(i phi)).

Each observable class carries what it is: its name, whether its kernel is
real, and kernel(eta, x, phi). The four observables with a name of their own,
each with a direct detector, also carry their closed forms, which noise.py
reads: noise(state, eta, nbar, coherent) is the exact (tomographic, direct,
added) noise from the state's moments, and coherent_ratio(eta nbar) the
linear noise ratio of a coherent state. A new observable is one class here
(and, if a detector exists, one direct route in noise.empirical_comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union, get_args

import numpy as np

from .errors import (
    CapabilityError,
    NumericRangeError,
    ValidationError,
    complex_from_json,
    integer,
    is_complex,
    json_object,
)
from .states import VACUUM_QUADRATURE_VARIANCE, check_eta, normal_moment, phase_trig

#: Hard cap on n + m for monomial kernels (double-precision recurrence guard).
MAX_KERNEL_ORDER = 40
#: Cap on n + m for the diagonal-expansion of squared kernels.
MAX_SQUARE_ORDER = 20


@dataclass(frozen=True)
class Intensity:
    """Photon number a^dag a, rescaled photocurrent convention; detected directly by photon counting."""

    name = "intensity"
    real = True

    def kernel(self, eta, x, phi):
        return 2.0 * x * x - 1.0 / (2.0 * eta) + 0.0 * phi

    def noise(self, state, eta, nbar, coherent):
        """Exact (tomographic, direct, added) noise; the direct side is the photocurrent n/eta."""
        n2 = nbar + normal_moment(state, 2, 2).real
        dn2 = nbar if coherent else n2 - nbar * nbar
        tomo = dn2 + 0.5 * n2 + nbar * (2.0 / eta - 1.5) + 1.0 / (2.0 * eta * eta)
        added = 0.5 * (n2 + nbar * (2.0 / eta - 1.0) + 1.0 / (eta * eta))
        return tomo, dn2 + nbar * (1.0 / eta - 1.0), added

    def coherent_ratio(self, scaled):
        if scaled == 0:
            raise NumericRangeError("intensity noise ratio diverges at eta * nbar = 0")
        return math.sqrt(2.0 + 0.5 * (scaled + 1.0 / scaled))


@dataclass(frozen=True)
class RealField:
    """Single quadrature x = (a + a^dag)/2; detected directly by fixed-phase homodyne."""

    name = "real_field"
    real = True

    def kernel(self, eta, x, phi):
        return 2.0 * x * phase_trig(np.cos, phi)

    def noise(self, state, eta, nbar, coherent):
        if coherent:
            dx2 = VACUUM_QUADRATURE_VARIANCE
        else:
            x2 = (2.0 * normal_moment(state, 0, 2).real + 2.0 * nbar + 1.0) / 4.0
            dx2 = x2 - normal_moment(state, 0, 1).real ** 2
        tomo = dx2 + 0.5 * nbar + (2.0 - eta) / (4.0 * eta)
        return tomo, dx2 + (1.0 - eta) / (4.0 * eta), 0.5 * (nbar + 1.0 / (2.0 * eta))

    def coherent_ratio(self, scaled):
        return math.sqrt(2.0 * (1.0 + scaled))


@dataclass(frozen=True)
class ComplexAmplitude:
    """Annihilation operator a (complex-valued kernel); detected directly by heterodyne."""

    name = "complex_amplitude"
    real = False

    def kernel(self, eta, x, phi):
        # 2.0 * x * exp(1j phi) without a complex exp, its cos and sin from phase_trig
        two_x = 2.0 * x
        vals = np.empty(np.broadcast(x, phi).shape, dtype=complex)
        np.multiply(two_x, phase_trig(np.cos, phi), out=vals.real)
        np.multiply(two_x, phase_trig(np.sin, phi), out=vals.imag)
        return vals

    def noise(self, state, eta, nbar, coherent):
        if coherent:
            return 0.5 * (1.0 / eta + nbar), 0.5 / eta, 0.5 * nbar
        a1_sq = abs(normal_moment(state, 0, 1)) ** 2
        return 0.5 * (1.0 / eta + 2.0 * nbar - a1_sq), 0.5 * (nbar + 1.0 / eta - a1_sq), 0.5 * nbar

    def coherent_ratio(self, scaled):
        return math.sqrt(1.0 + scaled)


@dataclass(frozen=True)
class Phase:
    """Phase of the sampled complex amplitude, arg(x exp(i phi)); detected directly by heterodyne.

    Its closed forms are the bright-state limits, trusted for coherent states
    of mean photon number at least PHASE_ASYMPTOTIC_NBAR.
    """

    name = "phase"
    real = True
    #: Mean photon number above which the analytic phase formulas are trusted.
    PHASE_ASYMPTOTIC_NBAR = 10.0

    def kernel(self, eta, x, phi):
        # phi less pi times the mask of x >= 0 failing (x < 0 or NaN), then wrapped into (-pi, pi]
        vals = np.asarray(phi - np.multiply(~(x >= 0.0), math.pi, dtype=float))
        np.add(vals, 2.0 * math.pi, out=vals, where=vals <= -math.pi)
        return vals

    @staticmethod
    def bright(nbar, eta):
        """Bright-state limits of the (tomographic, heterodyne) phase variances."""
        return math.pi**2 / 12.0, 0.5 / (eta * nbar)  # not 1/(2 eta nbar): 2 eta nbar overflows first

    def noise(self, state, eta, nbar, coherent):
        if not coherent:
            raise CapabilityError(
                "analytic phase noise is available for bright coherent states only; "
                "use empirical_comparison"
            )
        if nbar < self.PHASE_ASYMPTOTIC_NBAR:
            raise CapabilityError(
                f"analytic phase noise needs mean photon number >= {self.PHASE_ASYMPTOTIC_NBAR}; "
                f"got {nbar:.3g}; use empirical_comparison"
            )
        tomo, direct = self.bright(nbar, eta)
        return tomo, direct, tomo - direct

    def coherent_ratio(self, scaled):
        if scaled == 0:
            raise NumericRangeError("phase noise ratio is undefined at eta * nbar = 0")
        return math.pi * math.sqrt(scaled / 6.0)


@dataclass(frozen=True)
class Monomial:
    n: int
    m: int

    def __post_init__(self):
        n, m = _check_orders(self.n, self.m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    @property
    def name(self) -> str:
        return f"monomial({self.n},{self.m})"

    @property
    def real(self) -> bool:
        return self.n == self.m

    def kernel(self, eta, x, phi):
        return kernel_monomial(self.n, self.m, eta, x, phi)


@dataclass(frozen=True)
class Polynomial:
    """Finite normal-ordered expansion sum_nm c_nm a^dag^n a^m; each (n, m) appears once."""

    terms: tuple[tuple[int, int, complex], ...]
    name = "polynomial"

    def __post_init__(self):
        terms = tuple((*_check_orders(n, m), _coefficient(c)) for n, m, c in self.terms)
        if not terms:
            raise ValidationError("a polynomial needs at least one term")
        orders = [term[:2] for term in terms]
        for k, order in enumerate(orders):
            if order in orders[:k]:
                raise ValidationError(f"polynomial term (n, m) = {order} is repeated")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[tuple[int, int], complex] | Iterable) -> "Polynomial":
        """The polynomial of a map {(n, m): c}, or of ((n, m), c) pairs, its terms sorted by (n, m).

        Orders equal once normalised, such as (1.0, 1) and (1, 1) among pairs, are a repeated term.
        """
        pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        return cls(tuple(sorted(((*_check_orders(n, m), c) for (n, m), c in pairs), key=lambda t: t[:2])))

    @property
    def coeffs(self) -> dict[tuple[int, int], complex]:
        return {(n, m): c for n, m, c in self.terms}

    @property
    def real(self) -> bool:
        """The Hermitian test: c_nm equals conj(c_mn) for every term."""
        coeffs = self.coeffs
        return all(
            abs(c - coeffs.get((m, n), 0.0).conjugate()) <= 1e-14 * max(1.0, abs(c))
            for (n, m), c in coeffs.items()
        )

    def kernel(self, eta, x, phi):
        return kernel_polynomial(self.coeffs, eta, x, phi)


Observable = Union[Intensity, RealField, ComplexAmplitude, Phase, Monomial, Polynomial]


def _check_orders(n: int, m: int) -> tuple[int, int]:
    n, m = integer(n, "monomial order n", 0), integer(m, "monomial order m", 0)
    if n + m > MAX_KERNEL_ORDER:
        raise NumericRangeError(
            f"monomial order n + m = {n + m} exceeds the supported cap {MAX_KERNEL_ORDER}"
        )
    return n, m


def _coefficient(c) -> complex:
    """A polynomial coefficient as a complex number, if it is one; else a ValidationError."""
    if not is_complex(c):
        raise ValidationError(f"polynomial coefficient must be a number, got {c!r}")
    return complex(c)


def hermite(s: int, y):
    """Physicists' Hermite polynomial H_s(y) by the three-term recurrence."""
    s = integer(s, "Hermite order")
    if not 0 <= s <= MAX_KERNEL_ORDER:
        raise NumericRangeError(f"Hermite order must lie in [0, {MAX_KERNEL_ORDER}], got {s}")
    y = np.asarray(y, dtype=float)
    h_prev = np.ones_like(y)
    if s == 0:
        return h_prev if y.ndim else float(h_prev)
    h = 2.0 * y
    for k in range(1, s):
        h, h_prev = 2.0 * y * h - 2.0 * k * h_prev, h
    return h if y.ndim else float(h)


def kernel_monomial(n: int, m: int, eta: float, x, phi):
    """Kernel for a^dag^n a^m; averaging it over homodyne data gives <a^dag^n a^m>."""
    n, m = _check_orders(n, m)
    check_eta(eta)
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = n + m
    scale = math.sqrt((2.0 * eta) ** s) * math.comb(s, n)
    h = hermite(s, math.sqrt(2.0 * eta) * x)
    vals = np.exp(1j * (m - n) * phi) * h / scale
    return vals if vals.ndim else complex(vals)


def kernel_polynomial(coeffs: Mapping[tuple[int, int], complex], eta: float, x, phi):
    """Kernel of a finite normal-ordered polynomial, by linearity over monomials."""
    if not coeffs:
        raise ValidationError("polynomial coefficient map is empty")
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    total = np.zeros(np.broadcast(x, phi).shape, dtype=complex)
    for (n, m), c in coeffs.items():
        total = total + _coefficient(c) * kernel_monomial(n, m, eta, x, phi)
    return total if total.ndim else complex(total)


def kernel_observable(obs: Observable, eta: float, x, phi):
    """Kernel values for an observable, obs.kernel with its inputs checked; real-valued where obs.real.

    The phase kernel maps into (-pi, pi]. At the measure-zero event x = 0 the
    value phi is used; the caller holding x finds those samples as x == 0.
    """
    check_eta(eta)
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not isinstance(obs, get_args(Observable)):
        raise ValidationError(f"unknown observable {obs!r}")
    vals = np.asarray(obs.kernel(eta, x, phi))
    if not vals.ndim:
        vals = vals[()]
    return vals


def square_kernel_monomial(n: int, m: int, eta: float, x, phi):
    """Squared monomial kernel, reduced to a sum of diagonal kernels.

    Uses the Hermite-square identity to expand the square over the diagonal
    family a^dag^k a^k; equals kernel_monomial(n, m, ...)**2 identically.
    """
    n, m = _check_orders(n, m)
    if n + m > MAX_SQUARE_ORDER:
        raise NumericRangeError(
            f"square-kernel order n + m = {n + m} exceeds the supported cap {MAX_SQUARE_ORDER}"
        )
    check_eta(eta)
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = n + m
    fn2m2 = math.factorial(n) ** 2 * math.factorial(m) ** 2
    total = np.zeros(np.broadcast(x, phi).shape, dtype=complex)
    for k in range(s + 1):
        # int / int rounds the exact quotient once
        coeff = math.factorial(2 * k) * fn2m2 / (math.factorial(k) ** 4 * math.factorial(s - k))
        total = total + (coeff * eta ** (k - s)) * kernel_monomial(k, k, eta, x, phi)
    vals = np.exp(2j * (m - n) * phi) * total
    return vals if vals.ndim else complex(vals)


#: The observables with a name of their own, by name.
NAMED_OBSERVABLES = {obs.name: obs for obs in (Intensity(), RealField(), ComplexAmplitude(), Phase())}


def observable_name(obs: Observable) -> str:
    return obs.name


def observable_to_json(obs: Observable) -> dict:
    if isinstance(obs, Monomial):
        return {"observable": "monomial", "n": obs.n, "m": obs.m}
    if isinstance(obs, Polynomial):
        return {
            "observable": "polynomial",
            "terms": [{"n": n, "m": m, "c": [c.real, c.imag]} for n, m, c in obs.terms],
        }
    return {"observable": obs.name}


def observable_json(value) -> dict:
    """The JSON object of an observable given as an object, as JSON text, or as a bare name.

    Text is JSON if it starts with '{' or '[' (leading blanks aside); other text is a name.
    """
    if isinstance(value, str) and not value.lstrip().startswith(("{", "[")):
        return {"observable": value.strip()}
    return json_object(value, "observable JSON", "observable")


def observable_from_json(obj) -> Observable:
    obj = observable_json(obj)
    kind = obj["observable"]
    try:
        if kind in NAMED_OBSERVABLES:
            return NAMED_OBSERVABLES[kind]
        if kind == "monomial":
            return Monomial(obj["n"], obj["m"])
        if kind == "polynomial":
            terms = [((t["n"], t["m"]), complex_from_json(t["c"], "polynomial coefficient c")) for t in obj["terms"]]
            return Polynomial.from_coeffs(terms)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed observable JSON: {exc}") from exc
    raise ValidationError(f"unknown observable {kind!r}")
