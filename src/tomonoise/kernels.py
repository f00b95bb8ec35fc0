"""Estimator kernels: the functions of (x, phi) whose homodyne averages give <A>.

For the monomial a^dag^n a^m the kernel is
    exp(i (m - n) phi) * H_{n+m}(sqrt(2 eta) x) / (sqrt((2 eta)^(n+m)) * C(n+m, n)),
with H_s the physicists' Hermite polynomial. Everything else (intensity, real
field, complex amplitude, finite normal-ordered polynomials) follows by
linearity; the phase kernel is arg(x exp(i phi)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import NumericRangeError, ValidationError, integer
from .states import _check_eta, _complex_from_json

#: Hard cap on n + m for monomial kernels (double-precision recurrence guard).
MAX_KERNEL_ORDER = 40
#: Cap on n + m for the diagonal-expansion of squared kernels.
MAX_SQUARE_ORDER = 20


@dataclass(frozen=True)
class Intensity:
    """Photon number a^dag a, rescaled photocurrent convention."""


@dataclass(frozen=True)
class RealField:
    """Single quadrature x = (a + a^dag)/2."""


@dataclass(frozen=True)
class ComplexAmplitude:
    """Annihilation operator a (complex-valued kernel)."""


@dataclass(frozen=True)
class Phase:
    """Phase of the sampled complex amplitude, arg(x exp(i phi))."""


@dataclass(frozen=True)
class Monomial:
    n: int
    m: int

    def __post_init__(self):
        n, m = _check_orders(self.n, self.m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class Polynomial:
    """Finite normal-ordered expansion sum_nm c_nm a^dag^n a^m."""

    terms: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        for n, m, _ in self.terms:
            _check_orders(n, m)

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[tuple[int, int], complex]) -> "Polynomial":
        terms = {_check_orders(n, m): complex(c) for (n, m), c in coeffs.items()}
        return cls(tuple((n, m, c) for (n, m), c in sorted(terms.items())))

    @property
    def coeffs(self) -> dict[tuple[int, int], complex]:
        return {(n, m): c for n, m, c in self.terms}


Observable = Union[Intensity, RealField, ComplexAmplitude, Phase, Monomial, Polynomial]


def _check_orders(n: int, m: int) -> tuple[int, int]:
    n, m = integer(n, "monomial order n", 0), integer(m, "monomial order m", 0)
    if n + m > MAX_KERNEL_ORDER:
        raise NumericRangeError(
            f"monomial order n + m = {n + m} exceeds the supported cap {MAX_KERNEL_ORDER}"
        )
    return n, m


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
    _check_eta(eta)
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = n + m
    scale = math.sqrt((2.0 * eta) ** s) * math.comb(s, n)
    vals = np.exp(1j * (m - n) * phi) * hermite(s, math.sqrt(2.0 * eta) * x) / scale
    return vals if vals.ndim else complex(vals)


def kernel_polynomial(coeffs: Mapping[tuple[int, int], complex], eta: float, x, phi):
    """Kernel of a finite normal-ordered polynomial, by linearity over monomials."""
    if not coeffs:
        raise ValidationError("polynomial coefficient map is empty")
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    total = np.zeros(np.broadcast(x, phi).shape, dtype=complex)
    for (n, m), c in coeffs.items():
        total = total + complex(c) * kernel_monomial(n, m, eta, x, phi)
    return total if total.ndim else complex(total)


def kernel_observable(obs: Observable, eta: float, x, phi):
    """Kernel values for an observable; real-valued for Intensity/RealField/Phase.

    The phase kernel maps into (-pi, pi]. At the measure-zero event x = 0 the
    value phi is used; the caller holding x finds those samples as x == 0.
    """
    _check_eta(eta)
    x = np.asarray(x, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if isinstance(obs, Intensity):
        vals = 2.0 * x * x - 1.0 / (2.0 * eta) + 0.0 * phi
    elif isinstance(obs, RealField):
        vals = 2.0 * x * np.cos(phi)
    elif isinstance(obs, ComplexAmplitude):
        # 2.0 * x * exp(1j phi) up to the sign of a zero, without a complex exp
        two_x = 2.0 * x
        vals = np.empty(np.broadcast(x, phi).shape, dtype=complex)
        np.multiply(two_x, np.cos(phi), out=vals.real)
        np.multiply(two_x, np.sin(phi), out=vals.imag)
    elif isinstance(obs, Phase):
        vals = np.where(x >= 0.0, phi, phi - math.pi)
        vals = np.where(vals <= -math.pi, vals + 2.0 * math.pi, vals)
    elif isinstance(obs, Monomial):
        vals = kernel_monomial(obs.n, obs.m, eta, x, phi)
    elif isinstance(obs, Polynomial):
        vals = kernel_polynomial(obs.coeffs, eta, x, phi)
    else:
        raise ValidationError(f"unknown observable {obs!r}")
    vals = np.asarray(vals)
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
    _check_eta(eta)
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


def is_real_observable(obs: Observable) -> bool:
    """True when the kernel is real-valued (Hermitian observable)."""
    if isinstance(obs, (Intensity, RealField, Phase)):
        return True
    if isinstance(obs, Monomial):
        return obs.n == obs.m
    if isinstance(obs, Polynomial):
        coeffs = obs.coeffs
        return all(
            abs(c - coeffs.get((m, n), 0.0).conjugate()) <= 1e-14 * max(1.0, abs(c))
            for (n, m), c in coeffs.items()
        )
    return False


#: The observables with a name of their own, by name.
NAMED_OBSERVABLES = {
    "intensity": Intensity(),
    "real_field": RealField(),
    "complex_amplitude": ComplexAmplitude(),
    "phase": Phase(),
}


def observable_name(obs: Observable) -> str:
    for name, candidate in NAMED_OBSERVABLES.items():
        if obs == candidate:
            return name
    if isinstance(obs, Monomial):
        return f"monomial({obs.n},{obs.m})"
    return "polynomial"


def observable_to_json(obs: Observable) -> dict:
    if isinstance(obs, Monomial):
        return {"observable": "monomial", "n": obs.n, "m": obs.m}
    if isinstance(obs, Polynomial):
        return {
            "observable": "polynomial",
            "terms": [{"n": n, "m": m, "c": [c.real, c.imag]} for n, m, c in obs.terms],
        }
    return {"observable": observable_name(obs)}


def observable_from_json(obj) -> Observable:
    if isinstance(obj, str):
        stripped = obj.strip()
        if stripped.startswith("{"):
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"observable JSON does not parse: {exc}") from exc
        else:
            obj = {"observable": stripped}
    if not isinstance(obj, dict) or "observable" not in obj:
        raise ValidationError("observable JSON must be an object with an 'observable' field")
    kind = obj["observable"]
    try:
        if kind in NAMED_OBSERVABLES:
            return NAMED_OBSERVABLES[kind]
        if kind == "monomial":
            return Monomial(obj["n"], obj["m"])
        if kind == "polynomial":
            coeffs = {(t["n"], t["m"]): _complex_from_json(t["c"], "polynomial coefficient c") for t in obj["terms"]}
            return Polynomial.from_coeffs(coeffs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed observable JSON: {exc}") from exc
    raise ValidationError(f"unknown observable {kind!r}")
