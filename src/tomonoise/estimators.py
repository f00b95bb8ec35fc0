"""Turn homodyne datasets into estimates: kernel means, errors, noise eigenvalues.

All accumulation is streaming and mergeable (Welford/Chan updates), so partial
results over disjoint sample ranges combine associatively to the sequential
answer; this keeps very long runs numerically stable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .homodyne import BLOCK_SIZE, Dataset
from .kernels import (
    ComplexAmplitude,
    Observable,
    Phase,
    is_real_observable,
    kernel_observable,
)

#: One chunk is one generator block, so moments updated block by block as a
#: generator streams them equal moments accumulated over its whole record.
CHUNK = BLOCK_SIZE


@dataclass
class StreamingMoments:
    """Mergeable single-pass mean/variance accumulator for a real stream."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        mean = values.mean()
        self.merge(StreamingMoments(values.size, float(mean), float(((values - mean) ** 2).sum())))

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total
        return self

    @property
    def population_variance(self) -> float:
        return self.m2 / self.count if self.count else 0.0

    @property
    def stderr(self) -> float:
        """Sample standard deviation over sqrt(n) (0.0 when n < 2)."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)


@dataclass
class ComplexStreamingMoments:
    """Mergeable accumulator for a complex stream: mean, |.|^2 spread, pseudo-spread."""

    count: int = 0
    mean: complex = 0.0 + 0.0j
    m2: float = 0.0
    c2: complex = 0.0 + 0.0j

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=complex)
        if values.size == 0:
            return
        vmean = complex(values.mean())
        delta = values - vmean
        part = ComplexStreamingMoments(
            values.size, vmean, float((delta.real**2 + delta.imag**2).sum()), complex((delta**2).sum())
        )
        self.merge(part)

    def merge(self, other: "ComplexStreamingMoments") -> "ComplexStreamingMoments":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self.m2, self.c2 = other.count, other.mean, other.m2, other.c2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        w = self.count * other.count / total
        self.mean += delta * other.count / total
        self.m2 += other.m2 + abs(delta) ** 2 * w
        self.c2 += other.c2 + delta * delta * w
        self.count = total
        return self

    @property
    def covariance_eigenvalues(self) -> tuple[float, float]:
        """Largest and smallest eigenvalue of the 2x2 covariance of (Re, Im)."""
        if self.count == 0:
            return 0.0, 0.0
        spread = self.m2 / self.count
        pseudo = abs(self.c2) / self.count
        return 0.5 * (spread + pseudo), max(0.5 * (spread - pseudo), 0.0)


@dataclass
class Estimate:
    value: float
    stderr: float
    n: int


@dataclass
class ComplexEstimate:
    value: complex
    noise_plus: float
    noise_minus: float
    n: int


def estimate_to_json(est: Estimate) -> dict:
    return asdict(est)


def complex_estimate_to_json(est: ComplexEstimate) -> dict:
    return {
        "value": [est.value.real, est.value.imag],
        "noise_plus": est.noise_plus,
        "noise_minus": est.noise_minus,
        "n": est.n,
    }


def accumulate(update, n: int, values) -> None:
    """Call update(values(sl)) for each CHUNK-long slice sl of range(n), in order.

    No temporary grows beyond one chunk, and chunks are visited in order, so
    moments merged from them are reproducible to the bit.
    """
    for start in range(0, n, CHUNK):
        update(values(slice(start, start + CHUNK)))


def kernel_reducer(acc, obs: Observable, eta: float):
    """reduce(x, phi): update the moments acc with obs's kernel on one block of samples.

    A StreamingMoments gets the real part of the kernel, a
    ComplexStreamingMoments the complex values.
    """
    if isinstance(acc, StreamingMoments):
        return lambda x, phi: acc.update(np.asarray(kernel_observable(obs, eta, x, phi)).real)
    return lambda x, phi: acc.update(kernel_observable(obs, eta, x, phi))


def _kernel_moments(data: Dataset, obs: Observable, acc):
    """acc updated with obs's kernel over the whole dataset, CHUNK samples at a time."""
    if data.n < 1:
        raise ValidationError("cannot estimate from an empty dataset")
    reduce = kernel_reducer(acc, obs, data.eta)
    accumulate(lambda block: reduce(*block), data.n, lambda sl: (data.x[sl], data.phi[sl]))
    return acc


def _require_real(obs: Observable) -> None:
    if not is_real_observable(obs):
        raise TypeError(
            f"observable {obs!r} has a complex-valued kernel; use estimate_complex"
        )


def estimate_mean(data: Dataset, obs: Observable) -> Estimate:
    """Sample mean of a real-valued kernel with its standard error."""
    _require_real(obs)
    acc = _kernel_moments(data, obs, StreamingMoments())
    return Estimate(acc.mean, acc.stderr, acc.count)


def estimate_complex(data: Dataset, obs: Observable = ComplexAmplitude()) -> ComplexEstimate:
    """Mean of a complex kernel, by default 2 x exp(i phi) for a, plus its noise pair.

    noise_plus/minus are the eigenvalues of the covariance matrix of the
    kernel values, i.e. (spread of |w|^2 about the mean) split by the modulus
    of the pseudo-variance.
    """
    acc = _kernel_moments(data, obs, ComplexStreamingMoments())
    plus, minus = acc.covariance_eigenvalues
    return ComplexEstimate(acc.mean, plus, minus, acc.count)


def empirical_kernel_variance(data: Dataset, obs: Observable) -> float:
    """Population variance of the (real) kernel over the dataset."""
    _require_real(obs)
    return _kernel_moments(data, obs, StreamingMoments()).population_variance


@dataclass
class PhaseHistogram:
    """Normalized histogram of the phase kernel over (-pi, pi]."""

    masses: np.ndarray
    edges: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def densities(self) -> np.ndarray:
        return self.masses / self.widths


def phase_kernel_distribution(data: Dataset, bins: int) -> PhaseHistogram:
    """Histogram of w = arg(x exp(i phi)); bin masses sum to 1."""
    if data.n < 1:
        raise ValidationError("cannot histogram an empty dataset")
    if int(bins) != bins or bins < 8:
        raise ValidationError(f"need at least 8 bins, got {bins}")
    counts = np.zeros(int(bins))
    edges = np.linspace(-math.pi, math.pi, int(bins) + 1)
    accumulate(
        lambda w: np.add(counts, np.histogram(w, bins=edges)[0], out=counts),
        data.n,
        lambda sl: kernel_observable(Phase(), data.eta, data.x[sl], data.phi[sl]),
    )
    return PhaseHistogram(counts / data.n, edges)
