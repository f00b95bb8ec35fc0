"""Turn homodyne datasets into estimates: kernel means, errors, noise eigenvalues.

All accumulation is streaming and mergeable (Welford/Chan updates), so partial
results over disjoint sample ranges combine associatively to the sequential
answer; this keeps very long runs numerically stable. There is one
accumulator, StreamingMoments, over a stream of real d-vectors with one merge:
a real stream is d = 1, and ComplexStreamingMoments is a complex stream taken
as its (Re, Im) pairs, d = 2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError, integer
from .homodyne import BLOCK_SIZE, Dataset
from .kernels import (
    ComplexAmplitude,
    Observable,
    Phase,
    kernel_observable,
)

#: One chunk is one generator block, so moments updated block by block as a
#: generator streams them equal moments accumulated over its whole record.
CHUNK = BLOCK_SIZE


@dataclass
class StreamingMoments:
    """Mergeable single-pass moments of a stream of real d-vectors.

    m2 holds the centred product sums sum (v_i - mean_i)(v_j - mean_j). A real
    stream is d = 1, where mean and m2 are floats; otherwise mean is a
    d-vector and m2 the d x d matrix.
    """

    count: int = 0
    mean: float | np.ndarray = 0.0
    m2: float | np.ndarray = 0.0

    def update(self, values: np.ndarray) -> None:
        """Merge one block: a length-k array of reals, or a (d, k) array of k d-vectors."""
        self._add(np.asarray(values, dtype=float))

    def _add(self, values: np.ndarray):
        """update's body, which the complex update calls without going through a wrapped update."""
        if values.shape[-1] == 0:
            return
        if values.ndim == 1:
            mean = values.mean()
            return self.merge(StreamingMoments(values.size, float(mean), float(((values - mean) ** 2).sum())))
        # one pairwise .sum() per product of rows; each row is squared in place once its cross sums are taken
        means = [row.mean() for row in values]
        centred = [row - mean for row, mean in zip(values, means)]
        m2 = np.empty((len(values), len(values)))
        for i in reversed(range(len(values))):
            for j in range(i):
                m2[i, j] = m2[j, i] = (centred[i] * centred[j]).sum()
            m2[i, i] = np.square(centred[i], out=centred[i]).sum()
        self.merge(StreamingMoments(values.shape[1], np.array(means), m2))

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Chan et al.'s merge of other's moments into these; other is not changed."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        outer = np.outer(delta, delta) if isinstance(delta, np.ndarray) else delta * delta
        self.mean = self.mean + delta * other.count / total
        self.m2 = self.m2 + (other.m2 + outer * self.count * other.count / total)
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


class ComplexStreamingMoments(StreamingMoments):
    """A complex stream as the d = 2 stream of its (Re, Im) pairs."""

    # Its own update, not an inherited one: perfbench/tracing.py wraps StreamingMoments.update, then
    # this, and restores them in reverse order, which would leave an inherited one wrapped.
    def update(self, values: np.ndarray) -> None:
        # the (Re, Im) rows as a strided (2, k) view, not a copy: the centred rows are the only copies
        self._add(np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).T)

    @property
    def covariance_eigenvalues(self) -> tuple[float, float]:
        """Largest and smallest eigenvalue of the 2x2 covariance of (Re, Im), in closed form."""
        if self.count == 0:
            return 0.0, 0.0
        (cxx, cxy), (_, cyy) = self.m2
        # hypot: the sums hold squares already, and squaring them again overflows from about 1e154
        trace, root = cxx + cyy, math.hypot(cxx - cyy, 2.0 * cxy)
        return float(0.5 * (trace + root) / self.count), max(float(0.5 * (trace - root) / self.count), 0.0)


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

    A ComplexStreamingMoments gets the complex values, any other
    StreamingMoments the real part of the kernel.
    """
    if isinstance(acc, ComplexStreamingMoments):
        return lambda x, phi: acc.update(kernel_observable(obs, eta, x, phi))
    return lambda x, phi: acc.update(np.asarray(kernel_observable(obs, eta, x, phi)).real)


def _kernel_moments(data: Dataset, obs: Observable, acc):
    """acc updated with obs's kernel over the whole dataset, CHUNK samples at a time."""
    if data.n < 1:
        raise ValidationError("cannot estimate from an empty dataset")
    reduce = kernel_reducer(acc, obs, data.eta)
    accumulate(lambda block: reduce(*block), data.n, lambda sl: (data.x[sl], data.phi[sl]))
    return acc


def _require_real(obs: Observable) -> None:
    if not obs.real:
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
    return ComplexEstimate(complex(*acc.mean), plus, minus, acc.count)


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
    bins = integer(bins, "bins", 8)
    counts = np.zeros(bins)
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    accumulate(
        lambda w: np.add(counts, np.histogram(w, bins=edges)[0], out=counts),
        data.n,
        lambda sl: kernel_observable(Phase(), data.eta, data.x[sl], data.phi[sl]),
    )
    return PhaseHistogram(counts / data.n, edges)
