"""Synthetic phase-scanned homodyne records with reproducible counter-based seeding.

Sampling model: phi ~ Uniform[0, pi), then x from the ideal (eta = 1)
quadrature density at that phase, then additive Gaussian noise of variance
(1 - eta)/(4 eta) when eta < 1. Streams come from counter-based Philox
generators keyed by (seed, purpose, block index), and every generator fills
its output block by block through `run_blocks`. Blocks run on a small thread
pool (numpy's generators and ufuncs release the interpreter lock), each block
writes only its own slice, so the output is the same for any thread count.
Given a `reduce` callable, a generator hands each block to it on the calling
thread, in block order, instead of keeping a record of size n.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericRangeError, ValidationError
from .states import (
    Coherent,
    Fock,
    StateSpec,
    _check_eta,
    hermite_functions,
    smearing_variance,
    state_dim,
    state_tag,
    validate_state,
)

BLOCK_SIZE = 1 << 16
GRID_NODES = 4096
GRID_MASS_TOL = 1e-6
SEARCH_SLICE = 1 << 13
# Rows formatted per write: 4096 rows keep their strings in cache and their
# temporaries near 0.7 MB (65536-row slices were slower and held 10 MB).
CSV_ROWS = 1 << 12

# Purpose ids keep streams for different simulators independent at equal seeds.
PURPOSE_HOMODYNE = 1
PURPOSE_PHOTOCOUNT = 2
PURPOSE_HETERODYNE = 3
PURPOSE_FIXED_PHASE = 4


def block_generator(seed: int, purpose: int, block: int) -> np.random.Generator:
    """Philox generator for one sample block; key = (seed, purpose << 48 | block)."""
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([np.uint64(seed), np.uint64((purpose << 48) | block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def worker_count() -> int:
    """Threads for block generation: the CPUs this process may use, at most TOMONOISE_MAX_WORKERS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    text = os.environ.get("TOMONOISE_MAX_WORKERS", "").strip()
    if not text:
        return cpus
    error = ValidationError(f"TOMONOISE_MAX_WORKERS must be a positive integer, got {text!r}")
    try:
        workers = int(text)
    except ValueError:
        raise error from None
    if workers < 1:
        raise error
    return min(workers, cpus)


def run_blocks(n: int, fill, consume=None) -> None:
    """Call fill(block, start, count) once for every BLOCK_SIZE block of range(n).

    Blocks run on up to worker_count() threads in no fixed order, at most two
    per thread in flight, so fill must draw only from its block's own
    generator and write only its own slice. When consume is given,
    consume(fill's result) runs on the calling thread once per block, in block
    order, while later blocks are being filled. One worker or one block runs
    plain serial.
    """
    starts = range(0, n, BLOCK_SIZE)

    def one(block: int):
        return fill(block, starts[block], min(BLOCK_SIZE, n - starts[block]))

    done = consume or (lambda result: None)
    workers = min(worker_count(), len(starts))
    if workers <= 1:
        for block in range(len(starts)):
            done(one(block))
        return
    from concurrent.futures import ThreadPoolExecutor  # kept out of start-up

    pending = []
    with ThreadPoolExecutor(workers) as pool:
        for block in range(len(starts)):
            pending.append(pool.submit(one, block))
            if len(pending) == 2 * workers:
                done(pending.pop(0).result())  # re-raises an exception from its block
        while pending:
            done(pending.pop(0).result())


def generate(n: int, draw, reduce, dtypes):
    """Run draw(block, count), which returns a tuple of arrays, for every block of range(n).

    Without reduce, the blocks fill one new length-n array per dtype, and the
    arrays are returned. With reduce, reduce(*arrays) gets each block's arrays
    on the calling thread in block order, nothing of size n is allocated, and
    None is returned.
    """
    if reduce is not None:
        run_blocks(n, lambda block, start, count: draw(block, count), lambda arrays: reduce(*arrays))
        return None
    outs = [np.empty(n, dtype=dtype) for dtype in dtypes]

    def fill(block, start, count):
        for out, values in zip(outs, draw(block, count)):
            out[start : start + count] = values

    run_blocks(n, fill)
    return outs


@dataclass
class Dataset:
    """Columnar homodyne record: outcomes x, phases phi in [0, pi), plus metadata."""

    x: np.ndarray
    phi: np.ndarray
    eta: float
    state_tag: str
    seed: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.phi.shape or self.x.size < 1:
            raise ValidationError("dataset needs matching 1-D x and phi arrays with n >= 1")
        _check_eta(self.eta)
        # min and max propagate NaN, so these two checks reject every non-finite value.
        if not (np.isfinite(self.x.min()) and np.isfinite(self.x.max())):
            raise ValidationError("outcomes x must be finite")
        if not (0.0 <= self.phi.min() and self.phi.max() < math.pi):
            raise ValidationError("phases must lie in [0, pi)")

    @property
    def n(self) -> int:
        return self.x.size

    def __len__(self) -> int:
        return self.n


class QuadratureGridSampler:
    """Inverse-CDF sampler for number-basis states on a fixed x grid.

    The CDF at phase phi is Re sum_d w_d C_d(x) with w_0 = 1 and
    w_d = 2 exp(i d phi), one Fourier band C_d per non-zero off-diagonal d of
    rho. The bands live in a node-major real table with columns Re C_0,
    2 Re C_d and -2 Im C_d for each band d > 0 (scaling by 2 is exact), so the
    CDF at one node is that node's row dotted with the weights
    [1, cos(d phi), sin(d phi)], built by angle addition from one
    cos(phi), sin(phi) pair.

    Fock and diagonal mixed states have C_0 only and take one
    phase-independent lookup. Coherence-bearing states take a branchless
    binary search per sample: power-of-two steps over the table, padded with
    +inf rows up to a power of two so that no step leaves it, one row gather
    and one select per step, then linear interpolation between the
    bracketing nodes. At one fixed phase the bands are combined into a single
    CDF that searchsorted inverts.
    """

    def __init__(self, state: StateSpec, halfwidth: float | None = None, nodes: int = GRID_NODES):
        validate_state(state)
        if isinstance(state, Coherent):
            raise ValidationError("coherent states are sampled in closed form, not on a grid")
        dim = state_dim(state)
        self.halfwidth = float(halfwidth) if halfwidth is not None else 3.0 + 2.0 * math.sqrt(dim)
        self.xgrid = np.linspace(-self.halfwidth, self.halfwidth, nodes)
        dx = self.xgrid[1] - self.xgrid[0]
        psi = hermite_functions(dim - 1, self.xgrid)
        if isinstance(state, Fock):
            rho = np.zeros((dim, dim), dtype=complex)
            rho[state.n, state.n] = 1.0
        else:
            rho = state.rho
        offsets = [
            d for d in range(dim) if np.max(np.abs(np.diagonal(rho, offset=d))) > 0.0
        ]
        cdfs = []
        for d in offsets:
            band = np.diagonal(rho, offset=d)
            g = np.einsum("n,nx,nx->x", band, psi[: dim - d], psi[d:dim])
            cdf = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * dx)))
            cdfs.append(cdf)
        cdfs = np.stack(cdfs)
        self.mass = float(cdfs[0][-1].real)
        if self.mass < 1.0 - GRID_MASS_TOL:
            needed = self.halfwidth * math.sqrt(
                max(2.0, -math.log(max(1.0 - self.mass, 1e-300)) / math.log(10.0))
            )
            raise NumericRangeError(
                f"quadrature grid |x| <= {self.halfwidth:.2f} holds only mass {self.mass:.9f}; "
                f"a halfwidth of about {needed:.1f} is required"
            )
        self.bands = offsets[1:]
        self.phase_dependent = bool(self.bands)
        # Steps top, top/2, ..., 1 reach every lower node 0..nodes-2; candidates
        # run up to 2 top - 1, so the table has at least 2 top rows.
        self._top_step = 1 << (max(nodes - 2, 1).bit_length() - 1)
        self.table = np.zeros((max(nodes, 2 * self._top_step), 1 + 2 * len(self.bands)))
        self.table[:nodes, 0] = cdfs[0].real
        self.table[:nodes, 1 : 1 + len(self.bands)] = 2.0 * cdfs[1:].real.T
        self.table[:nodes, 1 + len(self.bands) :] = -2.0 * cdfs[1:].imag.T
        self.table[nodes:, 0] = np.inf

    def _weights(self, phi: np.ndarray) -> np.ndarray:
        """Sample-major rows [1, cos(d phi)..., sin(d phi)...] over the bands d."""
        cos, sin = {1: np.cos(phi)}, {1: np.sin(phi)}
        for d in range(2, self.bands[-1] + 1):
            cos[d] = cos[d - 1] * cos[1] - sin[d - 1] * sin[1]
            sin[d] = sin[d - 1] * cos[1] + cos[d - 1] * sin[1]
        weights = np.empty((phi.size, self.table.shape[1]))
        weights[:, 0] = 1.0
        for j, d in enumerate(self.bands, start=1):
            weights[:, j] = cos[d]
            weights[:, j + len(self.bands)] = sin[d]
        return weights

    def _interpolate(self, target, lo, flo, fhi) -> np.ndarray:
        t = np.clip((target - flo) / np.maximum(fhi - flo, 1e-300), 0.0, 1.0)
        return self.xgrid[lo] + t * (self.xgrid[lo + 1] - self.xgrid[lo])

    def _search(self, phi: np.ndarray, target: np.ndarray):
        """Lower bracketing node of each target at its phase, with the CDF there and one node up."""
        weights = self._weights(phi)

        def cdf(idx):
            return np.einsum("sk,sk->s", np.take(self.table, idx, axis=0), weights)

        lo = np.zeros(phi.size, dtype=np.intp)
        step = self._top_step
        while step:
            cand = lo + step
            lo = np.where(cdf(cand) <= target, cand, lo)
            step >>= 1
        lo = np.minimum(lo, self.xgrid.size - 2)
        return lo, cdf(lo), cdf(lo + 1)

    def _lookup(self, phi: float, target: np.ndarray):
        """As _search, for targets that all share the phase phi."""
        cdf = self.table[: self.xgrid.size] @ self._weights(np.array([float(phi)]))[0]
        lo = np.minimum(np.searchsorted(cdf, target, side="right") - 1, self.xgrid.size - 2)
        return lo, cdf[lo], cdf[lo + 1]

    def sample(self, phi: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Outcomes x at phases phi for uniform deviates u in [0, 1)."""
        target = u * self.mass
        if not self.phase_dependent:
            return np.interp(target, self.table[: self.xgrid.size, 0], self.xgrid)
        # Slices small enough that the gathered rows and weights stay in cache.
        x = np.empty(target.size)
        for start in range(0, target.size, SEARCH_SLICE):
            part = slice(start, start + SEARCH_SLICE)
            x[part] = self._interpolate(target[part], *self._search(phi[part], target[part]))
        return x

    def sample_fixed_phase(self, phi: float, u: np.ndarray) -> np.ndarray:
        """Outcomes x at the single phase phi for uniform deviates u in [0, 1)."""
        target = u * self.mass
        if not self.phase_dependent:
            return np.interp(target, self.table[: self.xgrid.size, 0], self.xgrid)
        return self._interpolate(target, *self._lookup(phi, target))


def _coherent_mean(beta: complex, phi: np.ndarray) -> np.ndarray:
    return (beta * np.exp(-1j * phi)).real


def _sample_block(
    state: StateSpec,
    eta: float,
    seed: int,
    block: int,
    count: int,
    sampler: QuadratureGridSampler | None,
) -> tuple[np.ndarray, np.ndarray]:
    rng = block_generator(seed, PURPOSE_HOMODYNE, block)
    phi = rng.uniform(0.0, math.pi, count)
    if isinstance(state, Coherent):
        x = _coherent_mean(state.beta, phi) + rng.normal(0.0, 0.5, count)
    else:
        x = sampler.sample(phi, rng.random(count))
    if eta < 1.0:
        x = x + rng.normal(0.0, math.sqrt(smearing_variance(eta)), count)
    return x, phi


def sample_homodyne(state: StateSpec, eta: float, n: int, seed: int, reduce=None) -> Dataset | None:
    """Draw n phase-scanned homodyne samples; identical inputs give identical output.

    With reduce, each block goes to reduce(x, phi) instead (see generate), and
    None is returned.
    """
    validate_state(state)
    _check_eta(eta)
    if int(n) != n or n < 1:
        raise ValidationError(f"sample count must be a positive integer, got {n}")
    n = int(n)
    sampler = None if isinstance(state, Coherent) else QuadratureGridSampler(state)

    def draw(block, count):
        return _sample_block(state, eta, seed, block, count, sampler)

    columns = generate(n, draw, reduce, (float, float))
    return None if columns is None else Dataset(*columns, eta, state_tag(state), int(seed))


def sample_fixed_phase(
    state: StateSpec, eta: float, n: int, seed: int, phi: float = 0.0, reduce=None
) -> np.ndarray | None:
    """Homodyne outcomes at one fixed local-oscillator phase (direct x measurement).

    With reduce, each block goes to reduce(x) instead (see generate), and None
    is returned.
    """
    validate_state(state)
    _check_eta(eta)
    if int(n) != n or n < 1:
        raise ValidationError(f"sample count must be a positive integer, got {n}")
    n = int(n)
    sampler = None if isinstance(state, Coherent) else QuadratureGridSampler(state)

    def draw(block, count):
        rng = block_generator(seed, PURPOSE_FIXED_PHASE, block)
        if isinstance(state, Coherent):
            mu = (state.beta * np.exp(-1j * phi)).real
            x = mu + rng.normal(0.0, 0.5, count)
        else:
            x = sampler.sample_fixed_phase(phi, rng.random(count))
        if eta < 1.0:
            x = x + rng.normal(0.0, math.sqrt(smearing_variance(eta)), count)
        return (x,)

    columns = generate(n, draw, reduce, (float,))
    return None if columns is None else columns[0]


def write_csv(path, tag: str, eta: float, seed: int, header: str, columns, fmt: str) -> None:
    """`# key=value` metadata lines, a header line, then one row per sample.

    A row is fmt for each column, comma-joined, applied to Python floats or
    ints; that gives the bytes np.savetxt writes for the same fmt.
    """
    row = ",".join([fmt] * len(columns)) + "\n"
    n = columns[0].size
    with Path(path).open("w") as fh:
        fh.write(f"# state={tag}\n# eta={eta!r}\n# seed={seed}\n# n={n}\n{header}\n")
        for start in range(0, n, CSV_ROWS):
            part = (column[start : start + CSV_ROWS].tolist() for column in columns)
            fh.write("".join(map(row.__mod__, zip(*part))))


def save_dataset_csv(dataset: Dataset, path) -> None:
    """CSV with `# key=value` metadata lines, an `x,phi` header, then one row per sample."""
    columns = [dataset.x, dataset.phi]
    write_csv(path, dataset.state_tag, dataset.eta, dataset.seed, "x,phi", columns, "%.17g")


def load_dataset_csv(path) -> Dataset:
    path = Path(path)
    meta = {}
    try:
        with path.open() as fh:
            line = fh.readline()
            while line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
                line = fh.readline()
            if line.strip() != "x,phi":
                raise ValidationError(f"{path}: expected 'x,phi' header, got {line.strip()!r}")
            with warnings.catch_warnings():
                # loadtxt warns on a file without rows; that case is an error below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[0] == 0:
            raise ValidationError(f"{path}: dataset CSV holds no samples")
        x, phi = data[:, 0], data[:, 1]
        eta, seed = float(meta["eta"]), int(meta.get("seed", 0))
    except KeyError as exc:
        raise ValidationError(f"{path}: missing metadata line {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"{path}: malformed dataset CSV: {exc}") from exc
    return Dataset(x, phi, eta, meta.get("state", "unknown"), seed)


def dataset_to_json(dataset: Dataset) -> dict:
    return {
        "state_tag": dataset.state_tag,
        "eta": dataset.eta,
        "seed": dataset.seed,
        "n": dataset.n,
        "samples": [[float(x), float(p)] for x, p in zip(dataset.x, dataset.phi)],
    }


def dataset_from_json(obj) -> Dataset:
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        samples = np.asarray(obj["samples"], dtype=float)
        if samples.size == 0:
            raise ValidationError("dataset JSON holds no samples")
        x, phi = samples[:, 0], samples[:, 1]
        eta, tag, seed = float(obj["eta"]), obj["state_tag"], int(obj["seed"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed dataset JSON: {exc}") from exc
    return Dataset(x, phi, eta, tag, seed)


def save_dataset_json(dataset: Dataset, path) -> None:
    Path(path).write_text(json.dumps(dataset_to_json(dataset)))


def load_dataset_json(path) -> Dataset:
    return dataset_from_json(Path(path).read_text())
