"""Synthetic phase-scanned homodyne records with reproducible counter-based seeding.

Sampling model: phi ~ Uniform[0, pi), then x from the ideal (eta = 1)
quadrature density at that phase, then additive Gaussian noise of variance
(1 - eta)/(4 eta) when eta < 1. Every generator checks its arguments with
`sample_count` and hands `generate` a draw(rng, count) function, which gets
one Philox stream per block keyed by (seed, purpose, block index). Blocks run
on a small thread pool (numpy's generators and ufuncs release the interpreter
lock), each block writes only its own slice, so the output is the same for
any thread count. Given a `reduce` callable, a generator hands each block to
it on the calling thread, in block order, instead of keeping a record of size n.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericRangeError, ValidationError, integer, is_real
from .states import (
    GRID_MASS_TOL,
    HERMITE_REACH,
    Coherent,
    StateSpec,
    _check_eta,
    band_densities,
    check_reach,
    coherent_mean,
    hermite_functions,
    number_bands,
    smearing_variance,
    state_tag,
    validate_state,
)

BLOCK_SIZE = 1 << 16
GRID_NODES = 4096
# Guide table of the coherence-bearing sampler: phase bins over [0, pi), target
# levels over [0, mass), and the power-of-two steps of its short search, which
# reach 2**GUIDE_STEPS - 1 nodes above the cell's start node.
GUIDE_PHASE_BINS = 64
GUIDE_LEVELS = 512
GUIDE_STEPS = 5
SEARCH_SLICE = 1 << 14
# Dataset rows formatted per write: 4096 rows keep their strings in cache and
# their temporaries near 0.7 MB (65536-row slices were slower and held 10 MB).
CSV_ROWS = 1 << 12

# Purpose ids keep streams for different simulators independent at equal seeds.
PURPOSE_HOMODYNE = 1
PURPOSE_PHOTOCOUNT = 2
PURPOSE_HETERODYNE = 3
PURPOSE_FIXED_PHASE = 4


def block_generator(seed: int, purpose: int, block: int) -> np.random.Generator:
    """Philox generator for one sample block; key = (seed, purpose << 48 | block)."""
    seed = integer(seed, "seed")
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


def run_blocks(n: int, draw, consume) -> None:
    """Call draw(block, count) once for every BLOCK_SIZE block of range(n), and consume its result.

    Blocks are drawn on up to worker_count() threads in no fixed order, at most
    two per thread in flight, so draw must use only its block's own generator
    and write only its own slice. consume(result) runs on the calling thread
    once per block, in block order, while later blocks are being drawn. Each
    draw runs in a copy of the caller's context, so numpy's error state there
    holds for it too. One worker or one block runs plain serial.
    """
    starts = range(0, n, BLOCK_SIZE)

    def one(block: int):
        return draw(block, min(BLOCK_SIZE, n - starts[block]))

    workers = min(worker_count(), len(starts))
    if workers <= 1:
        for block in range(len(starts)):
            consume(one(block))
        return
    from concurrent.futures import ThreadPoolExecutor  # kept out of start-up

    pending = []
    with ThreadPoolExecutor(workers) as pool:
        for block in range(len(starts)):
            pending.append(pool.submit(contextvars.copy_context().run, one, block))
            if len(pending) == 2 * workers:
                consume(pending.pop(0).result())  # re-raises an exception from its block
        while pending:
            consume(pending.pop(0).result())


def sample_count(state: StateSpec, eta: float, n) -> int:
    """The checks every generator starts with: a state, an efficiency in (0, 1], and n as an int >= 1."""
    validate_state(state)
    _check_eta(eta)
    return integer(n, "sample count", 1)


def generate(n: int, seed: int, purpose: int, draw, reduce, dtypes):
    """Run draw(rng, count), which returns a tuple of arrays, for every block of range(n).

    rng is the block's own block_generator(seed, purpose, block). Without
    reduce, each block writes its arrays, on its worker thread, into its slice
    of one new length-n array per dtype, and the arrays are returned
    (NumericRangeError if they cannot be allocated). With reduce,
    reduce(*arrays) gets each block's arrays on the calling thread in block
    order, nothing of size n is allocated, and None is returned.
    """

    def arrays(block, count):
        return draw(block_generator(seed, purpose, block), count)

    if reduce is not None:
        run_blocks(n, arrays, lambda block_arrays: reduce(*block_arrays))
        return None
    try:
        outs = [np.empty(n, dtype=dtype) for dtype in dtypes]
    except (MemoryError, ValueError) as exc:  # numpy's ValueError: "array is too big"
        size = n * sum(np.dtype(dtype).itemsize for dtype in dtypes)
        raise NumericRangeError(
            f"a record of n = {n} samples needs {size} bytes, more memory than can be allocated"
        ) from exc

    def record(block, count):
        start = block * BLOCK_SIZE
        for out, values in zip(outs, arrays(block, count)):
            out[start : start + count] = values

    run_blocks(n, record, lambda done: None)
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
        # numpy's repr would not reload from a CSV header; a Python int eta stays as given
        self.eta = self.eta.item() if isinstance(self.eta, np.generic) else self.eta
        self.seed = integer(self.seed, "seed")
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


def _descend(cdf, lo, target, step: int, last: int):
    """Branchless search up from nodes lo by steps step, step/2, ..., 1.

    A step is taken where cdf at its end is still <= target; lo is then capped
    at last. Returns lo, cdf(lo) and cdf(lo + 1).
    """
    while step:
        lo = lo + step * (cdf(lo + step) <= target)  # a select, without np.where's branches
        step >>= 1
    lo = np.minimum(lo, last)
    return lo, cdf(lo), cdf(lo + 1)


def _guided(cdf, start, target, last: int):
    """_descend over the window of GUIDE_STEPS steps above each guide start node.

    Also returns the samples it did not bracket: those of wide cells (start -1)
    and those whose result fails cdf(lo) <= target < cdf(lo + 1), the upper
    bound waived at lo = last as in the full search.
    """
    found = _descend(cdf, np.maximum(start, 0), target, 1 << (GUIDE_STEPS - 1), last)
    lo, flo, fhi = found
    return found, np.flatnonzero((start < 0) | (flo > target) | ((fhi <= target) & (lo != last)))


def _guide_cells(low, high) -> np.ndarray:
    """Start node of each guide cell, or -1 (wide) where its brackets do not fit one window.

    low and high are the lowest and highest bracketing nodes seen at the
    cell's corners. The start keeps one node of slack below low, and the
    window, which holds lo = start .. start + 2**GUIDE_STEPS - 1, one above high.
    """
    start = np.maximum(low - 1, 0)
    return np.where(high + 1 - start < 1 << GUIDE_STEPS, start, -1).astype(np.int32)


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
    phase-independent lookup. Coherence-bearing states invert the CDF by a
    branchless search per sample: power-of-two steps over the table, one row
    gather and one select per step, then linear interpolation between the
    bracketing nodes. A guide table (Chen & Asau 1974) starts each search a
    few nodes below its answer. It splits [0, pi) into GUIDE_PHASE_BINS phase
    bins and [0, mass) into GUIDE_LEVELS target levels, and holds for each
    cell a start node from the CDF brackets at the cell's corners, or -1 where
    those brackets span too many nodes. From the start node GUIDE_STEPS steps
    reach the answer; a sample in a wide cell, or whose short search does not
    end on a bracket, takes the full search from node 0. Both searches read
    the same CDF values, so the guide changes where a search starts, never
    the bracket it finds where the CDF rises through the target. The table is
    padded with +inf rows so that no step leaves it. At one fixed phase the
    bands are combined into a single CDF, inverted the same way with a
    one-dimensional guide, and searchsorted for the samples it misses.
    """

    def __init__(self, state: StateSpec, nodes: int = GRID_NODES):
        validate_state(state)
        if isinstance(state, Coherent):
            raise ValidationError("coherent states are sampled in closed form, not on a grid")
        bands = number_bands(state)
        dim = bands[0][1].size
        # The highest populated level, checked before the dim x nodes Hermite table is allocated.
        top = np.flatnonzero(bands[0][1].real > 0)[-1]
        turning = math.sqrt((2 * top + 1) / 2)
        if turning > 2.0 * HERMITE_REACH:
            raise NumericRangeError(
                f"photon number {top} has its turning point at |x| = {turning:.2f}, more than "
                f"twice the |x| <= {HERMITE_REACH:.2f} that the number-basis recurrence resolves"
            )
        self.halfwidth = 3.0 + 2.0 * math.sqrt(dim)
        self.xgrid = np.linspace(-self.halfwidth, self.halfwidth, nodes)
        dx = self.xgrid[1] - self.xgrid[0]
        g = band_densities(bands, hermite_functions(dim - 1, self.xgrid))
        cdfs = np.cumsum(np.pad(0.5 * (g[:, 1:] + g[:, :-1]) * dx, ((0, 0), (1, 0))), axis=1)
        self.mass = float(cdfs[0][-1].real)
        if self.mass < 1.0 - GRID_MASS_TOL:
            raise NumericRangeError(
                f"quadrature grid |x| <= {self.halfwidth:.2f} holds only mass {self.mass:.9f}; "
                f"the number-basis recurrence resolves only |x| <= {HERMITE_REACH:.1f}"
            )
        check_reach(bands[0][1])
        self.bands = [d for d, _ in bands[1:]]
        self.phase_dependent = bool(self.bands)
        # Steps top, top/2, ..., 1 reach every lower node 0..nodes-2; candidates
        # run up to 2 top - 1, and a guided window up to nodes - 3 + 2**GUIDE_STEPS.
        self._top_step = 1 << (max(nodes - 2, 1).bit_length() - 1)
        columns = np.concatenate((cdfs[:1].real, 2.0 * cdfs[1:].real, -2.0 * cdfs[1:].imag))
        rows = max(nodes + (1 << GUIDE_STEPS), 2 * self._top_step)
        self.table = np.zeros((rows, columns.shape[0]))
        self.table[:nodes] = columns.T
        self.table[nodes:, 0] = np.inf
        if self.phase_dependent:
            self._levels = np.arange(GUIDE_LEVELS + 1) * (self.mass / GUIDE_LEVELS)
            # One matrix-vector product per bin edge on the band-major columns: a
            # matrix-matrix product would leave a BLAS thread spinning after it returns.
            edges = np.arange(GUIDE_PHASE_BINS + 1) * (math.pi / GUIDE_PHASE_BINS)
            brackets = np.stack([self._brackets(w @ columns) for w in self._weights(edges)])
            self.guide = _guide_cells(
                np.minimum(brackets[:-1, :-1], brackets[1:, :-1]),
                np.maximum(brackets[:-1, 1:], brackets[1:, 1:]),
            )

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

    def _brackets(self, cdf: np.ndarray) -> np.ndarray:
        """Lower bracketing node of each guide level edge in a CDF over the grid, capped at nodes - 2."""
        return np.minimum(np.searchsorted(cdf, self._levels, side="right") - 1, self.xgrid.size - 2)

    def _level(self, target: np.ndarray) -> np.ndarray:
        """Guide level of each target; out-of-range targets land in an end level."""
        return np.clip(target * (GUIDE_LEVELS / self.mass), 0, GUIDE_LEVELS - 1).astype(np.intp)

    def _interpolate(self, target, lo, flo, fhi) -> np.ndarray:
        t = np.clip((target - flo) / np.maximum(fhi - flo, 1e-300), 0.0, 1.0)
        left = self.xgrid[lo]
        return left + t * (self.xgrid[lo + 1] - left)

    def _cdf(self, weights: np.ndarray):
        """CDF at nodes idx, one per sample, for sample-major weights."""
        return lambda idx: np.einsum("sk,sk->s", np.take(self.table, idx, axis=0), weights)

    def _search(self, phi: np.ndarray, target: np.ndarray):
        """Lower bracketing node of each target at its phase, with the CDF there and one node up.

        The guided search runs slice by slice, small enough that the gathered
        rows and weights stay in cache; the samples it misses take one full
        search at the end.
        """
        last = self.xgrid.size - 2
        found = (np.empty(target.size, dtype=np.intp), np.empty(target.size), np.empty(target.size))
        missed = [np.empty(0, dtype=np.intp)]
        for first in range(0, target.size, SEARCH_SLICE):
            part = slice(first, first + SEARCH_SLICE)
            # A phase outside [0, pi) lands in an end bin and at worst misses its window.
            phase_bin = np.clip(phi[part] * (GUIDE_PHASE_BINS / math.pi), 0, GUIDE_PHASE_BINS - 1)
            cell = phase_bin.astype(np.intp) * GUIDE_LEVELS + self._level(target[part])
            start = np.take(self.guide, cell)  # flat index into the (bin, level) table
            values, miss = _guided(self._cdf(self._weights(phi[part])), start, target[part], last)
            for out, value in zip(found, values):
                out[part] = value
            missed.append(first + miss)
        missed = np.concatenate(missed)
        if missed.size:
            lo = np.zeros(missed.size, dtype=np.intp)
            cdf = self._cdf(self._weights(phi[missed]))
            full = _descend(cdf, lo, target[missed], self._top_step, last)
            for out, values in zip(found, full):
                out[missed] = values
        return found

    def _lookup(self, phi: float, target: np.ndarray):
        """As _search, for targets that all share the phase phi."""
        last = self.xgrid.size - 2
        cdf = self.table[: self.xgrid.size] @ self._weights(np.array([float(phi)]))[0]
        brackets = self._brackets(cdf)
        start = _guide_cells(brackets[:-1], brackets[1:])[self._level(target)]
        padded = np.concatenate((cdf, np.full(1 << GUIDE_STEPS, np.inf)))
        found, missed = _guided(lambda idx: np.take(padded, idx), start, target, last)
        if missed.size:
            lo = np.minimum(np.searchsorted(cdf, target[missed], side="right") - 1, last)
            for out, values in zip(found, (lo, cdf[lo], cdf[lo + 1])):
                out[missed] = values
        return found

    def sample(self, phi: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Outcomes x at phases phi for uniform deviates u in [0, 1)."""
        target = u * self.mass
        if not self.phase_dependent:
            return np.interp(target, self.table[: self.xgrid.size, 0], self.xgrid)
        found = self._search(phi, target)
        x = np.empty(target.size)
        # In the search's slices, so that the temporaries stay in cache.
        for first in range(0, target.size, SEARCH_SLICE):
            part = slice(first, first + SEARCH_SLICE)
            x[part] = self._interpolate(target[part], *(column[part] for column in found))
        return x

    def sample_fixed_phase(self, phi: float, u: np.ndarray) -> np.ndarray:
        """Outcomes x at the single phase phi for uniform deviates u in [0, 1)."""
        target = u * self.mass
        if not self.phase_dependent:
            return np.interp(target, self.table[: self.xgrid.size, 0], self.xgrid)
        return self._interpolate(target, *self._lookup(phi, target))


def _outcomes(state: StateSpec, eta: float, rng, phi, count: int, invert) -> np.ndarray:
    """count outcomes at phase(s) phi: the ideal quadrature, then the efficiency smear.

    A coherent state's ideal outcome is coherent_mean plus N(0, 1/4); any
    other state's is invert(phi, u), a grid sampler method, at uniform u.
    """
    if isinstance(state, Coherent):
        x = coherent_mean(state.beta, phi) + rng.normal(0.0, 0.5, count)
    else:
        x = invert(phi, rng.random(count))
    if eta < 1.0:
        x = x + rng.normal(0.0, math.sqrt(smearing_variance(eta)), count)
    return x


def sample_homodyne(state: StateSpec, eta: float, n: int, seed: int, reduce=None) -> Dataset | None:
    """Draw n phase-scanned homodyne samples; identical inputs give identical output.

    With reduce, each block goes to reduce(x, phi) instead (see generate), and
    None is returned.
    """
    n = sample_count(state, eta, n)
    # Re(beta e^(-i phi)) reaches +-|beta| over [0, pi): the means fit in a double exactly when |beta| does
    if isinstance(state, Coherent) and math.isinf(math.hypot(state.beta.real, state.beta.imag)):
        raise NumericRangeError(
            f"|beta| of beta = {state.beta!r} exceeds the largest double, so the quadrature means "
            "Re(beta e^(-i phi)) leave the float range"
        )
    invert = None if isinstance(state, Coherent) else QuadratureGridSampler(state).sample

    def draw(rng, count):
        phi = rng.uniform(0.0, math.pi, count)
        return _outcomes(state, eta, rng, phi, count, invert), phi

    columns = generate(n, seed, PURPOSE_HOMODYNE, draw, reduce, (float, float))
    return None if columns is None else Dataset(*columns, eta, state_tag(state), seed)


def sample_fixed_phase(
    state: StateSpec, eta: float, n: int, seed: int, phi: float = 0.0, reduce=None
) -> np.ndarray | None:
    """Homodyne outcomes at one fixed local-oscillator phase (direct x measurement).

    With reduce, each block goes to reduce(x) instead (see generate), and None
    is returned.
    """
    n = sample_count(state, eta, n)
    invert = None if isinstance(state, Coherent) else QuadratureGridSampler(state).sample_fixed_phase

    def draw(rng, count):
        return (_outcomes(state, eta, rng, phi, count, invert),)

    columns = generate(n, seed, PURPOSE_FIXED_PHASE, draw, reduce, (float,))
    return None if columns is None else columns[0]


def save_dataset_csv(dataset: Dataset, path) -> None:
    """CSV with `# key=value` metadata lines, an `x,phi` header, then one row per sample.

    A row is x and phi as '%.17g', comma-joined: the bytes np.savetxt writes
    for that format. floattext.format_rows makes them CSV_ROWS rows at a time.
    """
    from .floattext import format_rows  # kept out of start-up

    n = dataset.n
    head = f"# state={dataset.state_tag}\n# eta={dataset.eta!r}\n# seed={dataset.seed}\n# n={n}\nx,phi\n"
    with Path(path).open("wb") as fh:
        fh.write(head.encode())
        for start in range(0, n, CSV_ROWS):
            stop = start + CSV_ROWS
            fh.write(format_rows([dataset.x[start:stop], dataset.phi[start:stop]]))


def load_dataset_csv(path) -> Dataset:
    """The dataset of a CSV file: metadata lines, the `x,phi` header, then rows as np.loadtxt reads them."""
    from .floattext import read_rows  # kept out of start-up

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
            expect = meta.get("n", "")
            data = read_rows(fh, 2, int(expect) if expect.isdecimal() else 0)
        if data.shape[0] == 0:
            raise ValidationError(f"{path}: dataset CSV holds no samples")
        x, phi = data[:, 0], data[:, 1]
        eta, seed = float(meta["eta"]), int(meta.get("seed", 0))
    except KeyError as exc:
        raise ValidationError(f"{path}: missing metadata line {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"{path}: malformed dataset CSV: {exc}") from exc
    return Dataset(x, phi, eta, meta.get("state", "unknown"), seed)


def dataset_from_json(obj) -> Dataset:
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        samples = np.asarray(obj["samples"], dtype=float)
        if samples.size == 0:
            raise ValidationError("dataset JSON holds no samples")
        x, phi = samples[:, 0], samples[:, 1]
        eta, tag, seed = obj["eta"], obj["state_tag"], obj["seed"]
        if not is_real(eta):
            raise ValidationError(f"dataset JSON eta must be a number, got {eta!r}")
        eta, seed = float(eta), integer(seed, "dataset JSON seed")
        if not isinstance(tag, str):
            raise ValidationError(f"dataset JSON state_tag must be a string, got {tag!r}")
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed dataset JSON: {exc}") from exc
    return Dataset(x, phi, eta, tag, seed)


#: What the JSON writer puts between its metadata and its first sample.
JSON_SAMPLES = b', "samples": [['
#: The metadata keys of a JSON dataset, in the order the writer puts them.
JSON_KEYS = ["state_tag", "eta", "seed", "n"]


def save_dataset_json(dataset: Dataset, path) -> None:
    """One JSON object: state_tag, eta, seed, n, then samples as [x, phi] pairs, written row by row.

    The bytes are those of json.dumps of the whole object. floattext.format_json_rows
    makes the rows CSV_ROWS at a time.
    """
    from .floattext import format_json_rows  # kept out of start-up

    meta = dict(zip(JSON_KEYS, (dataset.state_tag, dataset.eta, dataset.seed, dataset.n)))
    n = dataset.n
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(meta)[:-1].encode() + JSON_SAMPLES)
        for start in range(0, n, CSV_ROWS):
            stop = start + CSV_ROWS
            text = format_json_rows([dataset.x[start:stop], dataset.phi[start:stop]])
            fh.write(text if stop < n else text[:-3])  # the last row ends in ']' alone
        fh.write(b"]}")


def _json_head(text: bytes) -> dict | None:
    """The metadata in text, the bytes of a JSON dataset before its first JSON_SAMPLES, if the writer's; else None.

    That is ASCII that json.loads reads, with a closing brace, as an object of
    the keys JSON_KEYS in that order.
    """
    if not text.isascii():
        return None
    try:
        head = json.loads(text.decode() + "}")
    except ValueError:
        return None
    return head if isinstance(head, dict) and list(head) == JSON_KEYS else None


def load_dataset_json(path) -> Dataset:
    """The dataset of a JSON file, as dataset_from_json of its whole text reads it.

    A file that starts as the writer's files do has its samples read in pieces
    by floattext.read_json_rows, its metadata's n sizing the first allocation.
    Any other file, or one whose samples that leaves alone, is parsed whole by
    json.loads.
    """
    from .floattext import READ_CHARS, read_json_rows  # kept out of start-up

    path = Path(path)
    with path.open("rb") as fh:
        start = fh.read(READ_CHARS)
        cut = start.find(JSON_SAMPLES)
        head = _json_head(start[:cut]) if cut >= 0 else None
        if head is not None:
            fh.seek(cut + len(JSON_SAMPLES))
            samples = read_json_rows(fh, 2, head["n"] if type(head["n"]) is int else 0)
            if samples is not None:
                return dataset_from_json({**head, "samples": samples})
    return dataset_from_json(path.read_text())
