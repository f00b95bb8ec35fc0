"""Synthetic phase-scanned homodyne records with reproducible per-block seeding.

Sampling model: phi ~ Uniform[0, pi), then x at that phase, efficiency eta a
loss channel on the state and x rescaled by 1/sqrt(eta). A coherent state stays
coherent under loss, so its x is one Gaussian draw of mean Re(beta e^(-i phi))
and variance 1/(4 eta). Number-basis states draw x from the density of the
state after loss (states.lossy_bands) on a grid. Scanned phases take their cos
and sin from states.phase_trig. Every generator checks its arguments
with `sample_count` and hands `generate` a draw(rng, count) function, which gets
one SFC64 stream per block, seeded by SeedSequence(seed, spawn_key=(purpose,
block index)) in block_generator. run_blocks draws blocks on the calling
thread and on helper threads that live only as long as that call (numpy's
generators and ufuncs release the interpreter lock); each block writes only
its own slice, so the output is the same for any thread count. Given a
`reduce` callable, a generator hands each block to it on the calling thread,
in block order, instead of keeping a record of size n.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericRangeError, ValidationError, integer, is_real, json_object
from .states import (
    GRID_MASS_TOL,
    VACUUM_QUADRATURE_VARIANCE,
    Coherent,
    StateSpec,
    _check_phase,
    band_densities,
    check_eta,
    coherent_mean,
    hermite_functions,
    lossy_bands,
    phase_trig,
    state_tag,
    validate_state,
)

BLOCK_SIZE = 1 << 16
# A power of two, so that the full search's steps GRID_NODES/2, ..., 1 end on the top node.
GRID_NODES = 4096
#: Nodes per period of |psi_n|^2 at x = 0 below which the grid sampler refuses level n. Its CDF is a
#: cumulative trapezoid sum, linear between nodes; 4e5 samples of Fock(n) in 0.25-wide bins read a
#: chi2 per degree of freedom against quadrature_pdf of at most 2.2 up to Fock(1050), 1.5 nodes
#: per period (2.0 at Fock(700)), but 2.3-2.8 at Fock(1100)-(1200), 3.1 at (1233) and 100 at (1500).
GRID_NODES_PER_PERIOD = 1.5
LAST_LOWER = GRID_NODES - 2  # the highest lower node of a bracket
# Position table of the coherence-bearing sampler: phase bins over [0, pi] and
# target levels over [0, mass]; samples are bracketed in slices of SEARCH_SLICE.
GUIDE_PHASE_BINS = 64
GUIDE_LEVELS = 512
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
    """SFC64 generator for one sample block, seeded by SeedSequence(seed, spawn_key=(purpose, block)).

    SeedSequence pads a seed's words to its pool size before it appends the
    spawn key, so distinct (seed, purpose, block) give distinct inputs to its
    hash. The list form SeedSequence([seed, purpose, block]) does not: seed
    2**32 + 5, purpose 3, block 0 gives the words of seed 5, purpose 1, block 3.
    """
    seed = integer(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(purpose, block))))


def worker_count() -> int:
    """Threads that draw blocks, the caller included: the CPUs this process may use, at most TOMONOISE_MAX_WORKERS."""
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

    Blocks are drawn on up to worker_count() threads, the calling thread and
    helpers that this call starts and joins, in no fixed order, so draw must
    use only its block's own generator and write only its own slice. Blocks
    are claimed in order, at most 2 * worker_count() of them drawn but not yet
    consumed. consume(result) runs on the calling thread once per block, in
    block order; when the next block is not drawn yet, the calling thread
    draws the next unclaimed block instead of waiting. Each draw runs in a copy
    of the caller's context, so numpy's error state there holds for it too.
    The call returns or raises only after its helpers have ended, and raises
    the failure of the first block in order that failed, or consume's. One
    worker or one block runs plain serial.
    """
    blocks = -(-n // BLOCK_SIZE)
    workers = min(worker_count(), blocks)
    if workers <= 1:
        for block in range(blocks):
            consume(draw(block, min(BLOCK_SIZE, n - block * BLOCK_SIZE)))
        return
    context = contextvars.copy_context()
    # Block 0 is the caller's and helpers start at block 1: when a new helper won block 0, a
    # mixed compare's own peak RSS read about 0.9 MB higher.
    claimed, consumed = 1, 0
    stopped = False  # set by a failed block and by the end of the run: claim no more
    outcomes: dict = {}  # block -> (result, exception), until the block is consumed
    changed = threading.Condition()  # a block was drawn or consumed, or the run stopped

    def claim() -> int | None:
        """The next unclaimed block, under the lock, or None while no block may be claimed."""
        nonlocal claimed
        if stopped or claimed == blocks or claimed - consumed == 2 * workers:
            return None
        claimed += 1
        return claimed - 1

    def draw_block(block: int) -> None:
        """Draw a claimed block, outside the lock, in a copy of the caller's context, and record its outcome."""
        nonlocal stopped
        try:
            outcome = (context.copy().run(draw, block, min(BLOCK_SIZE, n - block * BLOCK_SIZE)), None)
        except BaseException as exc:  # re-raised on the calling thread when its block's turn comes
            outcome = (None, exc)
        with changed:
            outcomes[block] = outcome
            stopped |= outcome[1] is not None  # the run fails at or before this block
            changed.notify_all()

    def serve() -> None:
        while True:
            with changed:
                while (block := claim()) is None:
                    if stopped or claimed == blocks:
                        return
                    changed.wait()
            draw_block(block)

    def take(block: int):
        """Block's result, drawing later unclaimed blocks on the calling thread while it is not ready."""
        while True:
            with changed:
                if block in outcomes:
                    result, error = outcomes.pop(block)
                    if error is not None:
                        raise error
                    return result
                if (mine := claim()) is None:
                    changed.wait()
                    continue
            draw_block(mine)

    helpers = []
    try:
        for i in range(workers - 1):
            helper = threading.Thread(target=serve, name=f"tomonoise-blocks-{i}", daemon=True)
            helper.start()
            helpers.append(helper)
        draw_block(0)
        for block in range(blocks):
            consume(take(block))
            with changed:
                consumed += 1
                changed.notify_all()
    finally:
        with changed:
            stopped = True
            changed.notify_all()
        for helper in helpers:
            helper.join()
        outcomes.clear()


def sample_count(state: StateSpec, eta: float, n) -> int:
    """The checks every generator starts with: a state, an efficiency in (0, 1], and n as an int >= 1."""
    validate_state(state)
    check_eta(eta)
    return integer(n, "sample count", 1)


def generate(n: int, seed: int, purpose: int, draw, reduce, dtypes):
    """Run draw(rng, count), which returns a tuple of arrays, for every block of range(n).

    rng is the block's own block_generator(seed, purpose, block). Without
    reduce, each block writes its arrays, on the thread that draws it, into its slice
    of one new length-n array per dtype, and the arrays are returned
    (NumericRangeError if they cannot be allocated). With reduce,
    reduce(*arrays) gets each block's arrays on the calling thread in block
    order, nothing of size n is allocated, and None is returned.
    """
    # numpy imports its random module on first use: here, on the calling thread, so that its
    # objects (about 0.6 MB) do not sit in a helper thread's malloc arena for the rest of the process.
    import numpy.random  # noqa: F401

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
        check_eta(self.eta)
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


def _descend(cdf, target):
    """Branchless search from node 0 by steps GRID_NODES/2, GRID_NODES/4, ..., 1.

    A step is taken where cdf at its end is still <= target; as GRID_NODES is
    a power of two, the steps reach the top node and no node past it. lo is
    then capped at the last lower node. Returns lo, cdf(lo) and cdf(lo + 1).
    """
    lo = np.zeros(target.size, dtype=np.intp)
    step = GRID_NODES // 2
    while step:
        lo = lo + step * (cdf(lo + step) <= target)  # a select, without np.where's branches
        step >>= 1
    lo = np.minimum(lo, LAST_LOWER)
    return lo, cdf(lo), cdf(lo + 1)


def _settle(cdf, lo, target, top_cell: float):
    """Check guessed lower nodes lo, in [0, LAST_LOWER], and move each failing one a node up or down.

    cdf(idx, rows) is the CDF at nodes idx of the samples rows. A bracket holds
    where cdf(lo) <= target < cdf(lo + 1), the upper bound waived at
    lo = LAST_LOWER as in the full search; a sample that does not move holds
    one, since the CDF is 0 at node 0 and no target lies below it. Near the
    mass the CDF flattens into rounding noise and may reach a target at
    several nodes, so targets at or above top_cell are left to the full search
    and get its answer. Returns lo, cdf(lo) and cdf(lo + 1), and the samples
    still not bracketed.
    """
    every = slice(None)
    flo, fhi = cdf(lo, every), cdf(lo + 1, every)
    missed = target >= top_cell
    up = np.flatnonzero((fhi <= target) & (lo < LAST_LOWER))
    lo[up] += 1
    flo[up] = fhi[up]
    fhi[up] = cdf(lo[up] + 1, up)
    missed[up[(fhi[up] <= target[up]) & (lo[up] != LAST_LOWER)]] = True
    down = np.flatnonzero((flo > target) & (lo > 0))
    lo[down] -= 1
    fhi[down] = flo[down]
    flo[down] = cdf(lo[down], down)
    missed[down[flo[down] > target[down]]] = True
    return (lo, flo, fhi), np.flatnonzero(missed)


def _between(table: np.ndarray, cell: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Linear interpolation of a flat table from entry cell (frac 0) to entry cell + 1 (frac 1)."""
    left = np.take(table, cell)
    return left + frac * (np.take(table, cell + 1) - left)


class QuadratureGridSampler:
    """Inverse-CDF sampler for number-basis states after a loss channel of transmission eta, on a fixed x grid.

    Its bands are lossy_bands(state, eta) and its outcomes unrescaled. Its grid
    spans |x| <= 3 + 2 sqrt(dim) with GRID_NODES nodes. Before the Hermite
    table is built it refuses (NumericRangeError) a lossy state that puts more
    than GRID_MASS_TOL of its photon-number weight above the highest level
    whose |psi_n|^2 the grid samples GRID_NODES_PER_PERIOD times per period at
    x = 0 (Fock(1024) and up at eta = 1); after, one whose grid mass is off 1
    by more than GRID_MASS_TOL either way. The CDF at phase phi
    is Re sum_d w_d C_d(x) with w_0 = 1 and w_d = 2 exp(i d phi), one Fourier band
    C_d per non-zero off-diagonal d of rho. The bands live in a node-major real
    table with columns Re C_0, 2 Re C_d and -2 Im C_d for each band d > 0 (scaling
    by 2 is exact), so the CDF at one node is that node's row dotted with the
    weights [1, cos(d phi), sin(d phi)], built by angle addition from one cos(phi),
    sin(phi) pair.

    Fock and diagonal mixed states have C_0 only and take one
    phase-independent lookup. Coherence-bearing states invert the CDF per
    sample from a guess that is checked. A position table holds, at each of
    GUIDE_PHASE_BINS + 1 phase edges over [0, pi] and GUIDE_LEVELS + 1 level
    edges over [0, mass], the fractional node at which that phase's CDF
    reaches that level. Interpolated bilinearly at a sample's phase and
    target, it names a lower node; one row gather and dot product each give
    the CDF there and one node up, and a sample that is not bracketed moves
    one node up or down. The few still not bracketed, and every target in
    the top level cell, where the CDF flattens into rounding noise, take a
    branchless search from node 0 with power-of-two steps, one row gather and
    one select per step. A bracket is accepted only where
    cdf(lo) <= target < cdf(lo + 1), so the table changes where a search
    starts, never the bracket it finds where the CDF rises through the
    target. Linear interpolation between the bracketing nodes gives x. At one
    fixed phase the bands are combined into a single CDF with positions of its
    own; its guesses are settled and its misses searched by the same rule.
    """

    def __init__(self, state: StateSpec, eta: float = 1.0):
        validate_state(state)
        check_eta(eta)
        if isinstance(state, Coherent):
            raise ValidationError("coherent states are sampled in closed form, not on a grid")
        bands = lossy_bands(state, eta)
        dim = bands[0][1].size
        self.halfwidth = 3.0 + 2.0 * math.sqrt(dim)
        self.xgrid = np.linspace(-self.halfwidth, self.halfwidth, GRID_NODES)
        dx = self.xgrid[1] - self.xgrid[0]
        # |psi_L|^2 has wavenumber 2 sqrt(2 (2L + 1)) at x = 0: top is the highest level with
        # GRID_NODES_PER_PERIOD nodes per period there. Checked before the dim x nodes table is built.
        top = math.floor(((math.pi / (GRID_NODES_PER_PERIOD * dx)) ** 2 - 2.0) / 4.0)
        beyond = float(np.sum(bands[0][1][top + 1 :].real))
        if beyond > GRID_MASS_TOL:
            raise NumericRangeError(
                f"photon numbers above {top} hold weight {beyond:.3g}; the {GRID_NODES}-node quadrature "
                f"grid over |x| <= {self.halfwidth:.2f} resolves no higher level"
            )
        g = band_densities(bands, hermite_functions(dim - 1, self.xgrid))
        cdfs = np.cumsum(np.pad(0.5 * (g[:, 1:] + g[:, :-1]) * dx, ((0, 0), (1, 0))), axis=1)
        self.mass = float(cdfs[0][-1].real)
        if abs(self.mass - 1.0) > GRID_MASS_TOL:
            raise NumericRangeError(
                f"quadrature grid |x| <= {self.halfwidth:.2f} holds mass {self.mass:.9f}, "
                f"not 1 within {GRID_MASS_TOL:g}"
            )
        self.bands = [d for d, _ in bands[1:]]
        self.phase_dependent = bool(self.bands)
        columns = np.concatenate((cdfs[:1].real, 2.0 * cdfs[1:].real, -2.0 * cdfs[1:].imag))
        self.table = np.ascontiguousarray(columns.T)
        if self.phase_dependent:
            self._levels = np.arange(GUIDE_LEVELS + 1) * (self.mass / GUIDE_LEVELS)
            self._top_cell = self._levels[-2]  # the top level cell takes the full search
            # One matrix-vector product per phase edge on the band-major columns: a
            # matrix-matrix product would leave a BLAS thread spinning after it returns.
            edges = np.arange(GUIDE_PHASE_BINS + 1) * (math.pi / GUIDE_PHASE_BINS)
            self.positions = np.stack([self._positions(w @ columns) for w in self._weights(edges)])

    def _weights(self, phi: np.ndarray) -> np.ndarray:
        """Sample-major rows [1, cos(d phi)..., sin(d phi)...] over the bands d.

        The angle-addition recurrence runs over whole rows of a band-major
        array; one transposing copy gives the layout the CDF's einsum reads.
        """
        top = self.bands[-1]
        trig = np.empty((1 + 2 * top, phi.size))  # rows 1, cos(d phi) for d = 1..top, sin(d phi)
        cos, sin = trig[1 : top + 1], trig[top + 1 :]
        trig[0] = 1.0
        cos1, sin1 = phase_trig(np.cos, phi, out=cos[0]), phase_trig(np.sin, phi, out=sin[0])
        term = np.empty(phi.size)
        for cos_prev, sin_prev, cos_d, sin_d in zip(cos, sin, cos[1:], sin[1:]):
            np.multiply(cos_prev, cos1, out=cos_d)
            np.subtract(cos_d, np.multiply(sin_prev, sin1, out=term), out=cos_d)
            np.multiply(sin_prev, cos1, out=sin_d)
            np.add(sin_d, np.multiply(cos_prev, sin1, out=term), out=sin_d)
        if len(self.bands) < top:  # a band of rho is zero: keep the rows of the others
            trig = trig[[0, *self.bands, *(top + d for d in self.bands)]]
        return np.ascontiguousarray(trig.T)

    def _positions(self, cdf: np.ndarray) -> np.ndarray:
        """Fractional node at which a CDF over the grid reaches each level edge, linear between nodes."""
        return np.interp(self._levels, cdf, np.arange(cdf.size, dtype=float))

    def _level(self, target: np.ndarray):
        """Level cell of each target and its fraction within it; out-of-range targets land in an end cell."""
        level = np.clip(target * (GUIDE_LEVELS / self.mass), 0.0, GUIDE_LEVELS)
        cell = np.minimum(level.astype(np.intp), GUIDE_LEVELS - 1)
        return cell, level - cell

    def _node(self, position: np.ndarray) -> np.ndarray:
        """Lower node of each fractional position, within [0, LAST_LOWER]; NaN reads as LAST_LOWER."""
        return np.fmax(np.fmin(position, LAST_LOWER), 0.0).astype(np.intp)

    def _interpolate(self, target, lo, flo, fhi, out=None) -> np.ndarray:
        t = np.clip((target - flo) / np.maximum(fhi - flo, 1e-300), 0.0, 1.0)
        left = np.take(self.xgrid, lo)
        return np.add(left, t * (np.take(self.xgrid, lo + 1) - left), out=out)

    def _cdf(self, weights: np.ndarray):
        """CDF at nodes idx of the samples rows (default all), for sample-major weights."""
        return lambda idx, rows=slice(None): np.einsum(
            "sk,sk->s", np.take(self.table, idx, axis=0), weights[rows]
        )

    def _guess(self, phi: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Lower node of each target at its phase, read off the position table bilinearly."""
        # A phase outside [0, pi) lands in an end bin and at worst misses its bracket.
        phase = np.clip(phi * (GUIDE_PHASE_BINS / math.pi), 0.0, GUIDE_PHASE_BINS)
        row = np.minimum(phase.astype(np.intp), GUIDE_PHASE_BINS - 1)
        cell, frac = self._level(target)
        cell += row * (GUIDE_LEVELS + 1)  # flat index into the (phase edge, level edge) table
        below = _between(self.positions, cell, frac)
        above = _between(self.positions, cell + (GUIDE_LEVELS + 1), frac)
        return self._node(below + (phase - row) * (above - below))

    def _fall_back(self, x: np.ndarray, missed: np.ndarray, cdf, target: np.ndarray) -> np.ndarray:
        """Overwrite x at the samples missed with the full search's outcome; cdf(idx) reads the missed rows."""
        if missed.size:
            target = target[missed]
            x[missed] = self._interpolate(target, *_descend(cdf, target))
        return x

    def sample(self, phi: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Outcomes x at phases phi for uniform deviates u in [0, 1)."""
        target = u * self.mass
        if not self.phase_dependent:
            return np.interp(target, self.table[:, 0], self.xgrid)
        x = np.empty(target.size)
        missed = [np.empty(0, dtype=np.intp)]
        # Slices small enough that the gathered rows and weights stay in cache. A
        # slice's weights are made after its guesses and bound to no name, so they
        # are freed before x is interpolated, and its brackets before the next
        # slice starts: arrays kept longer cost both time and peak memory.
        for first in range(0, target.size, SEARCH_SLICE):
            part = slice(first, first + SEARCH_SLICE)
            guess = self._guess(phi[part], target[part])
            found, cut = _settle(self._cdf(self._weights(phi[part])), guess, target[part], self._top_cell)
            self._interpolate(target[part], *found, out=x[part])
            missed.append(first + cut)
            del guess, found
        missed = np.concatenate(missed)
        return self._fall_back(x, missed, self._cdf(self._weights(phi[missed])), target)

    def sample_fixed_phase(self, phi: float, u: np.ndarray) -> np.ndarray:
        """Outcomes x at the single phase phi for uniform deviates u in [0, 1)."""
        target = u * self.mass
        if not self.phase_dependent:
            return np.interp(target, self.table[:, 0], self.xgrid)
        combined = self.table @ self._weights(np.array([float(phi)]))[0]
        guess = self._node(_between(self._positions(combined), *self._level(target)))
        cdf = lambda idx, rows=None: np.take(combined, idx)
        found, missed = _settle(cdf, guess, target, self._top_cell)
        return self._fall_back(self._interpolate(target, *found), missed, cdf, target)


def noise_sigma(variance: float, eta: float) -> float:
    """sqrt(variance / eta), the spread of a lossy coherent outcome; NumericRangeError where a subnormal eta overflows it."""
    sigma = math.sqrt(variance / eta)
    if math.isinf(sigma):
        raise NumericRangeError(f"at eta = {eta!r} the outcome spread sqrt({variance!r} / eta) leaves the float range")
    return sigma


def _outcomes(state: StateSpec, eta: float, phi: float | None):
    """outcomes(rng, phi, count): outcomes at phase(s) phi, rescaled by 1/sqrt(eta); made before any block is drawn.

    phi is the one phase, or None for scanned phases. A coherent state stays coherent under loss: its outcome is
    coherent_mean plus one N(0, 1/(4 eta)) draw, refused where the mean or the spread leaves the float range. Any
    other state's is invert(phi, u) / sqrt(eta) at uniform u, invert the grid sampler of the state after loss.
    """
    if isinstance(state, Coherent):
        with np.errstate(over="ignore", invalid="ignore"):
            # over [0, pi) Re(beta e^(-i phi)) reaches +-|beta|: the means fit in a double exactly when |beta| does
            mean = math.hypot(state.beta.real, state.beta.imag) if phi is None else coherent_mean(state.beta, phi)
        if not np.isfinite(mean):
            where = "phases in [0, pi), where they reach |beta|," if phi is None else f"phi = {phi!r}"
            raise NumericRangeError(
                f"the quadrature means Re(beta e^(-i phi)) of beta = {state.beta!r} at {where} leave the float range"
            )
        sigma = noise_sigma(VACUUM_QUADRATURE_VARIANCE, eta)  # exactly 0.5 at eta = 1
        return lambda rng, phi, count: coherent_mean(state.beta, phi) + rng.normal(0.0, sigma, count)
    sampler = QuadratureGridSampler(state, eta)
    invert = sampler.sample if phi is None else sampler.sample_fixed_phase
    return lambda rng, phi, count: invert(phi, rng.random(count)) / math.sqrt(eta)


def sample_homodyne(state: StateSpec, eta: float, n: int, seed: int, reduce=None) -> Dataset | None:
    """Draw n phase-scanned homodyne samples; identical inputs give identical output.

    With reduce, each block goes to reduce(x, phi) instead (see generate), and
    None is returned.
    """
    n = sample_count(state, eta, n)
    outcomes = _outcomes(state, eta, None)

    def draw(rng, count):
        phi = rng.uniform(0.0, math.pi, count)
        return outcomes(rng, phi, count), phi

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
    phi = _check_phase(phi)
    outcomes = _outcomes(state, eta, phi)

    def draw(rng, count):
        return (outcomes(rng, phi, count),)

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
    obj = json_object(obj, "dataset JSON", "samples")
    try:
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

    The metadata is json.dumps's text, and each sample the CSV's '%.17g' text,
    with '.0' after an integer text so that json.loads reads back the same
    float. floattext.format_json_rows makes the rows CSV_ROWS at a time.
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
