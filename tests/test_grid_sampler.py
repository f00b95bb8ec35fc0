"""The coherence-bearing grid sampler against the complex bisection it replaced.

BisectionSampler is the earlier QuadratureGridSampler for states with
coherences, its arithmetic unchanged; its weights and its bisection loop sit
in methods of their own so tests can read the bracketing node. The sampler's
outcomes must equal those of its own full search from node 0 wherever the CDF
is strictly increasing, that search must pick the bisection's bracket there,
and every outcome must land within 1e-9 of the bisection. States without
bands (Fock, diagonal) take the same bracket rule on their one CDF, and are
checked against np.interp on it.
"""

import math
import resource
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.signal import fftconvolve
from scipy.stats import kstest

from conftest import sha256, small_density_matrices
from tomonoise import (
    Fock,
    Mixed,
    normal_moment,
    quadrature_pdf,
    sample_fixed_phase,
    sample_homodyne,
    simulate_photocount,
)
from tomonoise import homodyne
from tomonoise.homodyne import BLOCK_SIZE, GRID_NODES, QuadratureGridSampler
from tomonoise.kernels import kernel_monomial
from tomonoise.states import hermite_functions

X_TOL = 1e-9


class BisectionSampler:
    """Reference: per-sample bisection over complex band CDFs, combined by einsum."""

    def __init__(self, state):
        dim = state.dim
        self.halfwidth = 3.0 + 2.0 * math.sqrt(dim)
        self.xgrid = np.linspace(-self.halfwidth, self.halfwidth, GRID_NODES)
        dx = self.xgrid[1] - self.xgrid[0]
        psi = hermite_functions(dim - 1, self.xgrid)
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
        self.offsets = np.array(offsets)
        self.cdfs = np.stack(cdfs)
        self.mass = float(self.cdfs[0][-1].real)

    def _cdf_at(self, idx, weights):
        gathered = self.cdfs[:, idx]
        return np.einsum("ds,ds->s", weights, gathered).real

    def _weights(self, phi):
        weights = np.exp(1j * np.outer(self.offsets, phi))
        weights[1:] *= 2.0
        return weights

    def bracket(self, phi, target):
        weights = self._weights(phi)
        lo = np.zeros(phi.size, dtype=np.intp)
        hi = np.full(phi.size, self.xgrid.size - 1, dtype=np.intp)
        while int((hi - lo).max()) > 1:
            mid = (lo + hi) // 2
            below = self._cdf_at(mid, weights) <= target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return lo, hi

    def sample(self, phi, u):
        target = u * self.mass
        weights = self._weights(phi)
        lo, hi = self.bracket(phi, target)
        flo = self._cdf_at(lo, weights)
        fhi = self._cdf_at(hi, weights)
        t = np.clip((target - flo) / np.maximum(fhi - flo, 1e-300), 0.0, 1.0)
        return self.xgrid[lo] + t * (self.xgrid[hi] - self.xgrid[lo])


def full_search(sampler, phi, target, fixed=None):
    """The branchless search from node 0 alone, on the CDF the sampler reads.

    That is the per-sample CDF at phases phi, or with `fixed` the combined CDF
    of sample_fixed_phase at that phase. Returns the interpolated outcomes, the
    bracket (lo, cdf(lo), cdf(lo + 1)) and the CDF as cdf(idx, rows).
    """
    if fixed is None:
        cdf = sampler._cdf(sampler._weights(phi))
    else:
        combined = sampler.table @ sampler._weights(np.array([float(fixed)]))[0]
        cdf = lambda idx, rows=None: np.take(combined, idx)
    found = homodyne._descend(cdf, target)
    return sampler._interpolate(target, *found), found, cdf


def rising_around(cdf, lo):
    """Where cdf rises strictly over the nodes lo - 1 .. lo + 2 around each bracket."""
    around = [cdf(np.clip(lo + k, 0, GRID_NODES - 1)) for k in (-1, 0, 1, 2)]
    return np.all(np.diff(around, axis=0) > 0.0, axis=0)


def assert_matches_bisection(state, phi, u, fixed=None):
    """Compare outcomes with the full search and brackets with the bisection; `fixed` is a shared phase.

    Returns the fraction of samples whose bracket lies where the CDF rises strictly.
    """
    new = QuadratureGridSampler(state)
    ref = BisectionSampler(state)
    assert new.phase_dependent
    target = u * new.mass
    if fixed is None:
        x_new = new.sample(phi, u)
    else:
        phi = np.full(u.size, fixed)
        x_new = new.sample_fixed_phase(fixed, u)
    x_full, (lo_full, _, _), _ = full_search(new, phi, target, fixed)
    lo_ref, hi_ref = ref.bracket(phi, target)
    assert np.array_equal(hi_ref, lo_ref + 1)
    # strictly increasing CDF over the nodes around the reference bracket
    weights = ref._weights(phi)
    rising = rising_around(lambda idx: ref._cdf_at(idx, weights), lo_ref)
    np.testing.assert_array_equal(x_new[rising], x_full[rising])
    np.testing.assert_array_equal(lo_full[rising], lo_ref[rising])
    np.testing.assert_allclose(x_new, ref.sample(phi, u), rtol=0.0, atol=X_TOL)
    return rising.mean()


def mixed6(seed):
    """A dim-6 pure state mixed with the identity: every band of rho is non-zero."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    p = rng.uniform(0.2, 0.4)
    return Mixed((1.0 - p) * np.outer(v, v.conj()) + p * np.eye(6) / 6.0)


def deviates(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, math.pi, n), rng.random(n)


class TestAgainstBisection:
    @given(small_density_matrices(), st.integers(0, 2**31 - 1))
    def test_random_states_with_coherences(self, rho, seed):
        assume(np.max(np.abs(np.triu(rho, 1))) > 1e-6)
        assert assert_matches_bisection(Mixed(rho), *deviates(seed, 4096)) > 0.99

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dim6_family(self, seed):
        assert assert_matches_bisection(mixed6(seed), *deviates(seed, 1 << 17)) > 0.99

    @pytest.mark.parametrize("phi", [0.0, 1.1, np.nextafter(math.pi, 0.0)])
    def test_fixed_phase(self, phi):
        _, u = deviates(5, 1 << 16)
        assert assert_matches_bisection(mixed6(5), None, u, fixed=phi) > 0.99

    def test_extreme_deviates(self):
        u = np.array([0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-6])
        phi = np.linspace(0.0, 3.0, u.size)
        assert_matches_bisection(mixed6(6), phi, u)
        # Near u = 1 the density is so small that a last-bit change of the CDF moves x by
        # more than 1e-9 (by 7e-6 at 1 - 1e-12), and above that the CDF is flat to
        # rounding; the outcome must still rise with u and stay on the grid.
        sampler = QuadratureGridSampler(mixed6(6))
        tops = [sampler.sample(phi, np.full(u.size, v)) for v in (1 - 1e-6, 1 - 1e-12, 1 - 2**-53)]
        assert np.all(np.diff(tops, axis=0) >= 0.0)
        assert np.all(tops[-1] <= sampler.xgrid[-1])


class TestEveryBand:
    """A dim-6 state with all five off-diagonal bands non-zero, at n = 4e5."""

    state = mixed6(7)

    def test_bands_all_present(self):
        assert QuadratureGridSampler(self.state).bands == [1, 2, 3, 4, 5]

    @pytest.fixture(scope="class")
    def dataset(self):
        return sample_homodyne(self.state, 1.0, 400_000, 31)

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(6) for m in range(6) if 0 < n + m <= 5]
    )
    def test_monomial_means(self, dataset, n, m):
        vals = kernel_monomial(n, m, 1.0, dataset.x, dataset.phi)
        exact = normal_moment(self.state, n, m)
        for part, target in ((vals.real, exact.real), (vals.imag, exact.imag)):
            stderr = part.std() / math.sqrt(part.size)
            assert abs(part.mean() - target) < 4.0 * stderr + 1e-12

    @pytest.mark.parametrize("phi", [0.0, 1.1, 2.6])
    def test_fixed_phase_ks(self, phi):
        xs = sample_fixed_phase(self.state, 1.0, 200_000, 32, phi=phi)
        grid = np.linspace(-10.0, 10.0, 40_001)
        cdf = cumulative_trapezoid(quadrature_pdf(self.state, phi, 1.0, grid), grid, initial=0.0)
        assert kstest(xs, lambda x: np.interp(x, grid, cdf)).pvalue > 1e-3

    @pytest.mark.parametrize(
        "eta, phi, seed",
        [(0.3, 0.0, 40), (0.3, 1.1, 41), (0.3, None, 42), (0.6, 0.0, 43), (0.6, 1.1, 44), (0.6, None, 45)],
        ids=["0.3-0.0", "0.3-1.1", "0.3-scanned", "0.6-0.0", "0.6-1.1", "0.6-scanned"],
    )
    def test_lossy_ks(self, eta, phi, seed):
        # A loss channel followed by the 1/sqrt(eta) rescaling is, in law, the ideal outcome plus
        # N(0, (1 - eta)/(4 eta)): the oracle convolves the eta = 1 density, summed from rho, with it
        if phi is None:
            x = sample_homodyne(self.state, eta, 200_000, seed).x
        else:
            x = sample_fixed_phase(self.state, eta, 200_000, seed, phi=phi)
        grid = np.linspace(-12.0, 12.0, 24_001)
        cdf = cumulative_trapezoid(smeared_density(self.state, phi, eta, grid), grid, initial=0.0)
        assert kstest(x, lambda v: np.interp(v, grid, cdf)).pvalue > 1e-3


class TestZeroBand:
    """psi = (|0> + i|2>)/sqrt(2), whose rho has bands 0 and 2 and a zero band 1, as a squeezed state's has.

    The sampler keeps the weight rows of the bands present only; its outcomes
    must still follow the state's law at fixed and scanned phases.
    """

    psi = np.array([1.0, 0.0, 1.0j]) / math.sqrt(2.0)
    state = Mixed(np.outer(psi, psi.conj()))
    N = 400_000

    def test_band_one_is_left_out(self):
        assert QuadratureGridSampler(self.state).bands == [2]

    @pytest.mark.parametrize("phi", [0.0, 0.7, 1.3])
    def test_fixed_phase_mean_and_variance(self, phi):
        grid = np.linspace(-10.0, 10.0, 40_001)
        pdf = quadrature_pdf(self.state, phi, 1.0, grid)
        mean = np.trapezoid(grid * pdf, grid)
        var = np.trapezoid((grid - mean) ** 2 * pdf, grid)
        fourth = np.trapezoid((grid - mean) ** 4 * pdf, grid)
        x = sample_fixed_phase(self.state, 1.0, self.N, 51, phi=phi)
        assert abs(x.mean() - mean) < 5.0 * math.sqrt(var / self.N)
        assert abs(x.var() - var) < 5.0 * math.sqrt((fourth - var**2) / self.N)

    def test_scanned_phase_second_moments(self):
        # x^2 = (a^2 e^{-2i phi} + h.c. + 2 a^dag a + 1) / 4, so E[x^2 e^{2i phi}] over phi in [0, pi) is <a^2> / 4
        data = sample_homodyne(self.state, 1.0, self.N, 52)
        exact = normal_moment(self.state, 0, 2) / 4.0
        for trig, target in ((np.cos, exact.real), (np.sin, exact.imag)):
            vals = data.x**2 * trig(2.0 * data.phi)
            assert abs(vals.mean() - target) < 5.0 * vals.std() / math.sqrt(vals.size)


class TestWithoutBands:
    """Fock and diagonal states: one CDF at every phase, inverted by the bracket rule of the states with coherences."""

    @pytest.mark.parametrize("eta", [0.8, 1.0])
    @pytest.mark.parametrize(
        "state",
        [Fock(0), Fock(3), Fock(50), Fock(720), Fock(1023), Mixed(np.diag([0.5, 0.3, 0.2]))],
        ids=["fock0", "fock3", "fock50", "fock720", "fock1023", "diagonal"],
    )
    def test_matches_linear_interpolation(self, state, eta):
        # np.interp on the same CDF brackets each target at the same node; the two
        # interpolation formulas differ only by rounding, at most an ulp or so of the grid edge.
        sampler = QuadratureGridSampler(state, eta)
        assert not sampler.phase_dependent
        phi, u = deviates(13, 1 << 20)
        u = np.concatenate((u, [0.0, 511 / 512, 1 - 2**-40, 1 - 2**-53]))
        phi = np.concatenate((phi, [0.0, 1.0, 2.0, 3.0]))
        expected = np.interp(u * sampler.mass, sampler.table[:, 0], sampler.xgrid)
        tol = 4.0 * np.finfo(float).eps * sampler.halfwidth
        for x in (sampler.sample(phi, u), sampler.sample_fixed_phase(1.1, u)):
            np.testing.assert_allclose(x, expected, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("state", [Fock(3), Mixed(np.diag([0.5, 0.3, 0.2]))], ids=["fock3", "diagonal"])
    def test_every_phase_gives_the_same_bytes(self, state):
        sampler = QuadratureGridSampler(state, 0.8)
        phi, u = deviates(14, 1 << 16)
        scanned = sampler.sample(phi, u)
        for at in (0.0, 1.1, np.nextafter(math.pi, 0.0)):
            np.testing.assert_array_equal(sampler.sample_fixed_phase(at, u), scanned)


def smeared_density(state, phi, eta, grid):
    """The eta = 1 density of x on the uniform grid, at phase phi or averaged over [0, pi) (None), smeared.

    p(x) = Re sum_{n,m} rho_nm c_{m - n} psi_n(x) psi_m(x), with c_d = exp(i d phi), or
    its mean over the scanned phases, convolved with N(0, (1 - eta)/(4 eta)).
    """
    d = np.subtract.outer(np.arange(state.dim), np.arange(state.dim)).T  # d[n, m] = m - n
    if phi is None:
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(d == 0, 1.0, (np.exp(1j * math.pi * d) - 1.0) / (1j * math.pi * d))
    else:
        c = np.exp(1j * d * phi)
    psi = hermite_functions(state.dim - 1, grid)
    ideal = np.einsum("nm,nx,mx->x", state.rho * c, psi, psi).real
    step, sigma = grid[1] - grid[0], math.sqrt((1.0 - eta) / (4.0 * eta))
    offsets = np.arange(-round(8.0 * sigma / step), round(8.0 * sigma / step) + 1) * step
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2) * step / (math.sqrt(2.0 * math.pi) * sigma)
    return fftconvolve(ideal, kernel, mode="same")


def perturbed(monkeypatch, change):
    """Sampler for mixed6(8) whose position tables, phase-scanned and fixed-phase, go through change.

    The patch holds for every sampler until the test ends, so a reference
    sampler must have drawn its outcomes before this is called.
    """
    build = QuadratureGridSampler._positions
    monkeypatch.setattr(QuadratureGridSampler, "_positions", lambda self, cdf: change(build(self, cdf)))
    return QuadratureGridSampler(mixed6(8))


class TestUnitEfficiencyPins:
    """At eta = 1 the loss channel is the identity, so number-basis streams kept their bytes through it.

    Recorded while number-basis states still drew the ideal outcome and smeared
    it (a no-op at eta = 1), and mixed photocounts were thinned binomially
    (skipped at eta = 1), with numpy 2.4 on x86-64; re-recorded when the block streams moved from Philox to SFC64,
    and the phase weights of mixed6 to phase_trig's tangent forms. Fock(3) was re-recorded when states without
    bands left np.interp for the bracket and interpolation of the states with coherences, which round the
    last bits of some outcomes differently.
    """

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "state, digest",
        [
            (Fock(3), "27770a20b9884bd3f9df1e89aac54d37c83c0437a5cbac9918b1dc8af807a17b"),
            (mixed6(1), "133503c915403c29f8c778d344d6e042f8fc270bae684db3f7b4329b411259c2"),
        ],
        ids=["fock3", "mixed6"],
    )
    def test_sample_homodyne(self, state, digest):
        ds = sample_homodyne(state, 1.0, self.N, 29)
        assert sha256(ds.x, ds.phi) == digest

    def test_sample_fixed_phase(self):
        x = sample_fixed_phase(mixed6(1), 1.0, self.N, 29, phi=1.1)
        assert sha256(x) == "beb638b5f290814598ad1513f8085f878af71fd3c5e1fa1432ee2a05869a8e3a"

    def test_simulate_photocount(self):
        counts = simulate_photocount(Mixed(np.diag([0.5, 0.3, 0.2])), 1.0, self.N, 29)
        assert sha256(counts, dtype="<i8") == "10198f4e55aeced8964243c1b7a44f7e6e9cae2187f7e412a888b2698c80210c"


class TestGuideTable:
    """The position table only chooses where a search starts; outcomes never depend on it."""

    # First recorded before the guide table existed, from the plain power-of-two search;
    # re-recorded when number-basis states began to draw the density of the state after
    # loss in place of the ideal draw plus a Gaussian smear; re-recorded when the block streams
    # moved from Philox to SFC64 and the phase weights to phase_trig's tangent forms.
    def test_sample_homodyne_bytes(self):
        ds = sample_homodyne(mixed6(1), 0.8, BLOCK_SIZE + 123, 29)
        assert sha256(ds.x, ds.phi) == "3b5117d031ae03f1e2323e8fd88dd7990cff7cd908db6a5c6e1cbb5f88edc1d5"

    def test_sample_fixed_phase_bytes(self):
        x = sample_fixed_phase(mixed6(1), 0.8, BLOCK_SIZE + 123, 29, phi=1.1)
        assert sha256(x) == "e023126c958424fb2e5b440cc983070b492fb6640f63fea5e66225e207a983f6"

    def test_guess_is_mostly_exact(self):
        # 89.8 % of the guesses are the full search's bracket for this state, and the
        # move of one node leaves 0.6 % (the top level cell among them) to the full search.
        sampler = QuadratureGridSampler(mixed6(8))
        assert sampler.positions.shape == (homodyne.GUIDE_PHASE_BINS + 1, homodyne.GUIDE_LEVELS + 1)
        phi, u = deviates(11, 1 << 16)
        target = u * sampler.mass
        guess = sampler._guess(phi, target)
        _, (lo, _, _), cdf = full_search(sampler, phi, target)
        assert (guess == lo).mean() >= 0.85
        _, missed = homodyne._settle(cdf, guess, target, sampler._top_cell)
        assert missed.size <= 0.01 * target.size

    def test_grid_nodes_a_power_of_two(self):
        # The full search's steps GRID_NODES/2, ..., 1 end on the top node, and
        # on no node past the table, only for a power of two.
        assert GRID_NODES >= 4 and GRID_NODES & (GRID_NODES - 1) == 0
        assert QuadratureGridSampler(mixed6(8)).table.shape[0] == GRID_NODES

    @pytest.mark.parametrize(
        "change",
        [
            lambda positions: positions + 3,
            lambda positions: positions - 7,
            lambda positions: positions + 40,
            lambda positions: np.random.default_rng(0).uniform(-10.0, GRID_NODES + 10.0, positions.shape),
            lambda positions: np.full_like(positions, np.nan),
        ],
        ids=["up-3", "down-7", "up-40", "random", "nan"],
    )
    def test_wrong_guide_changes_no_outcome(self, monkeypatch, change):
        phi, u = deviates(9, 1 << 15)
        expected = QuadratureGridSampler(mixed6(8))
        fixed = (0.0, 1.1, 2.9)
        scanned, at_fixed = expected.sample(phi, u), [expected.sample_fixed_phase(f, u) for f in fixed]
        sampler = perturbed(monkeypatch, change)
        np.testing.assert_array_equal(sampler.sample(phi, u), scanned)
        for f, x in zip(fixed, at_fixed):
            np.testing.assert_array_equal(sampler.sample_fixed_phase(f, u), x)

    @pytest.mark.parametrize(
        "phase, fixed",
        [(-0.5, [-0.5]), (3.5, [3.5]), (7.0, [7.0]), (None, [0.0, 0.7, 1.1, 2.9]), ((-1.0, 8.0), [-1.0, 8.0])],
        ids=["-0.5", "3.5", "7.0", "None", "wide"],
    )
    def test_phase_outside_the_bins(self, phase, fixed):
        # None: phases across [0, pi) at the extreme deviates of both tails; a
        # pair: phases across that range, where the top tail's CDF is flat to
        # rounding and reaches a target at more than one node. The fixed phases
        # take the extreme deviates; at u = 1 - 2**-52 the flat CDF of mixed6(4)
        # is reached at several nodes for phases 0.7 and 7.0.
        extreme = np.repeat([0.0, 1e-300, 1e-12, 1 - 1e-12, 1 - 1e-15, 1 - 2**-52, 1 - 2**-53], 1024)
        if phase is None or isinstance(phase, tuple):
            u = extreme
            low, high = (0.0, np.nextafter(math.pi, 0.0)) if phase is None else phase
            phi = np.tile(np.linspace(low, high, 1024), 7)
        else:
            _, u = deviates(10, 1 << 14)
            phi = np.full(u.size, phase)
        for seed in (4, 8):
            sampler = QuadratureGridSampler(mixed6(seed))
            np.testing.assert_array_equal(sampler.sample(phi, u), full_search(sampler, phi, u * sampler.mass)[0])
            for at in fixed:
                x, _, _ = full_search(sampler, None, extreme * sampler.mass, fixed=at)
                np.testing.assert_array_equal(sampler.sample_fixed_phase(at, extreme), x)

    @given(small_density_matrices(), st.integers(0, 2**31 - 1))
    def test_search_matches_full_search(self, rho, seed):
        assume(np.max(np.abs(np.triu(rho, 1))) > 1e-6)
        sampler = QuadratureGridSampler(Mixed(rho))
        phi, u = deviates(seed, 4096)
        target = u * sampler.mass
        # Scanned, then at one phase: outcomes equal the full search's wherever the
        # CDF rises strictly over the nodes around its bracket.
        for fixed, x in ((None, sampler.sample(phi, u)), (phi[0], sampler.sample_fixed_phase(phi[0], u))):
            x_full, (lo, _, _), cdf = full_search(sampler, phi, target, fixed)
            rising = rising_around(cdf, lo)
            assert rising.mean() > 0.99
            np.testing.assert_array_equal(x[rising], x_full[rising])

    def test_no_samples(self):
        sampler = QuadratureGridSampler(mixed6(8))
        assert sampler.sample(np.empty(0), np.empty(0)).size == 0
        assert sampler.sample_fixed_phase(1.1, np.empty(0)).size == 0

    def test_build_leaves_no_thread_spinning(self):
        # A BLAS matrix-matrix product in the build would leave a worker thread
        # busy-waiting, and that CPU time would count against every sample.
        QuadratureGridSampler(mixed6(8))

        def cpu():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime

        before = cpu()
        time.sleep(0.3)
        assert cpu() - before < 0.05

    def test_sample_memory(self):
        # One block's sample peaks at 4.5 MB of traced allocations. Per-sample
        # bracket arrays held for the whole block lift it to 5.5 MB; slice
        # temporaries that outlive their slice, or both weight layouts held at
        # once, past 8 MB.
        sampler = QuadratureGridSampler(mixed6(1))
        phi, u = deviates(12, BLOCK_SIZE)
        sampler.sample(phi, u)
        tracemalloc.start()
        try:
            sampler.sample(phi, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0e6
