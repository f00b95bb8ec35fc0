import decimal
import math
import resource
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from conftest import coherent_betas, small_density_matrices
from tomonoise import (
    Coherent,
    Fock,
    Mixed,
    ValidationError,
    mean_photon,
    normal_moment,
    photon_distribution,
    quadrature_pdf,
    state_from_json,
    state_to_json,
)
from tomonoise.errors import NumericRangeError
from tomonoise.states import (
    _QUARTER_PI_LO,
    band_densities,
    coherent_mean,
    hermite_functions,
    lossy_bands,
    phase_trig,
)


def ladder_matrix(dim):
    # independent oracle: explicit matrix elements <n-1|a|n> = sqrt(n)
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def oracle_normal_moment(rho, n, m):
    a = ladder_matrix(rho.shape[0])
    return np.trace(rho @ np.linalg.matrix_power(a.conj().T, n) @ np.linalg.matrix_power(a, m))


def mixed_with_coherences(dim, seed, rank=3):
    # rho = V V^dag by einsum rather than a BLAS product, whose threads can spin on after it returns
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = np.einsum("nk,mk->nm", v, v.conj())
    return Mixed(rho / rho.trace().real)


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class TestValidation:
    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            Mixed(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            Mixed(np.diag([0.5, 0.6]))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValidationError):
            Mixed(np.diag([1.1, -0.1]))

    def test_rejects_negative_eigenvalue(self):
        # Hermitian, unit trace and a positive diagonal, but eigenvalues 1.1 and -0.1
        rho = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            Mixed(rho)

    def test_fock_level_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            Fock(-1)

    @pytest.mark.parametrize("beta", [True, np.True_, "1", None], ids=repr)
    def test_coherent_amplitude_must_be_a_number(self, beta):
        with pytest.raises(ValidationError, match="coherent amplitude must be a number"):
            Coherent(beta)

    @pytest.mark.parametrize("beta", [2, np.float32(2.0), 2 + 0j, np.complex64(2)], ids=repr)
    def test_coherent_amplitude_of_any_number_type(self, beta):
        assert Coherent(beta).beta == 2 + 0j


class TestPhotonDistribution:
    def test_fock_is_number_eigenstate(self):
        probs, tail = photon_distribution(Fock(3), 5)
        assert np.array_equal(probs, [0, 0, 0, 1, 0])
        assert tail == 0.0

    def test_coherent_is_poissonian(self):
        probs, tail = photon_distribution(Coherent(1.0), 20)
        assert probs[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        n = np.arange(20)
        poisson = np.exp(-1.0) / np.array([math.factorial(k) for k in n])
        keep = poisson > 1e-14
        assert np.max(np.abs(probs[keep] / poisson[keep] - 1.0)) < 1e-10
        assert tail < 1e-10

    def test_mixed_reads_the_diagonal(self):
        probs, tail = photon_distribution(Mixed(np.diag([0.5, 0.0, 0.5])), 3)
        assert np.allclose(probs, [0.5, 0.0, 0.5])
        assert tail == pytest.approx(0.0, abs=1e-12)

    def test_tail_reported_when_dim_truncates(self):
        probs, tail = photon_distribution(Coherent(2.0), 3)
        assert probs.sum() + tail == pytest.approx(1.0, abs=1e-12)
        assert tail > 0.1


class TestNormalMoments:
    def test_coherent_closed_form(self):
        beta = 0.3 + 0.7j
        assert normal_moment(Coherent(beta), 1, 2) == pytest.approx(beta.conjugate() * beta**2)

    def test_fock_number_expectation(self):
        assert normal_moment(Fock(2), 1, 1) == 2

    def test_fock_second_factorial_moment_vs_ladder_oracle(self):
        rho = np.zeros((5, 5), dtype=complex)
        rho[2, 2] = 1.0
        expected = oracle_normal_moment(rho, 2, 2)
        assert expected == pytest.approx(2.0)
        assert normal_moment(Fock(2), 2, 2) == pytest.approx(expected)

    def test_mixed_moments_at_every_order(self):
        # orders with n + m >= dim read only entries the truncated rho holds, so they are exact
        assert mean_photon(Mixed(np.diag([0.5, 0.5]))) == 0.5
        assert normal_moment(Mixed(np.diag([0.6, 0.1, 0.3])), 2, 2) == 0.6
        assert normal_moment(Mixed(np.diag([0.6, 0.1, 0.3])), 3, 3) == 0.0

    def test_mixed_moment_reads_one_band(self):
        # <a^dag a^2> = rho[2, 1] sqrt(2 * 1): only band d = n - m = -1 contributes
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = rho[1, 1] = rho[2, 2] = 1.0 / 3.0
        rho[2, 1], rho[1, 2] = 0.1 + 0.2j, 0.1 - 0.2j
        got = normal_moment(Mixed(rho), 1, 2)
        assert got == (0.1 + 0.2j) * math.sqrt(2.0)
        assert normal_moment(Mixed(rho), 2, 1) == got.conjugate()

    @given(beta=coherent_betas(), n=st.integers(0, 6), m=st.integers(0, 6))
    def test_hermiticity_coherent(self, beta, n, m):
        a = normal_moment(Coherent(beta), n, m)
        b = normal_moment(Coherent(beta), m, n)
        assert a == pytest.approx(b.conjugate(), abs=1e-9 * (1 + abs(a)))

    @given(rho=small_density_matrices(), n=st.integers(0, 4), m=st.integers(0, 4))
    def test_hermiticity_and_oracle_mixed(self, rho, n, m):
        state = Mixed(rho)
        got = normal_moment(state, n, m)
        assert got == pytest.approx(normal_moment(state, m, n).conjugate(), abs=1e-10)
        assert got == pytest.approx(complex(oracle_normal_moment(rho, n, m)), abs=1e-10)

    @pytest.mark.parametrize(
        "make, n, m",
        [
            (lambda: Fock(171), 171, 171),  # 171! is beyond the float range
            (lambda: Mixed(np.diag(np.eye(1, 200, 199)[0])), 171, 171),
            (lambda: Coherent(1e200), 2, 0),  # complex ** overflows
        ],
        ids=["fock171", "mixed200", "coherent1e200"],
    )
    def test_moment_beyond_float_range(self, make, n, m):
        with pytest.raises(NumericRangeError, match="float range"):
            normal_moment(make(), n, m)

    def test_mean_photon(self):
        assert mean_photon(Fock(4)) == 4
        assert mean_photon(Coherent(1 + 1j)) == pytest.approx(2.0)
        assert mean_photon(Mixed(np.diag([0.5, 0.0, 0.5]))) == pytest.approx(1.0)


class TestQuadraturePdf:
    def test_vacuum_value_at_origin(self):
        assert quadrature_pdf(Fock(0), 0.0, 1.0, 0.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12
        )

    def test_vacuum_variance_is_quarter(self):
        xs = np.linspace(-8, 8, 8001)
        p = quadrature_pdf(Fock(0), 0.0, 1.0, xs)
        assert trapezoid(xs * xs * p, xs) == pytest.approx(0.25, abs=1e-9)

    def test_coherent_matches_analytic_gaussian(self):
        xs = np.linspace(-6, 8, 2001)
        p = quadrature_pdf(Coherent(2.0), 0.0, 1.0, xs)
        gauss = np.exp(-((xs - 2.0) ** 2) / 0.5) / math.sqrt(0.5 * math.pi)
        assert np.max(np.abs(p - gauss)) < 1e-9

    def test_inefficiency_widens_coherent_gaussian(self):
        xs = np.linspace(-6, 10, 2001)
        p = quadrature_pdf(Coherent(2.0), 0.0, 0.5, xs)
        var = 1.0 / (4.0 * 0.5)
        gauss = np.exp(-((xs - 2.0) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.max(np.abs(p - gauss)) < 1e-9

    @pytest.mark.parametrize(
        "state,eta,phi",
        [
            (Fock(3), 1.0, 0.0),
            (Fock(3), 0.4, 1.2),
            (Coherent(1.5 + 0.5j), 0.7, 2.0),
            (Mixed(np.diag([0.4, 0.3, 0.3])), 0.6, 0.3),
        ],
    )
    def test_normalization(self, state, eta, phi):
        xs = np.linspace(-10, 10, 6001)
        p = quadrature_pdf(state, phi, eta, xs)
        assert (p >= 0).all()
        assert trapezoid(p, xs) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("phi", [0.0, 1.1, 2.9])
    @pytest.mark.parametrize("eta", [0.6, 1.0])
    @pytest.mark.parametrize("beta", [0, 1, 1.5 + 0.5j, -2 + 1j])
    def test_coherent_closed_form_matches_number_basis(self, beta, eta, phi):
        # the coherent state truncated to dimension 48 and renormalised, through
        # the number-basis path and its loss channel
        amp = np.ones(48, dtype=complex)
        for n in range(1, 48):
            amp[n] = amp[n - 1] * beta / math.sqrt(n)
        rho = np.outer(amp, amp.conj())
        xs = np.linspace(-6, 6, 161)
        closed = quadrature_pdf(Coherent(beta), phi, eta, xs)
        truncated = quadrature_pdf(Mixed(rho / rho.trace().real), phi, eta, xs)
        assert np.max(np.abs(closed - truncated)) < 1e-12

    @pytest.mark.parametrize("state", [Fock(20), mixed_with_coherences(20, 11)], ids=["fock20", "mixed20"])
    def test_low_efficiency_matches_convolution(self, state):
        # brute force: the eta = 1 density convolved with the efficiency Gaussian by the trapezoid rule
        eta, phi = 0.2, 0.7
        xs = np.linspace(-7.0, 7.0, 141)
        y = np.linspace(-14.0, 14.0, 7001)
        var = (1.0 - eta) / (4.0 * eta)
        kernel = np.exp(-0.5 * (xs[:, None] - y) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
        reference = trapezoid(kernel * quadrature_pdf(state, phi, 1.0, y), y, axis=1)
        got = quadrature_pdf(state, phi, eta, xs)
        assert np.max(np.abs(got - reference)) < 1e-9 * reference.max()

    def test_low_efficiency_memory_and_no_spinning_thread(self):
        # a dim-48 state at 4001 points: a 64-node smear would hold a 48 x 256064 table (192 MB)
        state = mixed_with_coherences(48, 5, rank=4)
        xs = np.linspace(-10.0, 10.0, 4001)
        time.sleep(0.3)  # lets a BLAS thread that an earlier test left spinning go idle
        tracemalloc.start()
        try:
            quadrature_pdf(state, 0.4, 0.6, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        start = cpu_seconds()
        time.sleep(0.3)
        assert cpu_seconds() - start < 0.05

    @pytest.mark.parametrize("eta", [0.7, 1.0])
    @pytest.mark.parametrize("beta", [30, 100, 100 + 50j])
    def test_bright_coherent_normalization(self, beta, eta):
        # the closed form holds at any beta, far past the number basis's grids
        xs = np.linspace(beta.real - 6, beta.real + 6, 2001)
        p = quadrature_pdf(Coherent(beta), 0.0, eta, xs)
        assert trapezoid(p, xs) == pytest.approx(1.0, abs=1e-9)

    def test_lossy_fock_2000_density_integrates(self):
        # after the loss channel Fock(2000) holds its weight near level 1400, whose density reaches
        # |x| = 45 (scaled by sqrt(eta)), past where exp(-x^2) underflows; each slice's Hermite table
        # holds at most PDF_TABLE entries, 25 MB
        xs = np.linspace(-60.0, 60.0, 20001)
        tracemalloc.start()
        try:
            p = quadrature_pdf(Fock(2000), 0.0, 0.7, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trapezoid(p, xs) == pytest.approx(1.0, abs=1e-9)
        assert peak < 60 * 2**20

    @pytest.mark.parametrize("n", [720, 1500])
    def test_high_fock_densities_integrate_at_unit_efficiency(self, n):
        # 9 % of Fock(720)'s mass lies past |x| = 26.6, where exp(-x^2) underflows; Fock(1500) is
        # past what the grid sampler takes, not past what the density resolves
        xs = np.linspace(-50.0, 50.0, 20001)
        assert trapezoid(quadrature_pdf(Fock(n), 0.0, 1.0, xs), xs) == pytest.approx(1.0, abs=1e-9)

    def test_lossy_fock_750_density_is_the_same_in_any_slices(self):
        # Fock(750) after a loss channel of 0.5, evaluated in slices, so that each 751-row
        # Hermite table stays near 60 MB
        xs = np.linspace(-40.0, 40.0, 200001)
        p = np.concatenate([quadrature_pdf(Fock(750), 0.0, 0.5, part) for part in np.array_split(xs, 20)])
        assert trapezoid(p, xs) == pytest.approx(1.0, abs=1e-9)
        # the whole grid at once gives the same bits without a 1.2 GB table: quadrature_pdf chunks x itself
        tracemalloc.start()
        try:
            whole = quadrature_pdf(Fock(750), 0.0, 0.5, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(whole, p)
        assert peak < 150 * 2**20

    def test_small_dim_slices_stay_narrow(self):
        # slices of at most PDF_POINTS points: Fock(3) on 10**6 points holds about 23 MB, the
        # input-sized arrays, not a 25 MB Hermite table and its temporaries on top
        xs = np.linspace(-10.0, 10.0, 10**6)
        tracemalloc.start()
        try:
            p = quadrature_pdf(Fock(3), 0.3, 0.8, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trapezoid(p, xs) == pytest.approx(1.0, abs=1e-9)
        assert peak < 30 * 2**20

    def test_fock_states_are_phase_invariant(self):
        xs = np.linspace(-4, 4, 501)
        a = quadrature_pdf(Fock(2), 0.3, 1.0, xs)
        b = quadrature_pdf(Fock(2), 2.1, 1.0, xs)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_eta_domain(self):
        with pytest.raises(ValidationError):
            quadrature_pdf(Fock(0), 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            quadrature_pdf(Fock(0), 0.0, 1.2, 0.0)

    @pytest.mark.parametrize("beta", [0.0, 2.0, -1.3, 1.5 + 0.5j, -0.8 + 1.7j, 3e-5j])
    def test_coherent_mean_equals_complex_exponential_form(self, beta):
        # Phases in [0, pi] take phase_trig, within 4 ulp of the exact cos and sin (TestPhaseTrig), so
        # beta.real cos + beta.imag sin lies within 4 of those ulps times each coefficient, plus 1.5 ulp
        # of each term for the two products and the sum, of the complex form taken in long double.
        phi = np.random.default_rng(3).uniform(0.0, math.pi, 1 << 20)
        phi[:3] = 0.0, math.pi / 2, math.pi
        beta = complex(beta)
        wide = phi.astype(np.longdouble)
        exact = (np.clongdouble(beta) * np.exp(-1j * wide)).real
        cos, sin = np.cos(wide).astype(float), np.sin(wide).astype(float)
        tol = 4.0 * (abs(beta.real) * np.spacing(np.abs(cos)) + abs(beta.imag) * np.spacing(np.abs(sin)))
        tol += 1.5 * (np.spacing(np.abs(beta.real * cos)) + np.spacing(np.abs(beta.imag * sin)))
        assert np.all(np.abs(coherent_mean(beta, phi) - exact) <= tol)
        # Outside [0, pi] a real amplitude keeps the bits of beta.real np.cos(phi), and a
        # scalar phase those of the form it had before phase_trig: fixed-phase means hold.
        outside = np.random.default_rng(4).uniform(-2.0 * math.pi, 2.0 * math.pi, 1 << 12)
        outside[0] = -0.0
        if beta.imag == 0.0:
            want = beta.real * np.cos(outside)
            assert np.array_equal(coherent_mean(beta, outside).view(np.uint64), want.view(np.uint64))
        for scalar in (0.0, 0.7, 1.1, math.pi / 2, -4.0, 9.5):
            want = beta.real * np.cos(scalar) if beta.imag == 0.0 else (beta * np.exp(-1j * scalar)).real
            assert float(coherent_mean(beta, scalar)).hex() == float(want).hex()


def ulps(got, func, phi):
    """|got - func(phi)| in ulps of the float64 nearest func(phi), func taken in long double."""
    exact = func(np.asarray(phi, dtype=np.longdouble))
    return np.abs(got - exact) / np.spacing(np.abs(exact.astype(float)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize(
    "state",
    [Fock(1), Mixed([[0.5, 0.3 + 0.2j], [0.3 - 0.2j, 0.5]]), Coherent(1.0)],
    ids=["fock1", "mixed2", "coherent1"],
)
def test_density_is_zero_at_the_edge_of_the_float_range(state, eta):
    # no overflow warning, no NaN from inf * 0; NaN x stays NaN, and smaller x keep their bits
    edge = [np.inf, -np.inf, 1e308, -1e308, 1e200, -1e200]
    xs = np.linspace(-3.0, 3.0, 61)
    p = quadrature_pdf(state, 0.4, eta, np.array([*edge, np.nan, *xs]))
    assert (p[:6] == 0.0).all() and np.isnan(p[6])
    assert np.array_equal(p[7:], quadrature_pdf(state, 0.4, eta, xs))
    assert quadrature_pdf(state, 0.4, eta, np.inf) == 0.0


class TestPhaseTrig:
    HALF = math.pi / 2
    EDGES = np.concatenate(
        [
            [0.0, 5e-324, 1e-300, 2.2e-16, math.pi / 4, math.pi, np.nextafter(math.pi, 0.0)],
            HALF + np.arange(-40, 41) * np.spacing(HALF),
            math.pi - np.arange(1, 20) * np.spacing(math.pi),
        ]
    )

    @pytest.mark.parametrize("func", [np.cos, np.sin], ids=["cos", "sin"])
    def test_within_4_ulp_over_0_to_pi(self, func):
        phi = np.random.default_rng(12).uniform(0.0, math.pi, 10**6)
        assert ulps(phase_trig(func, phi), func, phi).max() <= 4.0
        assert ulps(phase_trig(func, self.EDGES), func, self.EDGES).max() <= 4.0

    def test_exact_values(self):
        got = phase_trig(np.cos, np.array([0.0, math.pi])), phase_trig(np.sin, np.array([0.0, self.HALF]))
        assert got[0].tolist() == [1.0, -1.0] and got[1].tolist() == [0.0, 1.0]

    def test_quarter_pi_low_part(self):
        from fractions import Fraction

        quarter_pi = Fraction("3.14159265358979323846264338327950288419716939937510") / 4
        assert _QUARTER_PI_LO == float(quarter_pi - Fraction(math.pi / 4))

    @pytest.mark.parametrize(
        "phi",
        [
            np.array([0.5, -1e-300]),
            np.array([0.5, np.nextafter(math.pi, 4.0)]),
            np.array([0.5, math.nan]),
            np.random.default_rng(1).uniform(-7.0, 7.0, 4096),
            np.array([0.5, 1.0], dtype=np.float32),
            np.array([1, 2]),
            np.empty(0),
            np.array(0.7),
            0.7,
            math.pi / 2,
            -0.0,
            [0.1, 0.2],
        ],
        ids=[
            "below", "above", "nan", "wide", "float32", "int", "empty", "0-d", "float", "half-pi", "minus-zero", "list"
        ],
    )
    @pytest.mark.parametrize("func", [np.cos, np.sin], ids=["cos", "sin"])
    def test_falls_back_bit_for_bit(self, func, phi):
        got, want = phase_trig(func, phi), func(phi)
        assert type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(np.atleast_1d(got).view(np.uint8), np.atleast_1d(want).view(np.uint8))

    @pytest.mark.parametrize("func", [np.cos, np.sin], ids=["cos", "sin"])
    def test_writes_into_out(self, func):
        phi = np.linspace(0.0, math.pi, 7)
        out = np.full(7, 5.0)
        assert phase_trig(func, phi, out=out) is out
        assert np.array_equal(out, phase_trig(func, phi)) and phi[-1] == math.pi


@pytest.mark.parametrize(
    "state", [Fock(3), Mixed(np.diag([0.5, 0.3, 0.2])), mixed_with_coherences(20, 11), mixed_with_coherences(48, 5, 4)]
)
def test_band_densities_equal_the_complex_sum(state):
    # the complex einsum that band_densities replaced, kept as the reference: equal to the last bit
    bands = lossy_bands(state, 1.0)
    psi = hermite_functions(bands[0][1].size - 1, np.linspace(-9.0, 9.0, 4001))
    dim = psi.shape[0]
    complex_sum = np.stack([np.einsum("n,nx,nx->x", band, psi[: dim - d], psi[d:dim]) for d, band in bands])
    assert np.array_equal(band_densities(bands, psi).view(np.uint64), complex_sum.view(np.uint64))


class TestHermiteFunctions:
    def test_orthonormality(self):
        xs = np.linspace(-12, 12, 20001)
        psi = hermite_functions(12, xs)
        gram = trapezoid(psi[:, None, :] * psi[None, :, :], xs, axis=-1)
        assert np.max(np.abs(gram - np.eye(13))) < 1e-8

    def test_bit_identical_to_the_plain_recurrence_where_the_seed_is_normal(self):
        # the recurrence from (2/pi)^(1/4) exp(-x^2) alone, kept verbatim as the reference; the points
        # past |x| = 26.6 appended to x must leave the other columns alone
        def plain(nmax, x):
            out = np.empty((nmax + 1, x.size))
            out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
            if nmax >= 1:
                out[1] = 2.0 * x * out[0]
            for k in range(1, nmax):
                out[k + 1] = (2.0 / math.sqrt(k + 1.0)) * x * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
            return out

        xs = np.linspace(-26.5, 26.5, 2001)
        got = hermite_functions(1500, np.concatenate([xs, [27.0, -40.0, 80.0]]))[:, : xs.size]
        assert np.array_equal(got.view(np.uint64), plain(1500, xs).view(np.uint64))

    @pytest.mark.parametrize("x", [27.0, 30.0, 40.0, -45.0])
    def test_matches_a_decimal_reference_past_the_seed_underflow(self, x):
        # the same recurrence in 60-digit decimal arithmetic at the float x. The error is judged
        # against the larger of |psi_n| and |psi_{n-1}|, whose roundings it carries: 1e-12 of it
        # covers the seed's condition number 2 x^2 (4e3 ulp at |x| = 45) and n ulp from the
        # recurrence; a subnormal value may miss by a few hundred of its 5e-324 steps
        nmax = 1500
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            big = decimal.Decimal(x)
            pi = decimal.Decimal("3.141592653589793238462643383279502884197169399375105820974944592")
            ref = [(2 / pi).sqrt().sqrt() * (-big * big).exp()]
            ref.append(2 * big * ref[0])
            for k in range(1, nmax):
                ref.append(2 / decimal.Decimal(k + 1).sqrt() * big * ref[k]
                           - (decimal.Decimal(k) / (k + 1)).sqrt() * ref[k - 1])
            got = hermite_functions(nmax, x)[:, 0]
            err = np.array([float(abs(decimal.Decimal(float(v)) - r)) for v, r in zip(got, ref)])
        size = np.abs([float(r) for r in ref])
        pair = np.maximum(size, np.concatenate(([0.0], size[:-1])))
        assert (err <= 1e-12 * pair + 1e-12 * np.finfo(float).tiny).all()
        assert np.count_nonzero(size >= np.finfo(float).tiny) > 600  # the reference resolves hundreds of levels

    def test_high_order_stays_finite(self):
        xs = np.linspace(-25, 25, 2001)
        psi = hermite_functions(200, xs)
        assert np.isfinite(psi).all()
        assert np.max(np.abs(psi[200])) < 1.0

    @pytest.mark.filterwarnings("error")
    def test_every_level_is_zero_where_x_squared_overflows(self):
        # from |x| = 2^511 on x^2 log2(e) nears the float range; 2x inf times the seed 0 would be NaN
        edge = np.array([np.inf, -np.inf, 1e308, -1e308, 1e200, -1e200, 2.0**511, np.nan])
        xs = np.linspace(-30.0, 30.0, 601)
        psi = hermite_functions(40, np.concatenate([edge, xs]))
        assert (psi[:, :7] == 0.0).all() and np.isnan(psi[:, 7]).all()
        assert np.array_equal(psi[:, 8:].view(np.uint64), hermite_functions(40, xs).view(np.uint64))


class TestJson:
    @pytest.mark.parametrize(
        "state",
        [Coherent(1.5 - 0.25j), Fock(7), Mixed(np.diag([0.25, 0.25, 0.5]))],
    )
    def test_round_trip(self, state):
        back = state_from_json(state_to_json(state))
        if isinstance(state, Mixed):
            assert np.array_equal(back.rho, state.rho)
        else:
            assert back == state

    def test_malformed_inputs_raise(self):
        with pytest.raises(ValidationError):
            state_from_json("not json")
        with pytest.raises(ValidationError):
            state_from_json({"type": "squeezed"})
        with pytest.raises(ValidationError):
            state_from_json({"type": "mixed", "dim": 2, "rho": [[1, 0]]})
