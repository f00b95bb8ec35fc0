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
from tomonoise.states import band_densities, coherent_mean, hermite_functions, number_bands


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
        # beyond |x| ~ 26.6 a number-basis density underflows; the closed form does not
        xs = np.linspace(beta.real - 6, beta.real + 6, 2001)
        p = quadrature_pdf(Coherent(beta), 0.0, eta, xs)
        assert trapezoid(p, xs) == pytest.approx(1.0, abs=1e-9)

    def test_weight_beyond_reach_refused_before_allocating(self):
        # the loss channel leaves Fock(2000) nearly all its weight above level 707; a dense
        # (n + 1)^2 loss matrix alone would peak at 126 MB
        xs = np.linspace(-50.0, 50.0, 200001)
        tracemalloc.start()
        try:
            with pytest.raises(NumericRangeError, match="26.6"):
                quadrature_pdf(Fock(2000), 0.0, 0.7, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_level_beyond_reach_refused_at_unit_efficiency(self):
        # its density would integrate to 0.9999979: short, not zero, past |x| = 26.6
        with pytest.raises(NumericRangeError, match="above 707"):
            quadrature_pdf(Fock(720), 0.0, 1.0, np.linspace(-50.0, 50.0, 20001))

    def test_negligible_weight_beyond_reach_still_integrates(self):
        # after the loss channel Fock(750) keeps 2e-157 of its weight above level 707;
        # evaluated in slices, so that each 751-row Hermite table stays near 60 MB
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

    @pytest.mark.parametrize("beta", [0.0, 2.0, -1.3, 1.5 + 0.5j])
    def test_coherent_mean_equals_complex_exponential_form(self, beta):
        # the expression the real-amplitude np.cos form replaced, kept verbatim
        phi = np.random.default_rng(3).uniform(-2.0 * math.pi, 2.0 * math.pi, 1 << 20)
        phi[0] = 0.0
        beta = complex(beta)
        assert np.array_equal(coherent_mean(beta, phi), (beta * np.exp(-1j * phi)).real)


@pytest.mark.parametrize(
    "state", [Fock(3), Mixed(np.diag([0.5, 0.3, 0.2])), mixed_with_coherences(20, 11), mixed_with_coherences(48, 5, 4)]
)
def test_band_densities_equal_the_complex_sum(state):
    # the complex einsum that band_densities replaced, kept as the reference: equal to the last bit
    bands = number_bands(state)
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

    def test_high_order_stays_finite(self):
        xs = np.linspace(-25, 25, 2001)
        psi = hermite_functions(200, xs)
        assert np.isfinite(psi).all()
        assert np.max(np.abs(psi[200])) < 1.0


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
