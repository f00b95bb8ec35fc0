import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import norm

from tomonoise import (
    Coherent,
    ComplexAmplitude,
    Fock,
    Intensity,
    Monomial,
    Phase,
    RealField,
    ValidationError,
    empirical_kernel_variance,
    estimate_complex,
    estimate_mean,
    phase_kernel_distribution,
    sample_homodyne,
)
from tomonoise.estimators import CHUNK, ComplexStreamingMoments, StreamingMoments, accumulate


def phi_average(f, nodes=200):
    # Gauss-Legendre average (1/pi) int_0^pi f(phi) dphi
    t, w = np.polynomial.legendre.leggauss(nodes)
    phi = 0.5 * math.pi * (t + 1.0)
    return float(np.dot(w, f(phi)) * 0.5)


def oracle_kernel_variance(obs, beta, eta):
    """Quadrature oracle: x | phi is Gaussian with mean Re(beta e^{-i phi}),
    variance 1/(4 eta); moments of the kernel follow in closed form per phase
    and are then averaged over phi numerically."""
    var = 1.0 / (4.0 * eta)

    def mu(phi):
        return (beta * np.exp(-1j * phi)).real

    if isinstance(obs, Intensity):
        c = 1.0 / (2.0 * eta)

        def first(phi):
            return 2.0 * (mu(phi) ** 2 + var) - c

        def second(phi):
            m = mu(phi)
            x2 = m * m + var
            x4 = m**4 + 6.0 * m * m * var + 3.0 * var * var
            return 4.0 * x4 - 4.0 * c * x2 + c * c

    elif isinstance(obs, RealField):

        def first(phi):
            return 2.0 * mu(phi) * np.cos(phi)

        def second(phi):
            return 4.0 * np.cos(phi) ** 2 * (mu(phi) ** 2 + var)

    else:
        raise AssertionError("oracle supports Intensity and RealField")
    return phi_average(second) - phi_average(first) ** 2


def oracle_phase_variance(beta, eta, nodes=2000):
    """Quadrature oracle for Var(arg(x e^{i phi})) of a real-amplitude coherent
    state: P(x > 0 | phi) is a Gaussian tail probability."""
    sigma = math.sqrt(1.0 / (4.0 * eta))

    def mean_w(phi):
        p = norm.cdf(beta * np.cos(phi) / sigma)
        return phi * p + (phi - math.pi) * (1.0 - p)

    def mean_w2(phi):
        p = norm.cdf(beta * np.cos(phi) / sigma)
        return phi**2 * p + (phi - math.pi) ** 2 * (1.0 - p)

    return phi_average(mean_w2, nodes) - phi_average(mean_w, nodes) ** 2


class TestEstimateMean:
    def test_intensity_unbiased_at_low_efficiency(self):
        ds = sample_homodyne(Coherent(2.0), 0.8, 10**5, 31)
        est = estimate_mean(ds, Intensity())
        assert abs(est.value - 4.0) < 4 * est.stderr

    def test_vacuum_real_field_is_zero(self):
        ds = sample_homodyne(Fock(0), 0.7, 10**5, 32)
        est = estimate_mean(ds, RealField())
        assert abs(est.value) < 4 * est.stderr

    def test_eta_unbiasedness_of_intensity(self):
        a = estimate_mean(sample_homodyne(Fock(3), 0.6, 4 * 10**5, 33), Intensity())
        b = estimate_mean(sample_homodyne(Fock(3), 1.0, 4 * 10**5, 34), Intensity())
        assert abs(a.value - b.value) < 4 * math.hypot(a.stderr, b.stderr)

    def test_diagonal_monomial_allowed(self):
        ds = sample_homodyne(Fock(2), 1.0, 10**5, 35)
        est = estimate_mean(ds, Monomial(2, 2))  # <a^dag^2 a^2> = n(n-1) = 2
        assert abs(est.value - 2.0) < 4 * est.stderr

    def test_complex_kernel_redirects(self):
        ds = sample_homodyne(Fock(0), 1.0, 100, 36)
        with pytest.raises(TypeError, match="estimate_complex"):
            estimate_mean(ds, ComplexAmplitude())

    def test_stderr_scales_like_root_n(self):
        ratios = []
        for seed in range(20):
            small = estimate_mean(sample_homodyne(Fock(0), 1.0, 20_000, seed), Intensity())
            big = estimate_mean(sample_homodyne(Fock(0), 1.0, 40_000, 1000 + seed), Intensity())
            ratios.append(small.stderr / big.stderr)
        assert np.mean(ratios) == pytest.approx(math.sqrt(2.0), rel=0.05)


class TestEstimateComplex:
    def test_coherent_value_and_noise(self):
        ds = sample_homodyne(Coherent(3.0), 1.0, 10**6, 41)
        est = estimate_complex(ds)
        spread = math.sqrt((est.noise_plus + est.noise_minus) / ds.n)
        assert abs(est.value - 3.0) < 4 * spread
        # covariance eigenvalues: (1/2)[1/eta + 2 nbar - |<a>|^2 +/- 0] = 5
        assert est.noise_plus == pytest.approx(5.0, rel=0.02)
        assert est.noise_minus == pytest.approx(5.0, rel=0.02)

    def test_vacuum_noise(self):
        ds = sample_homodyne(Fock(0), 1.0, 4 * 10**5, 42)
        est = estimate_complex(ds)
        assert abs(est.value) < 4 * math.sqrt(est.noise_plus / ds.n)
        assert est.noise_plus == pytest.approx(0.5, rel=0.02)
        assert est.noise_minus == pytest.approx(0.5, rel=0.02)

    def test_fock1_noise(self):
        ds = sample_homodyne(Fock(1), 1.0, 10**6, 43)
        est = estimate_complex(ds)
        assert est.noise_plus == pytest.approx(1.5, rel=0.02)
        assert est.noise_minus == pytest.approx(1.5, rel=0.02)

    def test_phase_symmetric_states_have_degenerate_noise(self):
        ds = sample_homodyne(Fock(1), 1.0, 10**6, 44)
        est = estimate_complex(ds)
        assert est.noise_plus - est.noise_minus < 0.02
        assert est.noise_plus >= est.noise_minus >= 0.0


class TestKernelVariance:
    def test_coherent_real_field_variance(self):
        want = oracle_kernel_variance(RealField(), 2.0, 1.0)
        assert want == pytest.approx(2.5, abs=1e-9)
        ds = sample_homodyne(Coherent(2.0), 1.0, 10**6, 51)
        assert empirical_kernel_variance(ds, RealField()) == pytest.approx(want, rel=0.02)

    def test_vacuum_real_field_variance(self):
        want = oracle_kernel_variance(RealField(), 0.0, 1.0)
        assert want == pytest.approx(0.5, abs=1e-9)
        ds = sample_homodyne(Fock(0), 1.0, 10**6, 52)
        assert empirical_kernel_variance(ds, RealField()) == pytest.approx(0.5, rel=0.02)

    def test_coherent_intensity_variance_low_efficiency(self):
        want = oracle_kernel_variance(Intensity(), 2.0, 0.5)
        assert want == pytest.approx(26.0, abs=1e-9)
        ds = sample_homodyne(Coherent(2.0), 0.5, 10**6, 53)
        assert empirical_kernel_variance(ds, Intensity()) == pytest.approx(26.0, rel=0.02)

    def test_coherent_intensity_variance_unit_efficiency(self):
        want = oracle_kernel_variance(Intensity(), 2.0, 1.0)
        assert want == pytest.approx(16.5, abs=1e-9)
        ds = sample_homodyne(Coherent(2.0), 1.0, 10**6, 54)
        assert empirical_kernel_variance(ds, Intensity()) == pytest.approx(16.5, rel=0.02)


class TestPhaseDistribution:
    def test_vacuum_is_uniform(self):
        ds = sample_homodyne(Fock(0), 1.0, 10**6, 61)
        hist = phase_kernel_distribution(ds, 16)
        assert hist.masses.sum() == pytest.approx(1.0)
        sigma = math.sqrt((1 / 16) * (1 - 1 / 16) / ds.n)
        assert np.max(np.abs(hist.masses - 1 / 16)) < 3 * sigma + 1e-12

    def test_bright_state_approaches_boxed_distribution(self):
        ds = sample_homodyne(Coherent(8.0), 1.0, 2 * 10**6, 62)
        from tomonoise.kernels import kernel_observable

        w = kernel_observable(Phase(), 1.0, ds.x, ds.phi)
        assert np.var(w) == pytest.approx(math.pi**2 / 12.0, rel=0.03)
        assert np.var(w) == pytest.approx(oracle_phase_variance(8.0, 1.0), rel=0.01)

    def test_low_intensity_matches_erf_curve(self):
        # frozen analytic form: (1 + erf(sqrt(2 eta) |beta| cos w)) / (2 pi)
        ds = sample_homodyne(Coherent(1.0), 1.0, 10**7, 63)
        hist = phase_kernel_distribution(ds, 64)
        t, wts = np.polynomial.legendre.leggauss(24)
        lo, hi = hist.edges[:-1], hist.edges[1:]
        pts = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * t[None, :]
        curve = ((1 + erf(math.sqrt(2.0) * np.cos(pts))) / (2 * math.pi)) @ wts * 0.5
        assert np.max(np.abs(hist.densities - curve)) < 0.01

    def test_symmetry_for_real_amplitude(self):
        ds = sample_homodyne(Coherent(1.0), 1.0, 10**6, 64)
        hist = phase_kernel_distribution(ds, 32)
        assert np.max(np.abs(hist.masses - hist.masses[::-1])) < 2e-3

    def test_bin_count_validated(self):
        ds = sample_homodyne(Fock(0), 1.0, 100, 65)
        with pytest.raises(ValidationError):
            phase_kernel_distribution(ds, 4)


def splits(values, rng, pieces):
    """values cut into equal parts, and at random cuts with empty parts at both ends and inside."""
    cuts = np.sort(rng.integers(0, values.size, pieces - 1))
    cuts = np.concatenate([[0, 0], cuts, cuts[-1:], [values.size] * 2])
    return [np.array_split(values, pieces), [values[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]]


class TestAccumulators:
    def test_real_merge_matches_sequential(self, rng):
        values = rng.normal(3.0, 2.0, 100_001)
        seq = StreamingMoments()
        seq.update(values)
        for chunks in splits(values, rng, 7):
            merged = StreamingMoments()
            for chunk in chunks:
                part = StreamingMoments()
                part.update(chunk)
                merged.merge(part)
            assert merged.count == seq.count
            assert merged.mean == pytest.approx(seq.mean, rel=1e-12)
            assert merged.m2 == pytest.approx(seq.m2, rel=1e-12)

    def test_complex_merge_matches_sequential(self, rng):
        values = rng.normal(size=50_001) + 1j * rng.normal(size=50_001) + (2 - 1j)
        values += 0.5 * values.real  # correlated Re and Im: a sizable cross sum
        seq = ComplexStreamingMoments()
        seq.update(values)
        for chunks in splits(values, rng, 5):
            merged = ComplexStreamingMoments()
            for chunk in chunks:
                part = ComplexStreamingMoments()
                part.update(chunk)
                merged.merge(part)
            assert merged.count == seq.count
            np.testing.assert_allclose(merged.mean, seq.mean, rtol=1e-12)
            # the 2 x 2 sums of (Re, Im): their trace is the |.|^2 sum, Cxx - Cyy + 2i Cxy the pseudo-sum
            np.testing.assert_allclose(merged.m2, seq.m2, rtol=1e-12)

    def test_complex_stream_with_zero_imaginary_part_is_the_real_stream(self, rng):
        values = rng.normal(3.0, 2.0, 2 * CHUNK + 17)
        real, pair = StreamingMoments(), ComplexStreamingMoments()
        accumulate(real.update, values.size, lambda sl: values[sl])
        accumulate(pair.update, values.size, lambda sl: values[sl] + 0j)
        assert (pair.count, pair.mean[0]) == (real.count, real.mean)
        assert float(pair.m2[0, 0]).hex() == real.m2.hex()
        assert pair.m2[0, 1] == pair.m2[1, 1] == 0.0

    @pytest.mark.parametrize("cov", [[[2.0, 0.7], [0.7, 0.5]], [[0.5, -0.3], [-0.3, 1.5]], [[1.0, 0.0], [0.0, 1.0]]])
    def test_covariance_eigenvalues_in_closed_form(self, rng, cov):
        pairs = rng.multivariate_normal([1.0, -2.0], cov, size=50_001).T
        acc = ComplexStreamingMoments()
        acc.update(pairs[0] + 1j * pairs[1])
        expected = np.linalg.eigvalsh(np.cov(pairs, bias=True))[::-1]  # largest first
        np.testing.assert_allclose(acc.covariance_eigenvalues, expected, rtol=1e-12)

    def test_covariance_eigenvalues_of_huge_values_stay_finite(self, rng):
        # sums near 1e163: squaring them again would overflow, the |.|^2 and pseudo-sum split does not
        values = 1e80 * (rng.normal(1.0, 2.0, 1000) + 1j * rng.normal(0.0, 1.0, 1000))
        acc = ComplexStreamingMoments()
        with np.errstate(all="raise"):
            acc.update(values)
            plus, minus = acc.covariance_eigenvalues
        delta = values - values.mean()
        spread, pseudo = np.sum(np.abs(delta) ** 2) / values.size, abs(np.sum(delta**2)) / values.size
        np.testing.assert_allclose([plus, minus], [0.5 * (spread + pseudo), 0.5 * (spread - pseudo)], rtol=1e-12)

    def test_update_keeps_two_pass_chunk_moments(self, rng):
        # the chunk formula before the mean was computed once per chunk
        values = rng.normal(3.0, 2.0, 70_001)
        acc = StreamingMoments()
        acc.update(values)
        assert acc.mean == float(values.mean())
        assert acc.m2 == float(((values - values.mean()) ** 2).sum())

    def test_accumulate_visits_chunks_in_order(self):
        seen = []
        accumulate(seen.append, 2 * CHUNK + 3, lambda sl: (sl.start, sl.stop))
        assert seen == [(0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 3 * CHUNK)]


def test_estimates_pinned():
    # recorded before the chunk loops moved into accumulate, with numpy 2.4 on x86-64; re-recorded
    # when Fock states began to draw from the state after a loss channel in place of a Gaussian smear;
    # amp re-recorded when the complex moments became the 2 x 2 sums of (Re, Im)
    ds = sample_homodyne(Fock(3), 0.8, CHUNK + 123, 17)
    est = estimate_mean(ds, Intensity())
    assert (est.value.hex(), est.stderr.hex()) == ("0x1.800c6dc8ea612p+1", "0x1.6f91a776541a2p-7")
    amp = estimate_complex(ds)
    assert [v.hex() for v in (amp.value.real, amp.value.imag, amp.noise_plus, amp.noise_minus)] == [
        "0x1.0841141996172p-8",
        "-0x1.1158f2896efa7p-6",
        "0x1.d1d19f56b85eap+1",
        "0x1.ce3d94e155dd9p+1",
    ]
