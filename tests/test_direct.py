import math

import numpy as np
import pytest

from tomonoise import (
    CapabilityError,
    Coherent,
    Fock,
    Mixed,
    ValidationError,
    amplitude_noise_direct,
    heterodyne_phase_variance,
    intensity_variance_direct,
    photon_distribution,
    quadrature_variance_direct,
    simulate_heterodyne,
    simulate_photocount,
)
from tomonoise import homodyne
from tomonoise.direct import POISSON_LAM_MAX, POISSON_TABLE_MEAN, POISSON_TABLE_SIZE
from tomonoise.errors import NumericRangeError


def bernoulli_convolved_pmf(state, eta, dim):
    # oracle: p(m) = sum_n p_n C(n, m) eta^m (1 - eta)^(n - m)
    probs, _ = photon_distribution(state, dim)
    out = np.zeros(dim)
    for m in range(dim):
        for n in range(m, dim):
            out[m] += probs[n] * math.comb(n, m) * eta**m * (1 - eta) ** (n - m)
    return out


def poisson_chi2_sf(counts, lam, least=50.0):
    """chi2.sf of Poisson(lam) counts over runs of consecutive values that each expect at least least counts."""
    from scipy.stats import chi2, poisson

    n = counts.size
    top = int(poisson.isf(least / n, lam))  # so the counts above the last run, top - 1 on, expect more than least
    uppers, run = [], 0.0
    for k, expect in enumerate(n * poisson.pmf(np.arange(top), lam)):
        run += expect
        if run >= least:
            uppers.append(k)
            run = 0.0
    observed = np.bincount(np.searchsorted(uppers, counts), minlength=len(uppers) + 1)
    expected = n * np.diff(np.concatenate(([0.0], poisson.cdf(uppers, lam), [1.0])))
    return chi2.sf(((observed - expected) ** 2 / expected).sum(), len(uppers))


def mixed6(seed):
    """A dim-6 pure state mixed with the identity: every band of rho is non-zero."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    return Mixed(0.7 * np.outer(v, v.conj()) + 0.3 * np.eye(6) / 6.0)


def oracle_heterodyne_phase_variance(beta, eta, nodes=150):
    # exact Var(arg(beta + g)) for isotropic Gaussian g, by 2-D Gauss-Hermite;
    # theta^2 is continuous across the branch cut, so the quadrature converges
    sigma = math.sqrt(1.0 / (2.0 * eta))
    t, w = np.polynomial.hermite.hermgauss(nodes)
    xs = beta + math.sqrt(2.0) * sigma * t
    ys = math.sqrt(2.0) * sigma * t
    theta2 = np.arctan2(ys[None, :], xs[:, None]) ** 2
    return float(w @ theta2 @ w / math.pi)


class TestPhotocounting:
    def test_fock_at_unit_efficiency_is_deterministic(self):
        rec = simulate_photocount(Fock(3), 1.0, 10_000, 71)
        assert (rec == 3).all()

    def test_single_photon_detection_probability(self):
        rec = simulate_photocount(Fock(1), 0.5, 10**6, 72)
        assert np.mean(rec == 1) == pytest.approx(0.5, abs=0.002)

    def test_thinned_poisson_moments(self):
        # oracle: thinning a Poisson keeps it Poisson with rate eta * nbar
        rec = simulate_photocount(Coherent(2.0), 0.7, 10**6, 73)
        assert rec.mean() == pytest.approx(2.8, rel=0.01)
        assert rec.var() == pytest.approx(2.8, rel=0.01)

    @pytest.mark.parametrize("state,dim", [(Coherent(math.sqrt(6.0)), 40), (Fock(5), 6), (mixed6(6), 6)])
    def test_total_variation_against_convolution_oracle(self, state, dim):
        eta = 0.6
        rec = simulate_photocount(state, eta, 10**6, 74)
        pmf = bernoulli_convolved_pmf(state, eta, dim)
        counts = np.bincount(rec, minlength=dim)[:dim]
        tv = 0.5 * np.abs(counts / rec.size - pmf).sum()
        assert tv < 0.005

    @pytest.mark.parametrize(
        "eta, mean",
        [(0.3, None), (0.8, None), (1.0, 1e-3), (1.0, 47.5), (1.0, POISSON_TABLE_MEAN * (1.0 - 1e-9))],
        ids=["0.3", "0.8", "lam=1e-3", "lam=47.5", "lam-below-table-bound"],
    )
    def test_coherent_counts_are_poisson(self, eta, mean):
        # thinning keeps a Poisson count Poisson: mean and variance lam, pmf by chi-squared at 5 sigma;
        # lam = 47.5 takes numpy's rng.poisson, the others the CDF table
        n = 200_000
        beta = 1.2 - 1.7j if mean is None else math.sqrt(mean)
        lam = eta * abs(beta) ** 2
        rec = simulate_photocount(Coherent(beta), eta, n, 76)
        assert abs(rec.mean() - lam) < 5.0 * math.sqrt(lam / n)
        assert abs(rec.var() - lam) < 5.0 * math.sqrt((lam + 2.0 * lam * lam) / n)
        assert poisson_chi2_sf(rec, lam) > 5.7e-7  # the two-sided 5 sigma tail

    def test_table_leaves_out_at_most_2_to_the_minus_64(self):
        from scipy.stats import poisson

        # the mass past the table's last count grows with the mean, so the bound's is the largest
        assert poisson.sf(POISSON_TABLE_SIZE - 1, POISSON_TABLE_MEAN) <= 2.0**-64

    @staticmethod
    def by_block(seed, draw):
        """The counts of draw(block's generator, count) over a full block and a 5-count one."""
        return np.concatenate(
            [
                draw(homodyne.block_generator(seed, homodyne.PURPOSE_PHOTOCOUNT, block), count)
                for block, count in enumerate((homodyne.BLOCK_SIZE, 5))
            ]
        )

    @pytest.mark.parametrize("mean", [1e-3, 3.2, POISSON_TABLE_MEAN * (1.0 - 1e-9)])
    def test_mean_below_the_table_bound_inverts_the_poisson_cdf(self, mean):
        from scipy.stats import poisson

        beta = math.sqrt(mean)
        lam = abs(beta) ** 2
        assert lam < POISSON_TABLE_MEAN
        by_hand = self.by_block(78, lambda rng, count: poisson.ppf(rng.random(count), lam))
        assert np.array_equal(simulate_photocount(Coherent(beta), 1.0, homodyne.BLOCK_SIZE + 5, 78), by_hand)

    # 0.625 * 4**2 is the bound itself, exactly
    @pytest.mark.parametrize("beta, eta", [(4.0, 0.625), (math.sqrt(47.5), 1.0), (1e3, 1.0)])
    def test_mean_from_the_table_bound_draws_numpy_poisson(self, beta, eta):
        lam = eta * abs(beta) ** 2
        assert lam >= POISSON_TABLE_MEAN
        by_hand = self.by_block(77, lambda rng, count: rng.poisson(lam, count))
        assert np.array_equal(simulate_photocount(Coherent(beta), eta, homodyne.BLOCK_SIZE + 5, 77), by_hand)

    def test_vacuum_counts_nothing(self):
        assert not simulate_photocount(Coherent(0.0), 0.7, homodyne.BLOCK_SIZE + 9, 78).any()

    def test_moment_closure(self):
        rec = simulate_photocount(Mixed(np.diag([0.2, 0.5, 0.3])), 0.8, 4 * 10**5, 75)
        scaled = rec / 0.8
        err = scaled.std() / math.sqrt(rec.size)
        assert abs(scaled.mean() - 1.1) < 4 * err


class TestAnalyticVariances:
    def test_intensity_variance_values(self):
        assert intensity_variance_direct(Coherent(2.0), 1.0) == pytest.approx(4.0)
        assert intensity_variance_direct(Coherent(2.0), 0.5) == pytest.approx(8.0)
        assert intensity_variance_direct(Fock(2), 0.5) == pytest.approx(2.0)

    def test_quadrature_variance_values(self):
        assert quadrature_variance_direct(Coherent(1.0), 1.0) == pytest.approx(0.25)
        assert quadrature_variance_direct(Coherent(1.0), 0.5) == pytest.approx(0.5)
        # ladder oracle: <x^2> for |n> is (2n + 1)/4
        assert quadrature_variance_direct(Fock(1), 1.0) == pytest.approx(0.75)

    def test_amplitude_noise_values(self):
        assert amplitude_noise_direct(Coherent(1 + 1j), 1.0) == pytest.approx((0.5, 0.5))
        assert amplitude_noise_direct(Coherent(1 + 1j), 0.25) == pytest.approx((2.0, 2.0))
        assert amplitude_noise_direct(Fock(2), 1.0) == pytest.approx((1.5, 1.5))

    def test_bright_coherent_values_exact(self):
        # coherent states take <dn^2> = nbar and no excess amplitude noise, with no subtraction to cancel
        assert intensity_variance_direct(Coherent(1e6), 0.5) == 2e12
        assert amplitude_noise_direct(Coherent(1e3 + 7j), 1.0) == (0.5, 0.5)
        assert amplitude_noise_direct(Coherent(1e3 + 7j), 0.9) == (5 / 9, 5 / 9)
        assert quadrature_variance_direct(Coherent(math.sqrt(1e17)), 1.0) == 0.25

    def test_amplitude_noise_ordering(self):
        plus, minus = amplitude_noise_direct(Mixed(np.diag([0.6, 0.1, 0.3])), 0.9)
        assert plus >= minus >= 0.0


class TestHeterodyne:
    def test_first_and_second_moments(self):
        rec = simulate_heterodyne(Coherent(1 + 1j), 1.0, 10**6, 81)
        err = 4 * math.sqrt(1.0 / rec.size)
        assert abs(rec.mean() - (1 + 1j)) < err
        assert np.mean(np.abs(rec) ** 2) - 2.0 == pytest.approx(1.0, rel=0.01)

    def test_per_quadrature_variance(self):
        rec = simulate_heterodyne(Coherent(0), 0.5, 10**6, 82)
        assert rec.real.var() == pytest.approx(1.0, rel=0.01)
        assert rec.imag.var() == pytest.approx(1.0, rel=0.01)

    def test_covariance_isotropy(self):
        rec = simulate_heterodyne(Coherent(2.0), 1.0, 10**6, 83)
        cov = np.mean(rec.real * rec.imag) - rec.real.mean() * rec.imag.mean()
        assert abs(cov) < 4 * 0.5 / math.sqrt(rec.size)

    def test_phase_variance_bright(self):
        rec = simulate_heterodyne(Coherent(5.0), 1.0, 10**6, 84)
        got = heterodyne_phase_variance(rec)
        assert got == pytest.approx(0.02, rel=0.03)  # 1/(2 eta nbar) asymptote
        assert got == pytest.approx(oracle_heterodyne_phase_variance(5.0, 1.0), rel=0.01)

    def test_phase_variance_bright_low_efficiency(self):
        # the 1/(2 eta nbar) asymptote carries a ~4% subleading correction at
        # nbar = 25, eta = 0.5; the exact quadrature oracle is the tight target
        rec = simulate_heterodyne(Coherent(5.0), 0.5, 10**6, 85)
        got = heterodyne_phase_variance(rec)
        exact = oracle_heterodyne_phase_variance(5.0, 0.5)
        assert got == pytest.approx(exact, rel=0.01)
        assert exact == pytest.approx(0.04, rel=0.06)

    def test_phase_variance_vacuum_is_uniform(self):
        rec = simulate_heterodyne(Coherent(0), 1.0, 10**6, 86)
        assert heterodyne_phase_variance(rec) == pytest.approx(math.pi**2 / 3.0, rel=0.02)

    @pytest.mark.parametrize("beta", [2.0, 1.5 + 0.5j, -1.3])
    def test_outcomes_have_the_bits_of_the_summed_draws(self, beta):
        # written in place, each outcome keeps the bits of beta + g_re + 1j g_im from the block's generator
        n, seed, sigma = homodyne.BLOCK_SIZE + 5, 88, math.sqrt(0.5 / 0.8)
        by_hand = []
        for block, count in enumerate((homodyne.BLOCK_SIZE, 5)):
            rng = homodyne.block_generator(seed, homodyne.PURPOSE_HETERODYNE, block)
            by_hand.append(beta + rng.normal(0.0, sigma, count) + 1j * rng.normal(0.0, sigma, count))
        alphas = simulate_heterodyne(Coherent(beta), 0.8, n, seed)
        assert alphas.tobytes() == np.concatenate(by_hand).tobytes()

    def test_non_coherent_state_rejected(self):
        with pytest.raises(CapabilityError, match="amplitude_noise_direct"):
            simulate_heterodyne(Fock(1), 1.0, 100, 87)

    @pytest.mark.parametrize(
        "alphas",
        [np.array([], dtype=complex), np.ones((2, 3), dtype=complex),
         np.array([1 + 1j, complex(np.nan, 0.0)]), np.array([1 + 1j, complex(0.0, np.inf)])],
        ids=["empty", "2-D", "nan", "inf"],
    )
    def test_phase_variance_refuses_bad_outcomes(self, alphas):
        with pytest.raises(ValidationError, match="alphas"):
            heterodyne_phase_variance(alphas)


def test_photocount_mean_up_to_numpy_poisson_limit():
    # numpy draws a Poisson mean of POISSON_LAM_MAX and refuses the next double
    rng = np.random.default_rng(0)
    rng.poisson(POISSON_LAM_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(POISSON_LAM_MAX, np.inf))
    beta = math.sqrt(POISSON_LAM_MAX)
    while beta * beta > POISSON_LAM_MAX:
        beta = math.nextafter(beta, 0.0)
    assert simulate_photocount(Coherent(beta), 0.5, 10, 1).size == 10
    above = math.nextafter(beta, math.inf)
    while above * above <= POISSON_LAM_MAX:
        above = math.nextafter(above, math.inf)
    with pytest.raises(NumericRangeError, match="Poisson"):
        simulate_photocount(Coherent(above), 0.5, 10, 1)
    with pytest.raises(NumericRangeError, match="Poisson"):
        simulate_photocount(Coherent(complex(3.1e9, 0.0)), 1.0, 10, 1, reduce=lambda counts: None)


class TestMixedPhotonNumbers:
    """A mixed state's photon number is the level k whose CDF interval [cdf[k-1], cdf[k]) holds u."""

    @staticmethod
    def counts_at(monkeypatch, state, u):
        class Stub:
            def random(self, count):
                return np.full(count, u)

        monkeypatch.setattr(homodyne, "block_generator", lambda seed, purpose, block: Stub())
        return simulate_photocount(state, 1.0, 5, 1)

    def test_top_deviate_stays_below_dim(self, monkeypatch):
        state = Mixed(np.diag([0.1, 0.2, 0.3, 0.1, 0.2, 0.1]))
        probs, _ = photon_distribution(state, state.dim)
        u = 1.0 - 2.0**-53  # the largest deviate below 1
        assert np.cumsum(probs / probs.sum())[-1] < u  # the normalised CDF ends below it
        assert (self.counts_at(monkeypatch, state, u) == state.dim - 1).all()

    def test_zero_deviate_skips_an_empty_level(self, monkeypatch):
        state = Mixed(np.diag([0.0, 0.0, 0.4, 0.6]))
        assert (self.counts_at(monkeypatch, state, 0.0) == 2).all()
