import hashlib
import importlib.util
import json
import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tomonoise import (
    CapabilityError,
    Coherent,
    ComplexAmplitude,
    Fock,
    Intensity,
    Mixed,
    Monomial,
    Phase,
    Polynomial,
    RealField,
    added_noise_analytic,
    analytic_comparison,
    empirical_comparison,
    mean_photon,
    noise_ratio_coherent,
    normal_moment,
    sample_fixed_phase,
    sample_homodyne,
    simulate_heterodyne,
    simulate_photocount,
    sweep,
)
from tomonoise import estimators, homodyne
from tomonoise.errors import NumericRangeError, ValidationError
from tomonoise.estimators import ComplexStreamingMoments, StreamingMoments
from tomonoise.homodyne import BLOCK_SIZE
from tomonoise.kernels import kernel_observable, observable_name
from tomonoise.noise import (
    SWEEP_COLUMNS,
    analytic_variances,
    sweep_rows_to_csv,
)

ALL_OBS = [Intensity(), RealField(), ComplexAmplitude(), Phase()]
ROOT = Path(__file__).resolve().parents[1]


class TestAddedNoise:
    def test_complex_amplitude_is_half_nbar(self):
        for eta in (0.25, 0.5, 1.0):
            assert added_noise_analytic(ComplexAmplitude(), Coherent(2.0), eta) == 2.0
        assert added_noise_analytic(ComplexAmplitude(), Fock(4), 0.7) == 2.0

    def test_intensity_vacuum(self):
        assert added_noise_analytic(Intensity(), Fock(0), 1.0) == pytest.approx(0.5)

    def test_real_field_coherent(self):
        assert added_noise_analytic(RealField(), Coherent(2.0), 0.5) == pytest.approx(2.5)

    def test_added_noise_is_variance_difference(self):
        for obs in (Intensity(), RealField(), ComplexAmplitude()):
            for state in (Coherent(1.5), Fock(2)):
                for eta in (0.4, 1.0):
                    tomo, direct = analytic_variances(obs, state, eta)
                    diff = tomo - direct
                    assert added_noise_analytic(obs, state, eta) == pytest.approx(diff, abs=1e-12)

    def test_positivity_on_grid(self):
        for eta in np.linspace(0.2, 1.0, 5):
            for nbar in np.linspace(0.0, 20.0, 9):
                state = Coherent(math.sqrt(nbar))
                for obs in (Intensity(), RealField()):
                    assert added_noise_analytic(obs, state, eta) > 0.0
                assert added_noise_analytic(ComplexAmplitude(), state, eta) >= 0.0
                if nbar > 0:
                    assert added_noise_analytic(ComplexAmplitude(), state, eta) > 0.0

    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_closed_forms_keep_small_nbar(self, eta):
        # tomo - direct of the O(1/eta) variances would round these to 0
        state = Coherent(1e-10)
        nbar = mean_photon(state)
        assert added_noise_analytic(ComplexAmplitude(), state, eta) == 0.5 * nbar > 0.0
        assert added_noise_analytic(RealField(), state, eta) == 0.5 * (nbar + 1.0 / (2.0 * eta))
        n2 = nbar + normal_moment(state, 2, 2).real
        intensity = 0.5 * (n2 + nbar * (2.0 / eta - 1.0) + 1.0 / (eta * eta))
        assert added_noise_analytic(Intensity(), state, eta) == intensity

    def test_bright_coherent_amplitude_row(self):
        # nbar + 1/eta - |<a>|^2 cancels to 0 here; the Gaussian central moments keep 1/(2 eta)
        bright = Coherent(math.sqrt(1e17))
        row = analytic_comparison(ComplexAmplitude(), bright, 1.0)
        assert row.direct_variance == 0.5
        assert row.tomographic_variance == 0.5 * (1.0 + mean_photon(bright))

    def test_phase_requires_bright_coherent(self):
        assert added_noise_analytic(Phase(), Coherent(4.0), 1.0) == pytest.approx(
            math.pi**2 / 12 - 1 / 32
        )
        with pytest.raises(CapabilityError, match="empirical"):
            added_noise_analytic(Phase(), Coherent(1.0), 1.0)
        with pytest.raises(CapabilityError):
            added_noise_analytic(Phase(), Fock(3), 1.0)


class TestNoiseRatios:
    def test_closed_form_values(self):
        assert noise_ratio_coherent(ComplexAmplitude(), 3.0, 1.0) == pytest.approx(2.0)
        assert noise_ratio_coherent(RealField(), 0.0, 0.7) == pytest.approx(math.sqrt(2.0))
        assert noise_ratio_coherent(Phase(), 6.0, 1.0) == pytest.approx(math.pi)

    def test_intensity_minimum_at_inverse_efficiency(self):
        grid = np.linspace(0.25, 4.0, 76)
        vals = [noise_ratio_coherent(Intensity(), g, 1.0) for g in grid]
        assert grid[int(np.argmin(vals))] == pytest.approx(1.0, abs=0.051)
        assert min(vals) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_consistency_with_variance_ratio(self):
        for eta in (0.3, 0.6, 1.0):
            for nbar in (0.5, 1.0, 3.0, 10.0):
                state = Coherent(math.sqrt(nbar))
                for obs in (Intensity(), RealField(), ComplexAmplitude()):
                    tomo, direct = analytic_variances(obs, state, eta)
                    from_vars = math.sqrt(tomo / direct)
                    closed = noise_ratio_coherent(obs, nbar, eta)
                    assert abs(from_vars - closed) < 1e-12 * closed

    def test_monotone_in_scaled_intensity(self):
        grid = np.linspace(0.1, 20.0, 40)
        for obs in (RealField(), ComplexAmplitude(), Phase()):
            vals = [noise_ratio_coherent(obs, g, 1.0) for g in grid]
            assert np.all(np.diff(vals) > 0)

    def test_domain_errors(self):
        with pytest.raises(NumericRangeError):
            noise_ratio_coherent(Intensity(), 0.0, 1.0)
        with pytest.raises(NumericRangeError):
            noise_ratio_coherent(Phase(), 0.0, 1.0)


class TestEmpiricalComparison:
    def test_intensity_ratio(self):
        row = empirical_comparison(Intensity(), Coherent(2.0), 1.0, 10**6, 101)
        assert row.ratio_linear == pytest.approx(math.sqrt(16.5 / 4.0), rel=0.02)
        assert row.added_noise == pytest.approx(row.tomographic_variance - row.direct_variance)

    def test_amplitude_ratio(self):
        row = empirical_comparison(ComplexAmplitude(), Coherent(3.0), 1.0, 10**6, 102)
        assert row.ratio_linear == pytest.approx(math.sqrt(10.0), rel=0.02)

    def test_vacuum_real_field_added_noise(self):
        row = empirical_comparison(RealField(), Fock(0), 1.0, 10**6, 103)
        assert row.added_noise == pytest.approx(0.25, rel=0.05)

    @pytest.mark.parametrize("seed", [2.7, True], ids=repr)
    def test_seed_of_the_wrong_type_refused(self, seed):
        # the row would otherwise report, and draw, seed 2 or 1
        with pytest.raises(ValidationError, match="seed must be an integer"):
            empirical_comparison(RealField(), Coherent(1.0), 0.8, 1000, seed)

    def test_integral_float_seed_gives_the_integer_row(self):
        got = empirical_comparison(RealField(), Coherent(1.0), 0.8, 1000, np.float64(2.0)).to_json()
        assert got == empirical_comparison(RealField(), Coherent(1.0), 0.8, 1000, 2).to_json()
        assert type(got["seed"]) is int

    def test_unsupported_pairing(self):
        with pytest.raises(CapabilityError):
            empirical_comparison(Phase(), Fock(1), 1.0, 1000, 104)

    def test_mixed_state_with_coherences_agrees_with_analytics(self):
        v = np.zeros(5, dtype=complex)
        v[:3] = [1.0, 0.5, 0.25 + 0.1j]
        v /= np.linalg.norm(v)
        state = Mixed(np.outer(v, v.conj()))
        for obs, seed in ((Intensity(), 777), (RealField(), 778)):
            row = empirical_comparison(obs, state, 0.8, 3 * 10**5, seed)
            ana = analytic_comparison(obs, state, 0.8)
            assert row.tomographic_variance == pytest.approx(ana.tomographic_variance, rel=0.03)
            assert row.direct_variance == pytest.approx(ana.direct_variance, rel=0.03)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("obs", [Intensity(), RealField()], ids=["intensity", "real_field"])
    def test_low_dimension_states_agree_with_analytics(self, obs, dim):
        # dim <= 4 puts <a^dag^2 a^2> at order n + m >= dim; the moments are exact there too
        rng = np.random.default_rng(dim)
        v = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        rho = np.einsum("nk,mk->nm", v, v.conj())
        state = Mixed(rho / rho.trace().real)
        n, seed, eta = 2 * 10**5, 40 + dim, 0.8
        if dim == 1 and isinstance(obs, Intensity):
            # the vacuum never clicks: both routes refuse its zero direct variance
            for compare in (lambda: empirical_comparison(obs, state, eta, n, seed),
                            lambda: analytic_comparison(obs, state, eta)):
                with pytest.raises(CapabilityError, match="direct variance is zero"):
                    compare()
            return
        row = empirical_comparison(obs, state, eta, n, seed)
        ana = analytic_comparison(obs, state, eta)
        ds = sample_homodyne(state, eta, n, seed)
        tomo = kernel_observable(obs, eta, ds.x, ds.phi)
        if isinstance(obs, Intensity):
            direct = simulate_photocount(state, eta, n, seed) / eta
        else:
            direct = sample_fixed_phase(state, eta, n, seed)
        for got, want, values in ((row.tomographic_variance, ana.tomographic_variance, tomo),
                                  (row.direct_variance, ana.direct_variance, direct)):
            dev = values - values.mean()
            sigma = math.sqrt((np.mean(dev**4) - np.mean(dev**2) ** 2) / n)  # of a sample variance
            assert abs(got - want) < 5 * sigma, (got, want, sigma)

    def test_agreement_with_analytic_three_sigma(self):
        # combined-error comparison on the (obs, coherent, eta) grid
        n = 4 * 10**5
        for obs in (Intensity(), RealField(), ComplexAmplitude()):
            for nbar in (1.0, 4.0):
                for eta in (0.6, 1.0):
                    state = Coherent(math.sqrt(nbar))
                    row = empirical_comparison(obs, state, eta, n, 105)
                    ana = analytic_comparison(obs, state, eta)
                    # variance-of-variance scale for both MC sides
                    se = math.sqrt(2.0 / n) * math.hypot(
                        ana.tomographic_variance * 3, ana.direct_variance * 3
                    )
                    diff = abs(row.added_noise - ana.added_noise)
                    assert diff < 3 * se, (obs, nbar, eta, diff, se)


class TestFiniteRows:
    """Every comparison row is finite, or refused with NumericRangeError."""

    def test_variances_beyond_float_range(self):
        # nbar 1e308 is finite, but 2 <a^2> is not
        with pytest.raises(NumericRangeError, match="real_field comparison leaves the float range"):
            analytic_comparison(RealField(), Coherent(1e154), 1.0)

    @pytest.mark.parametrize("obs", [Intensity(), Phase()], ids=["intensity", "phase"])
    def test_state_beyond_float_range(self, obs):
        # the phase row would otherwise report a zero heterodyne variance 1/(2 eta nbar)
        with pytest.raises(NumericRangeError, match="float range"):
            analytic_comparison(obs, Coherent(1e200), 0.8)

    @pytest.mark.parametrize("eta, tomo", [(1e-200, "inf"), (1e-320, "nan")])
    def test_kernel_beyond_float_range_where_the_direct_variance_is_zero(self, eta, tomo):
        # Fock(2) never varies in photon number, so its direct variance is 0; the intensity
        # kernel's 1/eta^2 terms take the tomographic variance out of the float range
        with np.errstate(all="ignore"), pytest.raises(
            NumericRangeError, match=f"tomographic variance {tomo}, direct variance 0"
        ):
            empirical_comparison(Intensity(), Fock(2), eta, 1000, 1)
        # a finite tomographic variance over a zero direct one stays a capability error
        with pytest.raises(CapabilityError, match="direct variance is zero"):
            empirical_comparison(Intensity(), Coherent(0), 1.0, 1000, 1)

    @pytest.mark.parametrize("obs", [Intensity(), Phase()], ids=["intensity", "phase"])
    def test_closed_form_ratio_where_eta_nbar_underflows(self, obs):
        with pytest.raises(NumericRangeError, match="eta \\* nbar = 0"):
            noise_ratio_coherent(obs, 5e-324, 0.5)

    @pytest.mark.parametrize("obs", [Intensity(), Phase()], ids=["intensity", "phase"])
    def test_sweep_row_whose_ratio_overflows(self, obs):
        # 1/(eta nbar) overflows: the intensity ratio and the phase row's heterodyne variance
        with pytest.raises(NumericRangeError, match="comparison leaves the float range"):
            sweep([obs], [1e-320], [0.5], "analytic")


    @pytest.mark.parametrize("eta,nbar", [(1.0, 5e-324), (0.5, 1e-323)])
    def test_phase_sweep_row_whose_closed_form_ratio_underflows(self, eta, nbar):
        assert noise_ratio_coherent(Phase(), nbar, eta) == 0.0
        with pytest.raises(NumericRangeError, match="phase comparison leaves the float range"):
            sweep([Phase()], [nbar], [eta], "analytic")

    def test_bright_phase_row_at_the_top_of_the_float_range(self):
        # 2 eta nbar overflows here, but the heterodyne variance 1/(2 eta nbar) does not underflow
        (row,) = sweep([Phase()], [1e308], [1.0], "analytic")
        assert row.direct_variance == 5e-309
        assert row.added_noise == math.pi**2 / 12.0
        assert row.ratio_linear == noise_ratio_coherent(Phase(), 1e308, 1.0)
        assert math.isfinite(row.ratio_db)


class TestAnalyticPins:
    """sha256 of analytic outputs, recorded with numpy 2.4 on x86-64 before the analytic
    comparisons went through one (tomographic, direct) dispatch and one row builder.

    Re-recorded when coherent states took their Gaussian central moments
    (<dn^2> = nbar, <dx^2> = 1/4, |<a>|^2 = nbar) in place of differences of raw
    moments: only coherent rows moved, by at most 7.1e-15 relative here, and
    every other row kept its bytes."""

    def test_sweep_bytes_pinned(self):
        grid = [0.1 + k * 0.1 for k in range(200)]  # what the CLI reads from 0.1:20:0.1
        csv = sweep_rows_to_csv(sweep(ALL_OBS, grid, [0.3, 0.7, 1.0], "analytic"))
        digest = hashlib.sha256(csv.encode()).hexdigest()
        assert digest == "3b8df286e68a3ed4a182a0c54d9d088f1d90fa23460bc16c91f620c29f5e6c37"

    def test_comparison_rows_pinned(self, monkeypatch):
        for name in ("reference", "workloads"):  # workloads imports reference by its bare name
            spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
        workloads = sys.modules["workloads"]
        states = [Coherent(1.5 + 0.5j), Fock(0), Fock(3), Fock(10), Mixed(np.full((2, 2), 0.5))]
        states += [Mixed(workloads.mixed_state(np.random.default_rng(seed))) for seed in (1, 2)]
        rows = []
        for state in states:
            for obs in ALL_OBS:
                for eta in (0.3, 0.7, 1.0):
                    try:
                        rows.append(analytic_comparison(obs, state, eta).to_json())
                    except CapabilityError as exc:  # phase below nbar 10, or a zero direct variance
                        rows.append({"error": str(exc)})
        assert sum("error" in row for row in rows) == 26
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "2753c1a67464224575f75ff7283baf9117c59de960613bc0198144ce48b7a6d6"


class TestSweep:
    def test_row_ordering_and_columns(self):
        rows = sweep([RealField(), Intensity()], [1.0, 0.5], [0.5, 1.0], "analytic")
        keys = [(r.observable, r.eta, r.nbar) for r in rows]
        assert keys == sorted(keys)
        csv = sweep_rows_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 9
        assert all(line.endswith("analytic,,") for line in lines[1:])

    def test_amplitude_rows_exact(self):
        rows = sweep([ComplexAmplitude()], [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], [1.0], "analytic")
        for row in rows:
            assert row.ratio_linear == math.sqrt(1.0 + row.nbar)

    def test_figure_style_shapes(self):
        nbars = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        rows = sweep(ALL_OBS, nbars, [1.0], "analytic")
        by_obs = {}
        for r in rows:
            by_obs.setdefault(r.observable, []).append(r.ratio_db)
        for name in ("real_field", "complex_amplitude", "phase"):
            assert np.all(np.diff(by_obs[name]) > 0)
        dn = by_obs["intensity"]
        assert dn[1] == min(dn)  # interior minimum at nbar = 1

    def test_phase_rows_marked_asymptotic_when_dim(self):
        rows = sweep([Phase()], [0.5, 16.0], [1.0], "analytic")
        assert rows[0].source == "analytic-asymptotic"
        assert rows[1].source == "analytic"

    def test_empirical_mode_requires_n_and_seed(self):
        with pytest.raises(ValidationError):
            sweep([RealField()], [1.0], [1.0], "empirical")

    def test_empirical_sweep_runs(self):
        rows = sweep([RealField()], [1.0, 4.0], [0.6, 1.0], "empirical", n=10**5, seed=9)
        assert len(rows) == 4
        for row in rows:
            want = noise_ratio_coherent(RealField(), row.nbar, row.eta)
            assert row.ratio_linear == pytest.approx(want, rel=0.05)
            assert row.n == 10**5 and row.seed == 9

    def test_phase_single_point_near_asymptote(self):
        rows = sweep([Phase()], [24.0], [1.0], "empirical", n=10**6, seed=10)
        assert rows[0].ratio_linear == pytest.approx(2 * math.pi, rel=0.05)


class TestStreamingComparison:
    """The comparison streams both sides block by block and keeps its pinned bytes.

    The coherent variances were re-recorded, except heterodyne's direct sides,
    when coherent states began to draw the lossy closed form: one normal of
    variance 1/(4 eta) per homodyne outcome and one Poisson(eta |beta|^2) per
    photocount, in place of the ideal draw plus a smear or binomial thinning.
    Every variance was re-recorded when the block streams moved from Philox to SFC64, and the
    scanned means and kernels to phase_trig's tangent forms.
    """

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "obs, tomo_hex",
        [
            (Intensity(), "0x1.460214b4a256dp+3"),
            (RealField(), "0x1.e0c7ad6a337bcp+0"),
            (ComplexAmplitude(), "0x1.e01aee23f1986p+0"),
            (Phase(), "0x1.f2511a23db707p-1"),
        ],
        ids=["intensity", "real_field", "complex_amplitude", "phase"],
    )
    def test_tomographic_variance_pinned(self, obs, tomo_hex):
        # re-recorded with the lossy closed form, with numpy 2.4 on x86-64; complex_amplitude
        # re-recorded when the complex moments became the 2 x 2 sums of (Re, Im)
        row = empirical_comparison(obs, Coherent(1.5 + 0.5j), 0.8, self.N, 17)
        assert row.tomographic_variance == float.fromhex(tomo_hex)

    @pytest.mark.parametrize(
        "obs, direct_hex",
        [
            (Intensity(), "0x1.919c6ea527270p+1"),
            (RealField(), "0x1.4014d91a2e0b4p-2"),
            (ComplexAmplitude(), "0x1.3eab3990f4404p-1"),
            (Phase(), "0x1.79476a18edabdp-2"),
        ],
        ids=["intensity", "real_field", "complex_amplitude", "phase"],
    )
    def test_direct_variance_pinned(self, obs, direct_hex):
        # heterodyne's recorded before the direct side streamed through reduce; photocount and
        # fixed-phase re-recorded with the lossy closed form, photocount again when Poisson counts
        # began to invert their CDF table; numpy 2.4 on x86-64
        row = empirical_comparison(obs, Coherent(1.5 + 0.5j), 0.8, 3 * BLOCK_SIZE + 5, 17)
        assert row.direct_variance == float.fromhex(direct_hex)

    @pytest.mark.parametrize(
        "obs, tomo_hex, direct_hex",
        [
            (Intensity(), "0x1.2a8e9c120c018p+4", "0x1.413963fe5749bp+2"),
            (RealField(), "0x1.4f87bd8d1aa16p+1", "0x1.4014d91a2e0b4p-2"),
            (ComplexAmplitude(), "0x1.4fa7c43d39fe6p+1", "0x1.3eab3990f4404p-1"),
            (Phase(), "0x1.d2a23817ba6bdp-1", "0x1.9f1ad1c2725fbp-3"),
        ],
        ids=["intensity", "real_field", "complex_amplitude", "phase"],
    )
    def test_real_amplitude_variances_pinned(self, obs, tomo_hex, direct_hex):
        # first recorded before the coherent mean and the complex-amplitude kernel took real
        # cos/sin; all but heterodyne's re-recorded with the lossy closed form; intensity's direct
        # variance again when Poisson counts began to invert their CDF table; numpy 2.4 on x86-64
        row = empirical_comparison(obs, Coherent(2.0), 0.8, 3 * BLOCK_SIZE + 5, 17)
        assert row.tomographic_variance == float.fromhex(tomo_hex)
        assert row.direct_variance == float.fromhex(direct_hex)

    def test_direct_variance_matches_whole_array_formula(self):
        # The formulas below are the whole-array ones the chunked accumulation replaced.
        state, eta, n, seed = Coherent(1.5 + 0.5j), 0.8, 3 * BLOCK_SIZE + 5, 29
        ref = {}
        acc = StreamingMoments()
        acc.update(simulate_photocount(state, eta, n, seed) / eta)
        ref["intensity"] = acc.population_variance
        acc = StreamingMoments()
        acc.update(sample_fixed_phase(state, eta, n, seed))
        ref["real_field"] = acc.population_variance
        alphas = simulate_heterodyne(state, eta, n, seed)
        acc = ComplexStreamingMoments()
        acc.update(alphas)
        plus, minus = acc.covariance_eigenvalues
        ref["complex_amplitude"] = 0.5 * (plus + minus)
        w = np.angle(alphas)
        ref["phase"] = float(np.mean(w * w) - np.mean(w) ** 2)
        for obs in ALL_OBS:
            got = empirical_comparison(obs, state, eta, n, seed).direct_variance
            expected = ref[observable_name(obs)]
            assert abs(got - expected) <= 1e-12 * abs(expected), observable_name(obs)

    def test_result_independent_of_worker_count(self, monkeypatch):
        n = 3 * BLOCK_SIZE + 5
        rows = {}
        for workers in ("1", ""):
            monkeypatch.setenv("TOMONOISE_MAX_WORKERS", workers)
            rows[workers] = [
                json.dumps(empirical_comparison(obs, Coherent(2.0), 0.8, n, 31).to_json())
                for obs in ALL_OBS
            ]
        assert rows["1"] == rows[""]

    def test_peak_memory_per_sample(self, monkeypatch):
        # Two threads, as on the reference machine: each holds one block of temporaries.
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "2")
        n = 2**20
        tracemalloc.start()
        try:
            empirical_comparison(ComplexAmplitude(), Coherent(2), 0.8, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Holding the homodyne record through whole-array heterodyne moments
        # took about 61 bytes a sample.
        assert peak < 24 * n + 4 * 2**20

    @pytest.mark.parametrize("obs", ALL_OBS, ids=observable_name)
    def test_peak_memory_independent_of_n(self, monkeypatch, obs):
        # Both sides stream, so only the blocks in flight are held, whatever n is.
        # One worker makes the peak exact: with two, the interleaving of the threads
        # alone moved it by up to 2.7 MB between runs of the same n.
        def peak(n):
            tracemalloc.start()
            try:
                empirical_comparison(obs, Coherent(2), 0.8, n, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "1")
        small, large = peak(2**20), peak(2**22)
        assert large <= small + 2 * 2**20, (small, large)
        # Two workers hold at most four blocks in flight, not 16 bytes a sample (64 MB).
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "2")
        assert peak(2**22) < 16 * 2**20

    def test_reduction_on_calling_thread_in_block_order(self, monkeypatch):
        def on_main_thread(fn):
            def wrapper(*args, **kwargs):
                assert threading.current_thread() is threading.main_thread(), fn.__qualname__
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(estimators, "kernel_observable", on_main_thread(estimators.kernel_observable))
        for cls in (StreamingMoments, ComplexStreamingMoments):
            monkeypatch.setattr(cls, "update", on_main_thread(cls.update))
        state, eta, n, seed = Coherent(1.0 - 0.5j), 0.8, 3 * BLOCK_SIZE + 5, 23
        generators = {
            "sample_homodyne": lambda reduce=None: sample_homodyne(state, eta, n, seed, reduce=reduce),
            "sample_fixed_phase": lambda reduce=None: sample_fixed_phase(state, eta, n, seed, reduce=reduce),
            "simulate_photocount": lambda reduce=None: simulate_photocount(state, eta, n, seed, reduce=reduce),
            "simulate_heterodyne": lambda reduce=None: simulate_heterodyne(state, eta, n, seed, reduce=reduce),
        }
        ds = generators["sample_homodyne"]()
        whole = {
            "sample_homodyne": [ds.x, ds.phi],
            "sample_fixed_phase": [generators["sample_fixed_phase"]()],
            "simulate_photocount": [generators["simulate_photocount"]()],
            "simulate_heterodyne": [generators["simulate_heterodyne"]()],
        }

        def check():
            for name, generate in generators.items():
                blocks = []

                def reduce(*arrays):
                    assert threading.current_thread() is threading.main_thread()
                    blocks.append(arrays)

                assert generate(reduce) is None
                assert [len(b[0]) for b in blocks] == [BLOCK_SIZE] * 3 + [5], name
                for column, parts in zip(whole[name], zip(*blocks)):
                    assert np.array_equal(np.concatenate(parts), column), name
            return [json.dumps(empirical_comparison(obs, state, eta, n, seed).to_json()) for obs in ALL_OBS]

        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "1")
        serial = check()
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "2")
        assert check() == serial
        # More threads than cores, switching as often as the interpreter allows.
        monkeypatch.setattr(homodyne, "worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert check() == serial
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "obs", [Monomial(1, 1), Polynomial.from_coeffs({(0, 1): 0.5, (1, 0): 0.5})], ids=["monomial", "polynomial"]
)
class TestRefusedObservables:
    # an observable with a kernel but no closed forms and no direct detector is refused by name

    def test_analytic_comparison(self, obs):
        with pytest.raises(CapabilityError, match=re.escape(f"no analytic kernel variance for observable {obs!r}")):
            analytic_comparison(obs, Coherent(1.5), 0.8)

    def test_noise_ratio_coherent(self, obs):
        with pytest.raises(CapabilityError, match=re.escape(f"no closed-form noise ratio for observable {obs!r}")):
            noise_ratio_coherent(obs, 2.0, 0.8)

    def test_empirical_comparison_draws_no_block(self, obs, monkeypatch):
        drawn = []
        run_blocks = homodyne.run_blocks

        def spy(n, draw, consume):
            drawn.append(n)
            run_blocks(n, draw, consume)

        monkeypatch.setattr(homodyne, "run_blocks", spy)
        with pytest.raises(CapabilityError, match=re.escape(f"no direct simulator for observable {obs!r}")):
            empirical_comparison(obs, Coherent(1.5), 0.8, 1000, 1)
        assert drawn == []
        empirical_comparison(Intensity(), Coherent(1.5), 0.8, 1000, 1)  # the spy sees both routes' draws
        assert drawn == [1000, 1000]
