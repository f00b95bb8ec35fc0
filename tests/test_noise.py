import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tomonoise import (
    CapabilityError,
    Coherent,
    ComplexAmplitude,
    Fock,
    Intensity,
    Mixed,
    Phase,
    RealField,
    added_noise_analytic,
    analytic_comparison,
    empirical_comparison,
    noise_ratio_coherent,
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
from tomonoise.kernels import observable_name
from tomonoise.noise import (
    SWEEP_COLUMNS,
    direct_variance_analytic,
    sweep_rows_to_csv,
    tomographic_variance_analytic,
)

ALL_OBS = [Intensity(), RealField(), ComplexAmplitude(), Phase()]


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
                    diff = tomographic_variance_analytic(obs, state, eta) - direct_variance_analytic(
                        obs, state, eta
                    )
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
                    from_vars = math.sqrt(
                        tomographic_variance_analytic(obs, state, eta)
                        / direct_variance_analytic(obs, state, eta)
                    )
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
    """The comparison streams both sides block by block and keeps the parent's bytes."""

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "obs, tomo_hex",
        [
            (Intensity(), "0x1.4746bea83a39cp+3"),
            (RealField(), "0x1.e2024f8c446b3p+0"),
            (ComplexAmplitude(), "0x1.e0a26ffffcb3cp+0"),
            (Phase(), "0x1.f2d76a5fc3deap-1"),
        ],
        ids=["intensity", "real_field", "complex_amplitude", "phase"],
    )
    def test_tomographic_variance_pinned(self, obs, tomo_hex):
        # recorded before blocks ran on threads, with numpy 2.4 on x86-64
        row = empirical_comparison(obs, Coherent(1.5 + 0.5j), 0.8, self.N, 17)
        assert row.tomographic_variance == float.fromhex(tomo_hex)

    @pytest.mark.parametrize(
        "obs, direct_hex",
        [
            (Intensity(), "0x1.90c4ea48d806bp+1"),
            (RealField(), "0x1.3f0abbea1e57cp-2"),
            (ComplexAmplitude(), "0x1.3ee2d8907b8b4p-1"),
            (Phase(), "0x1.77fdefb58085fp-2"),
        ],
        ids=["intensity", "real_field", "complex_amplitude", "phase"],
    )
    def test_direct_variance_pinned(self, obs, direct_hex):
        # recorded before the direct side streamed through reduce, with numpy 2.4 on x86-64
        row = empirical_comparison(obs, Coherent(1.5 + 0.5j), 0.8, 3 * BLOCK_SIZE + 5, 17)
        assert row.direct_variance == float.fromhex(direct_hex)

    def test_direct_variance_matches_whole_array_formula(self):
        # The formulas below are the whole-array ones the chunked accumulation replaced.
        state, eta, n, seed = Coherent(1.5 + 0.5j), 0.8, 3 * BLOCK_SIZE + 5, 29
        ref = {}
        acc = StreamingMoments()
        acc.update(simulate_photocount(state, eta, n, seed).counts / eta)
        ref["intensity"] = acc.population_variance
        acc = StreamingMoments()
        acc.update(sample_fixed_phase(state, eta, n, seed))
        ref["real_field"] = acc.population_variance
        alphas = simulate_heterodyne(state, eta, n, seed).alphas
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
            "simulate_photocount": [generators["simulate_photocount"]().counts],
            "simulate_heterodyne": [generators["simulate_heterodyne"]().alphas],
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
