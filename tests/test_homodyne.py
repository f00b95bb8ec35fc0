import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.stats import kstest

from conftest import sha256
from tomonoise import (
    Coherent,
    Dataset,
    Fock,
    Mixed,
    ValidationError,
    load_dataset_csv,
    load_dataset_json,
    quadrature_pdf,
    sample_fixed_phase,
    sample_homodyne,
    save_dataset_csv,
    save_dataset_json,
    simulate_heterodyne,
    simulate_photocount,
)
from tomonoise import homodyne
from tomonoise.errors import CapabilityError, NumericRangeError
from tomonoise.homodyne import (
    BLOCK_SIZE,
    PURPOSE_FIXED_PHASE,
    PURPOSE_HOMODYNE,
    PURPOSE_PHOTOCOUNT,
    QuadratureGridSampler,
    block_generator,
    run_blocks,
    worker_count,
)
from tomonoise.states import GRID_MASS_TOL, coherent_mean, hermite_functions


def plus_state():
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return Mixed(np.outer(v, v))


class TestDeterminism:
    def test_identical_inputs_identical_output(self):
        a = sample_homodyne(Coherent(1.2 + 0.3j), 0.8, 200_000, 99)
        b = sample_homodyne(Coherent(1.2 + 0.3j), 0.8, 200_000, 99)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.phi, b.phi)

    def test_blocks_concatenate_to_sequence(self):
        # the per-block substreams are the parallelization contract
        n = BLOCK_SIZE + 1234
        ds = sample_homodyne(Fock(1), 1.0, n, 5)
        blocks = []
        sample_homodyne(Fock(1), 1.0, n, 5, reduce=lambda x, phi: blocks.append((x, phi)))
        (x0, phi0), (x1, phi1) = blocks
        assert np.array_equal(ds.x, np.concatenate([x0, x1]))
        assert np.array_equal(ds.phi, np.concatenate([phi0, phi1]))
        # block 1 draws its phases first from its own key (seed, purpose, block)
        rng = block_generator(5, PURPOSE_HOMODYNE, 1)
        assert np.array_equal(phi1, rng.uniform(0.0, math.pi, n - BLOCK_SIZE))

    def test_block_generator_is_sfc64_keyed_by_a_spawn_key(self):
        rng = block_generator(7, PURPOSE_HOMODYNE, 2)
        assert isinstance(rng.bit_generator, np.random.SFC64)
        key = np.random.SeedSequence(7, spawn_key=(PURPOSE_HOMODYNE, 2))
        assert np.array_equal(rng.random(16), np.random.Generator(np.random.SFC64(key)).random(16))

    def test_block_keys_do_not_collide(self):
        # SeedSequence's list form reads [2**32 + 5, 3, 0] and [5, 1, 3] as the same words;
        # a spawn key follows the seed's words padded to the pool size, so its keys stay apart
        def words(entropy):
            return np.random.SeedSequence(entropy).generate_state(4)

        assert np.array_equal(words([2**32 + 5, 3, 0]), words([5, 1, 3]))
        assert not np.array_equal(block_generator(2**32 + 5, 3, 0).random(8), block_generator(5, 1, 3).random(8))
        assert not np.array_equal(block_generator(5, 1, 0).random(8), block_generator(5, 2, 0).random(8))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_block_generator_seed_range(self, seed):
        with pytest.raises(ValidationError, match=r"seed must lie in \[0, 2\*\*64\), got"):
            block_generator(seed, PURPOSE_HOMODYNE, 0)
        for edge in (0, 2**64 - 1):
            block_generator(edge, PURPOSE_HOMODYNE, 0).random(1)

    def test_seed_changes_output(self):
        a = sample_homodyne(Fock(0), 1.0, 1000, 1)
        b = sample_homodyne(Fock(0), 1.0, 1000, 2)
        assert not np.array_equal(a.x, b.x)


class TestDistributions:
    def test_vacuum_variance(self):
        ds = sample_homodyne(Coherent(0), 1.0, 10**6, 11)
        assert ds.x.var() == pytest.approx(0.25, abs=1e-3)

    def test_coherent_inefficient_variance_in_phase_bin(self):
        ds = sample_homodyne(Coherent(2.0), 0.5, 10**6, 12)
        bin_x = ds.x[ds.phi < 0.1]
        assert bin_x.size > 20_000
        assert bin_x.var() == pytest.approx(0.5, abs=0.01)

    def test_fock1_histogram_matches_wavefunction(self):
        ds = sample_homodyne(Fock(1), 1.0, 10**6, 13)
        edges = np.linspace(-3, 3, 61)
        hist, _ = np.histogram(ds.x, bins=edges, density=True)
        # bin-averaged analytic density 4 x^2 sqrt(2/pi) exp(-2 x^2)
        fine = np.linspace(-3, 3, 6001)
        pdf = 4 * fine**2 * math.sqrt(2 / math.pi) * np.exp(-2 * fine**2)
        avg = np.array(
            [
                trapezoid(pdf[(fine >= lo) & (fine <= hi)], fine[(fine >= lo) & (fine <= hi)])
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        ) / np.diff(edges)
        assert np.max(np.abs(hist - avg)) < 0.01

    def test_phases_uniform_by_ks(self):
        stats = []
        for seed in range(10):
            ds = sample_homodyne(Fock(0), 1.0, 10**5, seed)
            stats.append(kstest(ds.phi / math.pi, "uniform").statistic)
        assert np.mean(stats) < 1.628 / math.sqrt(10**5)  # 1% critical value

    def test_mean_law_recovers_re_a(self):
        # average of 2 x cos(phi) converges to Re<a>, including for coherences
        ds = sample_homodyne(plus_state(), 1.0, 400_000, 14)
        vals = 2 * ds.x * np.cos(ds.phi)
        err = vals.std() / math.sqrt(ds.n)
        assert abs(vals.mean() - 0.5) < 4 * err

    def test_mixed_sampler_matches_pdf_at_fixed_phase(self):
        state = plus_state()
        phi = 1.1
        xs = sample_fixed_phase(state, 1.0, 400_000, 15, phi=phi)
        edges = np.linspace(-3, 3, 41)
        hist, _ = np.histogram(xs, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pdf = quadrature_pdf(state, phi, 1.0, centers)
        assert np.max(np.abs(hist - pdf)) < 0.02

    def test_mixed_sampler_matches_pdf_below_unit_efficiency(self):
        # the sampler adds Gaussian noise, quadrature_pdf takes the loss channel: one law
        state = plus_state()
        phi = 1.1
        xs = sample_fixed_phase(state, 0.4, 400_000, 16, phi=phi)
        edges = np.linspace(-4, 4, 41)
        counts, _ = np.histogram(xs, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pdf = quadrature_pdf(state, phi, 0.4, centers)
        assert np.max(np.abs(counts / (xs.size * np.diff(edges)) - pdf)) < 0.02

    @pytest.mark.parametrize("n", [707, 800, 1000, 1023])
    def test_high_fock_levels_build_with_unit_mass(self, n):
        # the recurrence carries an exponent past |x| = 26.6, so no tail is lost to underflow;
        # Fock(1023) is the highest level the grid takes at eta = 1
        assert abs(QuadratureGridSampler(Fock(n)).mass - 1.0) <= 1e-12

    def test_sampled_law_at_the_highest_accepted_level(self):
        # 4e5 samples of Fock(1023) in 0.25-wide bins against the CDF of quadrature_pdf on a fine grid:
        # chi2 per degree of freedom reads 2.65 here, 2.0 at Fock(700) and 100 at Fock(1500), where
        # a grid with one node per period of |psi_n|^2 would still hold unit mass
        n = 1023
        half = 3.0 + 2.0 * math.sqrt(n + 1)
        fine = np.linspace(-half, half, 400_001)
        p = quadrature_pdf(Fock(n), 0.0, 1.0, fine)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(fine))))
        edges = np.linspace(-half, half, int(4 * half) + 1)
        x = sample_homodyne(Fock(n), 1.0, 400_000, 1).x
        expected = np.diff(np.interp(edges, fine, cdf)) * x.size
        counts, _ = np.histogram(x, edges)
        kept = expected > 5
        chi2 = np.sum((counts[kept] - expected[kept]) ** 2 / expected[kept])
        assert chi2 < 3.0 * (kept.sum() - 1)

    def test_fock_1000_second_moment(self):
        # <x^2> = (2n + 1)/4 and <x^4> = 3 (2n^2 + 2n + 1)/16 at eta = 1: the standard error is exact
        n, size = 1000, 400_000
        x2 = sample_homodyne(Fock(n), 1.0, size, 11).x ** 2
        var = 3.0 * (2 * n * n + 2 * n + 1) / 16.0 - ((2 * n + 1) / 4.0) ** 2
        assert abs(x2.mean() - (2 * n + 1) / 4.0) < 5.0 * math.sqrt(var / size)

    def test_fock_720_is_sampled_with_and_without_loss(self):
        # <x^2> of the rescaled outcome is (2 eta n + 1)/(4 eta): 360.25 at eta = 1, 360.5 at eta = 0.5
        grid = np.linspace(-60.0, 60.0, 24_001)
        assert trapezoid(quadrature_pdf(Fock(720), 0.3, 0.5, grid), grid) == pytest.approx(1.0, abs=1e-9)
        for eta in (1.0, 0.5):
            x2 = sample_homodyne(Fock(720), eta, 400_000, 7).x ** 2
            assert abs(x2.mean() - (1440 * eta + 1) / (4 * eta)) < 5.0 * x2.std() / math.sqrt(x2.size)

    @pytest.mark.parametrize("scale, mass", [(1.0 + 1e-5, "1.00001"), (1.0 - 1e-5, "0.99999")])
    def test_grid_mass_off_one_either_way_is_refused(self, monkeypatch, scale, mass):
        # a backstop behind the resolution refusal: a table whose mass misses 1 on either side is refused
        monkeypatch.setattr(homodyne, "hermite_functions", lambda n, x: hermite_functions(n, x) * math.sqrt(scale))
        with pytest.raises(NumericRangeError, match=rf"holds mass {mass}\d*, not 1 within 1e-06"):
            QuadratureGridSampler(Fock(3))

    def test_resolution_refusal_judges_the_state_after_loss(self):
        # Fock(1600) lies past the grid's resolved level; after a loss channel of 0.3 its weight
        # sits near level 480, so the grid over the same dim 1601 takes it
        with pytest.raises(NumericRangeError, match="above 666"):
            QuadratureGridSampler(Fock(1600))
        assert abs(QuadratureGridSampler(Fock(1600), 0.3).mass - 1.0) <= GRID_MASS_TOL

    @pytest.mark.parametrize("n", [1024, 1600, 2834, 10**6])
    def test_unresolved_fock_level_refused_before_allocating(self, n):
        # Fock(10**6) would need a 33 GB Hermite table
        tracemalloc.start()
        try:
            with pytest.raises(NumericRangeError, match="resolves no higher level"):
                sample_homodyne(Fock(n), 1.0, 10, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


class TestDatasetContainer:
    def test_requires_valid_phases(self):
        with pytest.raises(ValidationError):
            Dataset(np.array([0.1]), np.array([3.5]), 1.0, "x", 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            Dataset(np.array([0.1, bad]), np.array([0.2, 0.3]), 1.0, "x", 0)
        with pytest.raises(ValidationError, match="phases"):
            Dataset(np.array([0.1, 0.2]), np.array([0.2, bad]), 1.0, "x", 0)

    def test_sequence_protocol(self):
        ds = sample_homodyne(Fock(0), 1.0, 10, 3)
        assert len(ds) == 10

    def test_rejects_bad_eta(self):
        with pytest.raises(ValidationError):
            sample_homodyne(Fock(0), 0.0, 10, 1)
        with pytest.raises(ValidationError):
            sample_homodyne(Fock(0), 1.0, 0, 1)


class TestSubnormalEfficiency:
    """Below eta = 0.25 / DBL_MAX a coherent state's outcome spread sqrt(0.25 / eta) overflows.

    A number state's outcome is its draw after loss over sqrt(eta), which stays finite.
    """

    @pytest.mark.parametrize("eta", [1e-320, 5e-324])
    @pytest.mark.parametrize("name", ["sample_homodyne", "sample_fixed_phase", "simulate_heterodyne"])
    def test_coherent_refused_before_any_block(self, monkeypatch, name, eta):
        monkeypatch.setattr(homodyne, "block_generator", None)
        with pytest.raises(NumericRangeError, match="spread"):
            TestGeneratorArguments.GENERATORS[name](Coherent(1.0), eta, 10, 1)

    def test_subnormal_eta_whose_spread_fits_is_sampled(self):
        ds = sample_homodyne(Coherent(1.0), 1e-308, 1000, 1)
        assert np.isfinite(ds.x).all()
        assert np.isfinite(simulate_heterodyne(Coherent(1.0), 1e-308, 1000, 1)).all()

    @pytest.mark.parametrize("state", [Fock(1), Mixed(np.diag([0.5, 0.3, 0.2])), plus_state()], ids=["fock", "diagonal", "plus"])
    def test_number_states_sampled(self, state):
        # after almost total loss the state is the vacuum: x sqrt(eta) has spread 1/2
        eta = 1e-320
        for x in (sample_homodyne(state, eta, 4000, 1).x, sample_fixed_phase(state, eta, 4000, 1, phi=0.7)):
            assert np.isfinite(x).all()
            assert np.std(x * math.sqrt(eta)) == pytest.approx(0.5, rel=0.1)


class TestGeneratorArguments:
    """Every generator checks its arguments in one order, before any sampler is built."""

    GENERATORS = {
        "sample_homodyne": sample_homodyne,
        "sample_fixed_phase": sample_fixed_phase,
        "simulate_photocount": simulate_photocount,
        "simulate_heterodyne": simulate_heterodyne,
    }

    @pytest.mark.parametrize("name", list(GENERATORS))
    @pytest.mark.parametrize(
        "state, eta, n, seed, error, match",
        [
            ("fock", 0.8, 10, 1, ValidationError, "not a state"),
            (Coherent(1.0), 0.0, 10, 1, ValidationError, "quantum efficiency"),
            (Coherent(1.0), 1.5, 0, -1, ValidationError, "quantum efficiency"),
            (Coherent(1.0), 0.8, 0, 1, ValidationError, "sample count"),
            (Coherent(1.0), 0.8, 2.5, -1, ValidationError, "sample count"),
            (Coherent(1.0), 0.8, 10, -1, ValidationError, "seed"),
            (Coherent(1.0), 0.8, 10, 2**64, ValidationError, "seed"),
            (Coherent(1.0), 0.8, True, 1, ValidationError, "sample count"),
            (Coherent(1.0), 0.8, 10, 1.5, ValidationError, "seed must be an integer"),
            (Coherent(1.0), 0.8, 10, True, ValidationError, "seed must be an integer"),
            (Coherent(1.0), 0.8, 10, "7", ValidationError, "seed must be an integer"),
        ],
        ids=["state", "eta", "eta-first", "n", "n-before-seed", "seed", "seed-high", "n-bool",
             "seed-fraction", "seed-bool", "seed-text"],
    )
    def test_generator_argument_errors(self, name, state, eta, n, seed, error, match):
        # every generator checks state, then eta, then n, and its first block the seed
        with pytest.raises(error, match=match):
            self.GENERATORS[name](state, eta, n, seed)

    @pytest.mark.parametrize("name", list(GENERATORS))
    @pytest.mark.parametrize("seed", [np.float64(7.0), 7.0, np.uint64(7)], ids=repr)
    def test_integral_seed_of_another_type_draws_that_seed(self, name, seed):
        got, want = (self.GENERATORS[name](Coherent(1.0), 0.8, 10, s) for s in (seed, 7))
        if name == "sample_homodyne":
            assert type(got.seed) is int and got.seed == 7
            got, want = np.stack([got.x, got.phi]), np.stack([want.x, want.phi])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", list(GENERATORS))
    def test_bad_count_rejected_before_a_grid_is_built(self, name, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid sampler built")

        monkeypatch.setattr(homodyne.QuadratureGridSampler, "__init__", no_grid)
        expected = CapabilityError if name == "simulate_heterodyne" else ValidationError
        with pytest.raises(expected):
            self.GENERATORS[name](Fock(5000), 0.8, 0, 1)

    def test_fixed_phase_mean_out_of_float_range(self, monkeypatch):
        # Re(beta e^(-i phi)) overflows at phi = 0.7: refused, as sample_homodyne refuses
        # the state, before any block is drawn and without a numpy warning.
        state = Coherent(1.7e308 + 1e308j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(sample_fixed_phase(state, 1.0, 5, 0, phi=0.0) == 1.7e308)  # Re(beta) fits
            monkeypatch.setattr(homodyne, "block_generator", None)
            for draw in (sample_homodyne, lambda *args: sample_fixed_phase(*args, phi=0.7)):
                with pytest.raises(NumericRangeError, match="float range"):
                    draw(state, 1.0, 5, 0)

    def test_heterodyne_capability_after_state_and_eta(self):
        with pytest.raises(CapabilityError, match="coherent states only"):
            simulate_heterodyne(Fock(1), 0.8, 0, -1)  # before n and the seed
        with pytest.raises(ValidationError, match="quantum efficiency"):
            simulate_heterodyne(Fock(1), 0.0, 10, 1)
        with pytest.raises(ValidationError, match="not a state"):
            simulate_heterodyne("fock", 0.8, 10, 1)


class TestIo:
    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("eta", True, "eta must be a number"),
            ("eta", "0.8", "eta must be a number"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", True, "seed must be an integer"),
            ("seed", "7", "seed must be an integer"),
            ("state_tag", 5, "state_tag must be a string"),
        ],
        ids=["eta-bool", "eta-string", "seed-fraction", "seed-bool", "seed-string", "tag-number"],
    )
    def test_json_metadata_of_the_wrong_type_refused(self, tmp_path, key, value, match):
        meta = {"state_tag": "t", "eta": 0.8, "seed": 1, "n": 1, key: value}
        path = tmp_path / "d.json"
        path.write_text(json.dumps({**meta, "samples": [[0.5, 1.25]]}))
        with pytest.raises(ValidationError, match=match):
            load_dataset_json(path)

    def test_json_integral_metadata_reads(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"state_tag": "t", "eta": 1, "seed": 7.0, "n": 1, "samples": [[0.5, 1.25]]}))
        back = load_dataset_json(path)
        assert (back.eta, back.seed) == (1.0, 7) and type(back.eta) is float and type(back.seed) is int

    @pytest.mark.parametrize("eta, seed", [(np.float64(0.5), np.int64(3)), (np.float32(0.5), np.uint64(3))], ids=repr)
    def test_numpy_metadata_round_trips(self, tmp_path, eta, seed):
        # the writers print and serialise the Python numbers; numpy's repr would not reload
        ds = sample_homodyne(Fock(1), eta, 10, seed)
        assert (type(ds.eta), type(ds.seed)) == (float, int)
        save_dataset_csv(ds, tmp_path / "d.csv")
        save_dataset_json(ds, tmp_path / "d.json")
        assert "# eta=0.5\n" in (tmp_path / "d.csv").read_text()
        for back in (load_dataset_csv(tmp_path / "d.csv"), load_dataset_json(tmp_path / "d.json")):
            assert (back.eta, back.seed) == (0.5, 3)
            assert np.array_equal(back.x, ds.x) and np.array_equal(back.phi, ds.phi)

    def test_csv_round_trip(self, tmp_path):
        ds = sample_homodyne(Coherent(1.0), 0.7, 500, 21)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.phi, ds.phi)
        assert back.eta == ds.eta and back.seed == ds.seed
        assert back.state_tag == ds.state_tag

    def test_csv_metadata_lines(self, tmp_path):
        ds = sample_homodyne(Fock(2), 1.0, 5, 4)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# state=fock(n=2)"
        assert lines[1] == "# eta=1.0"
        assert lines[2] == "# seed=4"
        assert lines[3] == "# n=5"
        assert lines[4] == "x,phi"
        assert len(lines) == 10

    def test_json_round_trip(self, tmp_path):
        ds = sample_homodyne(Fock(1), 0.9, 50, 8)
        path = tmp_path / "d.json"
        save_dataset_json(ds, path)
        back = load_dataset_json(path)
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.phi, ds.phi)
        assert back.eta == ds.eta

    def test_json_written_row_by_row(self, tmp_path):
        # the whole document once held about 26 MB of Python objects at this size
        ds = sample_homodyne(Fock(3), 0.8, 10**5, 17)
        tracemalloc.start()
        try:
            save_dataset_json(ds, tmp_path / "d.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    """Phase-independent and closed-form paths keep their pinned bytes.

    These are the inputs of the Fock dataset runs and the coherent comparisons.
    The number-basis cases, the eta = 1 photocount and heterodyne keep the bytes
    recorded before the table search, the thread pool of run_blocks and the
    joined-row writer replaced their loops and np.savetxt. The coherent eta = 0.8
    cases (sample_homodyne, sample_fixed_phase, simulate_photocount and the CSV
    file) were re-recorded when coherent states began to draw the lossy closed
    form, one normal of variance 1/(4 eta) and one Poisson(eta |beta|^2) draw,
    in place of the ideal draw plus a smear or binomial thinning. The Fock(200)
    photocount was recorded while Fock counts were thinned with an array of
    equal n, before they were thinned with the scalar n. The number-basis
    eta = 0.8 outcomes (Fock(3) and diagonal sample_homodyne, Fock(3)
    sample_fixed_phase) and the diagonal photocount were re-recorded when
    those states began to draw from the state after a loss channel, in place
    of the ideal draw plus a smear or binomial thinning. The two coherent
    photocount cases were re-recorded when Poisson counts began to invert
    their CDF table with one uniform each, in place of numpy's rng.poisson.
    Every case was re-recorded when the block streams moved from Philox to SFC64, and the coherent
    means to phase_trig's tangent forms. The number-basis cases (Fock(3) and
    diagonal sample_homodyne, Fock(3) sample_fixed_phase) were re-recorded when
    states without bands left np.interp for the bracket and interpolation of the
    states with coherences, which round the last bits of some outcomes
    differently. Hashes were recorded with numpy 2.4 on x86-64.
    """

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "state, digest",
        [
            (Fock(3), "a8fb4a7bed6c4259eb35b4001b69fd107c671790a35c270801ee057c40997732"),
            (
                Mixed(np.diag([0.5, 0.3, 0.2])),
                "815fa0456850a58bcbf36e83299c2385a79a00dc6b12570e215d6180a4cc0c06",
            ),
            (Coherent(1.5 + 0.5j), "f436163e914b5c344c02c7ceccfc005674f7524aa14d89cedc5515ad528f45ad"),
        ],
        ids=["fock3", "diagonal", "coherent"],
    )
    def test_sample_homodyne(self, state, digest):
        ds = sample_homodyne(state, 0.8, self.N, 17)
        assert sha256(ds.x, ds.phi) == digest

    @pytest.mark.parametrize(
        "state, digest",
        [
            (Fock(3), "4cfc2555186273dcf5758bc5f3f3c7e101e392884dd5581112974b63d58d1a0b"),
            (Coherent(1.5 + 0.5j), "4a66ee6cada6c478a253f25d105ab2f297a6d0cb28005e307c551d8eb0233e65"),
        ],
        ids=["fock3", "coherent"],
    )
    def test_sample_fixed_phase(self, state, digest):
        assert sha256(sample_fixed_phase(state, 0.8, self.N, 17, phi=0.7)) == digest

    @pytest.mark.parametrize(
        "state, eta, digest",
        [
            (Coherent(1.5 + 0.5j), 0.8, "aa1b553588cfc467cf659985456890c27ffe8956ff9f772754f3cd80acd60f7a"),
            (Coherent(1.5 + 0.5j), 1.0, "79a377f4da9092f07eca6db535f2d780f7e31f5b17fca3894056c43f443d03b4"),
            (Fock(3), 0.8, "aae11a3db8798a9836caffbd69ae92ad3ec13e09f90cb0d57d90d013a308e72b"),
            # n (1 - eta) = 40 takes numpy's BTPE binomial, where Fock(3) takes inversion
            (Fock(200), 0.8, "7bc301ee862f6aa14449cc7f8fef41da7f505dc77c79732cb94ba1bde26c6ce2"),
            (
                Mixed(np.diag([0.5, 0.3, 0.2])),
                0.8,
                "aa552288b6a300e6e4d0826731534b84603978b8735fcb0bc0ba47a24459353f",
            ),
        ],
        ids=["coherent", "coherent-eta1", "fock3", "fock200", "diagonal"],
    )
    def test_simulate_photocount(self, state, eta, digest):
        assert sha256(simulate_photocount(state, eta, self.N, 17), dtype="<i8") == digest

    def test_simulate_heterodyne(self):
        alphas = simulate_heterodyne(Coherent(1.5 + 0.5j), 0.8, self.N, 17)
        digest = "f98e7d2b07e0be9bacdb225fe4c5cbd1a7098c6cfc33e457568a8091c99fea3a"
        assert sha256(alphas, dtype="<c16") == digest

    def test_csv_files(self, tmp_path):
        state, path = Coherent(1.5 + 0.5j), tmp_path / "r.csv"
        save_dataset_csv(sample_homodyne(state, 0.8, 20_000, 17), path)
        assert file_sha256(path) == "3ed4a4db13b8369e9b6b6cd0f8db9d61c74d0883a6598c85160cbd5f3f7f7db5"


class TestJsonPins:
    """JSON dataset files keep their bytes: json.dumps's metadata, and each sample as '%.17g' with '.0' after an integer.

    Recorded with numpy 2.4 on x86-64. The sizes cross the 4096-row slice edge
    and the block edge. The coherent files were re-recorded when coherent
    states began to draw their lossy outcomes as one normal of variance
    1/(4 eta), and the Fock(3) file when number-basis states began to draw
    from the state after a loss channel; all were re-recorded when the block
    streams moved from Philox to SFC64. Samples were once written as repr, the
    bytes of json.dumps over the whole document; the pins were re-recorded
    when they took the CSV's '%.17g' digits, except n = 1, whose two values
    have the same text either way. The Fock(3) file was re-recorded when states
    without bands left np.interp for the bracket and interpolation of the states
    with coherences, which round the last bits of some samples differently.
    """

    @pytest.mark.parametrize(
        "state, n, digest",
        [
            (Fock(3), 10**5, "0cb0e3d4e63afc4edd5d7f29f53596c9f5ae9eca58897603df41c58c264188ee"),
            (Coherent(1.5 + 0.5j), 70001, "a7ce8cf0246451c540236607370fa642a619d2ed82d5db01cc12bad18b55c0c9"),
            (Coherent(1.5 + 0.5j), 1, "e0a57149ca6b1c6e7c1ea3f1f4aae493f653d9e75ee1f2c0431b444db5483fb4"),
            (Coherent(1.5 + 0.5j), 4096, "416d5dd466c74907d6a0aeb69f0c8395df11cc381a2a672931382e5263669785"),
            (Coherent(1.5 + 0.5j), 4097, "064240f40402e17be311d2e40e303e406414860d585408ef42b7dddee4843db3"),
        ],
        ids=["fock3", "coherent", "n1", "n4096", "n4097"],
    )
    def test_sampled(self, tmp_path, state, n, digest):
        path = tmp_path / "d.json"
        save_dataset_json(sample_homodyne(state, 0.8, n, 17), path)
        assert file_sha256(path) == digest

    def test_hand_made(self, tmp_path):
        # an int eta, a quote in the tag, a negative zero and a tiny value
        ds = Dataset(np.array([-0.0, 1e-300, 2.5]), np.array([0.0, 1e-300, 3.0]), 1, 'tag "q"', 7)
        path = tmp_path / "d.json"
        save_dataset_json(ds, path)
        assert path.read_text() == (
            '{"state_tag": "tag \\"q\\"", "eta": 1, "seed": 7, "n": 3, '
            '"samples": [[-0.0, 0.0], [1e-300, 1e-300], [2.5, 3.0]]}'
        )


class TestRealAmplitudePins:
    """Coherent states with a real amplitude, whose mean takes np.cos, keep their bytes.

    First recorded before coherent_mean dropped the complex exponential for a
    real amplitude, which kept them; re-recorded when coherent states began to
    draw their lossy outcomes as one normal of variance 1/(4 eta), and when the
    block streams moved from Philox to SFC64 and the scanned means to
    phase_trig's tangent form, with numpy 2.4 on x86-64.
    """

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "beta, digest",
        [
            (2.0, "ea49dc688eb155ae818e159e729b5c7de57502e9d6f12ca7d3887a0d6336dae2"),
            (-1.3, "9859c9cdd69c2a9198e7a230f0f7bc3bccaa1b7a6af5068546caf485f88a94ad"),
        ],
        ids=["2.0", "-1.3"],
    )
    def test_sample_homodyne(self, beta, digest):
        ds = sample_homodyne(Coherent(beta), 0.8, self.N, 17)
        assert sha256(ds.x, ds.phi) == digest

    @pytest.mark.parametrize(
        "beta, digest",
        [
            (2.0, "e7d0c664d958824963dbaddb81aa3516b798b573263b6f71907e6b292728cdac"),
            (-1.3, "846daa349bac2a649d170df1b74a5f02833deb3936e913cca88ee9bbcc52c226"),
        ],
        ids=["2.0", "-1.3"],
    )
    def test_sample_fixed_phase(self, beta, digest):
        assert sha256(sample_fixed_phase(Coherent(beta), 0.8, self.N, 17, phi=0.7)) == digest


class TestLossyCoherentStreams:
    """Coherent states draw the lossy closed form: a coherent state stays coherent under loss.

    One normal of variance 1/(4 eta) per homodyne outcome and one
    Poisson(eta |beta|^2) per photocount, with no smear and no thinning; a
    count is the Poisson quantile of its block's own uniform.
    """

    BETA, ETA, N, SEED = 1.5 + 0.5j, 0.6, BLOCK_SIZE + 123, 17

    def _by_hand(self, purpose, draw):
        """draw(rng, count) for each block's own generator, concatenated per column."""
        blocks = []
        for block, start in enumerate(range(0, self.N, BLOCK_SIZE)):
            rng = block_generator(self.SEED, purpose, block)
            blocks.append(draw(rng, min(BLOCK_SIZE, self.N - start)))
        return [np.concatenate(column) for column in zip(*blocks)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_streams_rebuilt_by_hand(self, monkeypatch, workers):
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", workers)
        beta, eta, sigma = self.BETA, self.ETA, math.sqrt(0.25 / self.ETA)

        def scanned(rng, count):
            phi = rng.uniform(0.0, math.pi, count)
            return coherent_mean(beta, phi) + rng.normal(0.0, sigma, count), phi

        x, phi = self._by_hand(PURPOSE_HOMODYNE, scanned)
        ds = sample_homodyne(Coherent(beta), eta, self.N, self.SEED)
        assert np.array_equal(ds.x, x) and np.array_equal(ds.phi, phi)

        (fixed,) = self._by_hand(
            PURPOSE_FIXED_PHASE, lambda rng, count: (coherent_mean(beta, 0.7) + rng.normal(0.0, sigma, count),)
        )
        assert np.array_equal(sample_fixed_phase(Coherent(beta), eta, self.N, self.SEED, phi=0.7), fixed)

        from scipy.stats import poisson

        lam = eta * abs(beta) ** 2
        (counts,) = self._by_hand(PURPOSE_PHOTOCOUNT, lambda rng, count: (poisson.ppf(rng.random(count), lam),))
        assert np.array_equal(simulate_photocount(Coherent(beta), eta, self.N, self.SEED), counts)

    @pytest.mark.parametrize("eta", [0.3, 0.8])
    @pytest.mark.parametrize("fixed", [False, True], ids=["scanned", "fixed"])
    def test_standardized_residual_is_standard_normal(self, eta, fixed):
        # z = 2 sqrt(eta) (x - mean) is N(0, 1): E z = 0, E z^2 = 1 (Var z^2 = 2), E z^4 = 3 (Var z^4 = 96)
        n, beta = 200_000, -0.8 + 1.7j
        if fixed:
            phi = 1.1
            x = sample_fixed_phase(Coherent(beta), eta, n, 31, phi=phi)
        else:
            ds = sample_homodyne(Coherent(beta), eta, n, 31)
            x, phi = ds.x, ds.phi
        z = 2.0 * math.sqrt(eta) * (x - coherent_mean(beta, phi))
        for power, want, var in [(1, 0.0, 1.0), (2, 1.0, 2.0), (4, 3.0, 96.0)]:
            assert abs(np.mean(z**power) - want) < 5.0 * math.sqrt(var / n), power

    @pytest.mark.parametrize(
        "beta, scanned, fixed",
        [
            (
                1.5 + 0.5j,
                "f4fb0677b4f72d0fa585c84f81dd0cbb6a99cb1a91b909bbc7b4f5a94a5e2d14",
                "776cf3116b39050e525659ae24cd713124c15d7f27d755c0d78f6eb90dfe6592",
            ),
            (
                2.0,
                "b359d0e91cec127ac804412ba6049c4ff834598c0a3af2cc7f01e45a09499dbe",
                "6f78583870598162a1c37332d9453e771e14e1764ebfe72555761040e698fc01",
            ),
        ],
        ids=["complex", "real"],
    )
    def test_unit_efficiency_bytes(self, beta, scanned, fixed):
        # recorded with the two-draw sampler, whose eta = 1 draw is the closed form's; re-recorded when
        # the block streams moved from Philox to SFC64 and the scanned means to phase_trig's tangent
        # forms; numpy 2.4 on x86-64
        ds = sample_homodyne(Coherent(beta), 1.0, self.N, 17)
        assert sha256(ds.x, ds.phi) == scanned
        assert sha256(sample_fixed_phase(Coherent(beta), 1.0, self.N, 17, phi=0.7)) == fixed


def _generator_digests():
    n = 3 * BLOCK_SIZE + 5
    state = plus_state()
    ds = sample_homodyne(state, 0.8, n, 23)
    return [
        sha256(ds.x, ds.phi),
        sha256(sample_homodyne(Coherent(1.0 - 0.5j), 0.8, n, 23).x),
        sha256(sample_fixed_phase(state, 0.8, n, 23, phi=0.4)),
        sha256(simulate_photocount(Coherent(2.0), 0.8, n, 23), dtype="<i8"),
        sha256(simulate_heterodyne(Coherent(2.0), 0.8, n, 23), dtype="<c16"),
    ]


class TestRunBlocks:
    def test_output_independent_of_worker_count(self, monkeypatch):
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "1")
        serial = _generator_digests()
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "2")
        assert _generator_digests() == serial
        # More threads than cores, switching as often as the interpreter allows,
        # so that blocks interleave however they can.
        monkeypatch.setattr(homodyne, "worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _generator_digests() == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_block_filled_once(self, monkeypatch, workers):
        monkeypatch.setattr(homodyne, "worker_count", lambda: workers)
        n = 4 * BLOCK_SIZE + 7
        calls = []
        run_blocks(n, lambda block, count: calls.append((block, count)), lambda result: None)
        assert sorted(calls) == [(b, BLOCK_SIZE) for b in range(4)] + [(4, 7)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_consume_in_block_order_with_bounded_blocks_in_flight(self, monkeypatch, workers):
        monkeypatch.setattr(homodyne, "worker_count", lambda: workers)
        started, consumed, in_flight = [], [], []

        def draw(block, count):
            started.append(block)
            in_flight.append(len(started) - len(consumed))
            return block, count

        def consume(result):
            assert threading.current_thread() is threading.main_thread()
            consumed.append(result)

        run_blocks(9 * BLOCK_SIZE + 1, draw, consume)
        assert consumed == [(b, BLOCK_SIZE) for b in range(9)] + [(9, 1)]
        assert max(in_flight) <= 2 * workers

    def test_consume_error_stops_the_run(self, monkeypatch):
        monkeypatch.setattr(homodyne, "worker_count", lambda: 2)
        filled = []

        def consume(block):
            if block == 1:
                raise NumericRangeError("consume 1")

        with pytest.raises(NumericRangeError, match="consume 1"):
            run_blocks(40 * BLOCK_SIZE, lambda block, count: filled.append(block) or block, consume)
        assert len(filled) < 40

    def test_block_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(homodyne, "worker_count", lambda: 2)

        def draw(block, count):
            if block == 2:
                raise NumericRangeError("block 2")

        with pytest.raises(NumericRangeError, match="block 2"):
            run_blocks(3 * BLOCK_SIZE, draw, lambda result: None)

    def test_pool_threads_keep_the_callers_error_state(self, monkeypatch):
        # numpy keeps errstate in a context variable, which pool threads see only through run_blocks
        monkeypatch.setattr(homodyne, "worker_count", lambda: 2)

        def draw(block, count):
            return np.full(count, 1e308) * 10.0

        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            run_blocks(4 * BLOCK_SIZE, draw, lambda result: None)

    @pytest.mark.parametrize("slow", ["consume", "helper draws"])
    def test_output_independent_of_who_draws(self, monkeypatch, slow):
        # A slow consume lets helpers run ahead; slow helper draws leave most blocks to the caller.
        original, drawers = homodyne.run_blocks, []

        def paced(n, draw, consume):
            def draw_paced(block, count):
                caller = threading.current_thread() is threading.main_thread()
                drawers.append(caller)
                if slow == "helper draws" and not caller:
                    time.sleep(0.02)
                return draw(block, count)

            def consume_paced(result):
                if slow == "consume":
                    time.sleep(0.005)
                consume(result)

            original(n, draw_paced, consume_paced)

        monkeypatch.setattr(homodyne, "run_blocks", paced)
        digests = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(homodyne, "worker_count", lambda: workers)
            drawers.clear()
            digests[workers] = _generator_digests()
            assert set(drawers) == ({True} if workers == 1 else {True, False})  # caller, helpers
        assert digests[2] == digests[1] and digests[3] == digests[1]

    @staticmethod
    def _watched(draw):
        """draw wrapped to count the draws in progress and log every start and end."""
        lock, log = threading.Lock(), []
        running = [0]

        def watched(block, count):
            with lock:
                running[0] += 1
                log.append(("start", block))
            try:
                return draw(block, count)
            finally:
                with lock:
                    running[0] -= 1
                    log.append(("end", block))

        return watched, running, log

    @pytest.mark.parametrize("failing", ["helper draw", "caller draw", "consume"])
    def test_no_draw_outlives_a_failed_run(self, monkeypatch, failing):
        # The paces leave a helper drawing a later block when the failure is reached.
        monkeypatch.setattr(homodyne, "worker_count", lambda: 3)
        failed, late = [], threading.Event()

        def draw(block, count):
            caller = threading.current_thread() is threading.main_thread()
            if failing.endswith("draw") and not failed and block > 0 and caller == (failing == "caller draw"):
                failed.append(block)
                late.set()
                time.sleep(0.03)
                raise NumericRangeError(f"block {block}")
            if caller:
                time.sleep(0.002)
            elif failing == "consume" and block == 1:
                time.sleep(0.02)
            else:
                time.sleep(0.1 if late.is_set() or failing != "caller draw" else 0.01)
            return block

        def consume(block):
            if failing == "consume" and block == 1:
                raise NumericRangeError("consume 1")

        watched, running, log = self._watched(draw)
        with pytest.raises(NumericRangeError) as info:
            run_blocks(40 * BLOCK_SIZE, watched, consume)
        assert running[0] == 0
        seen = len(log)
        time.sleep(0.1)
        assert len(log) == seen  # nothing started or finished after the call
        assert str(info.value) == (f"block {failed[0]}" if failed else "consume 1")
        assert seen < 2 * 40  # the run stopped claiming blocks

    def test_first_failure_in_block_order_is_raised(self, monkeypatch):
        monkeypatch.setattr(homodyne, "worker_count", lambda: 3)

        def draw(block, count):
            if block == 1:
                time.sleep(0.05)  # fails after block 4 has
            if block in (1, 4):
                raise NumericRangeError(f"block {block}")
            return block

        watched, running, _ = self._watched(draw)
        with pytest.raises(NumericRangeError, match="block 1"):
            run_blocks(8 * BLOCK_SIZE, watched, lambda result: None)
        assert running[0] == 0

    def test_a_run_draws_on_at_most_workers_minus_one_helpers(self, monkeypatch):
        def drawers(workers):
            monkeypatch.setattr(homodyne, "worker_count", lambda: workers)
            threads = set()

            def draw(block, count):
                threads.add(threading.current_thread())
                time.sleep(0.002)

            watched, running, _ = self._watched(draw)
            run_blocks(12 * BLOCK_SIZE, watched, lambda result: time.sleep(0.002))
            assert running[0] == 0
            return threads - {threading.current_thread()}

        before = set(threading.enumerate())
        assert len(drawers(4)) <= 3
        assert len(drawers(2)) <= 1
        assert set(threading.enumerate()) == before

    def test_lowering_max_workers_between_runs_leaves_draws_to_the_caller(self, monkeypatch):
        threads = set()

        def draw(block, count):
            threads.add(threading.current_thread())

        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "2")
        run_blocks(6 * BLOCK_SIZE, draw, lambda result: None)
        threads.clear()
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "1")
        run_blocks(6 * BLOCK_SIZE, draw, lambda result: time.sleep(0.002))
        assert threads == {threading.current_thread()}

    def test_forked_child_inherits_no_helpers(self):
        # Helpers live only inside run_blocks: none is left in the parent to fork, and the
        # child's run starts and ends its own.
        code = textwrap.dedent(
            """
            import json, os, threading, time
            from tomonoise import Coherent, homodyne, sample_homodyne

            homodyne.worker_count = lambda: 3
            block_generator = homodyne.block_generator

            def helpers():
                return [t.name for t in threading.enumerate() if t.name.startswith("tomonoise-blocks-")]

            def record():
                drawers = set()

                def watched(seed, purpose, block):
                    drawers.add(threading.current_thread().name)
                    if threading.current_thread() is threading.main_thread():
                        time.sleep(0.05)  # leave later blocks to the helpers
                    return block_generator(seed, purpose, block)

                homodyne.block_generator = watched
                ds = sample_homodyne(Coherent(1.0 - 0.5j), 0.8, 3 * homodyne.BLOCK_SIZE + 5, 23)
                return ds.x.tobytes().hex() + ds.phi.tobytes().hex(), sorted(drawers - {"MainThread"})

            parent, _ = record()
            after_parent = helpers()
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    inherited = helpers()
                    child, drawers = record()
                    os.write(write, json.dumps([after_parent, inherited, drawers, helpers(), child == parent]).encode())
                finally:
                    os._exit(0)
            os.close(write)
            with os.fdopen(read) as pipe:
                print(pipe.read())
            os.waitpid(pid, 0)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(homodyne.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        after_parent, inherited, drawers, after_child, same_bytes = json.loads(run.stdout)
        assert after_parent == [] and inherited == [] and after_child == []
        assert drawers and all(name.startswith("tomonoise-blocks-") for name in drawers)
        assert same_bytes

    def test_worker_count(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        monkeypatch.delenv("TOMONOISE_MAX_WORKERS", raising=False)
        assert worker_count() == cpus
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", "1")
        assert worker_count() == 1
        # A huge request is capped at the CPUs the process may use; no pool is started here.
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", str(10**9))
        assert worker_count() == cpus

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_worker_count_rejects(self, monkeypatch, value):
        monkeypatch.setenv("TOMONOISE_MAX_WORKERS", value)
        with pytest.raises(ValidationError, match="TOMONOISE_MAX_WORKERS"):
            worker_count()
