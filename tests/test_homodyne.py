import hashlib
import json
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.stats import kstest

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
from tomonoise.states import GRID_MASS_TOL, coherent_mean


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

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_high_fock_levels_fail_the_mass_check(self, n):
        # below the turning-point cut the verdict is still the grid's mass
        with pytest.raises(NumericRangeError, match="holds only mass"):
            QuadratureGridSampler(Fock(n))

    @pytest.mark.parametrize("n", [714, 739])
    def test_levels_beyond_reach_fail_even_when_the_mass_passes(self, n):
        # psi_n seeded with a subnormal exp(-x^2) past |x| = 26.6 is garbage, not zero:
        # Fock(739)'s grid mass exceeds 1 by 2.7e-3
        with pytest.raises(NumericRangeError, match="above 707"):
            QuadratureGridSampler(Fock(n))

    def test_highest_level_within_reach_builds(self):
        assert QuadratureGridSampler(Fock(707)).mass == pytest.approx(1.0, abs=GRID_MASS_TOL)

    def test_reach_judges_the_state_after_loss(self):
        # Fock(720) lies past level 707, but after a loss channel of 0.5 its weight sits near
        # level 360: the sampler and the density both take it, and both refuse it at eta = 1
        grid = np.linspace(-60.0, 60.0, 24_001)
        assert trapezoid(quadrature_pdf(Fock(720), 0.3, 0.5, grid), grid) == pytest.approx(1.0, abs=1e-9)
        x2 = sample_homodyne(Fock(720), 0.5, 400_000, 7).x ** 2
        # <x^2> of the rescaled outcome is (2 eta n + 1)/(4 eta) = 360.5
        assert abs(x2.mean() - 360.5) < 5.0 * x2.std() / math.sqrt(x2.size)
        messages = []
        for refuse in (lambda: sample_homodyne(Fock(720), 1.0, 10, 1), lambda: quadrature_pdf(Fock(720), 0.3, 1.0, 0.0)):
            with pytest.raises(NumericRangeError, match="above 707") as info:
                refuse()
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("n", [2834, 10**6])
    def test_huge_fock_level_refused_before_allocating(self, n):
        # Fock(10**6) would need a 33 GB Hermite table
        tracemalloc.start()
        try:
            with pytest.raises(NumericRangeError, match="turning point"):
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


def sha256(*arrays, dtype="<f8"):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return digest.hexdigest()


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
    Hashes were recorded with numpy 2.4 on x86-64.
    """

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "state, digest",
        [
            (Fock(3), "b4862aa92bc182e32630a9f6e73651ff77308329ea8d869940bf0c7346a108c7"),
            (
                Mixed(np.diag([0.5, 0.3, 0.2])),
                "f195784ad0efa5243bdc85c689c212e106337cda852742df564a367877552149",
            ),
            (Coherent(1.5 + 0.5j), "2c92a5d2e28902f9322225728f891f23e0a7fec18fee2db210b8974a12482a91"),
        ],
        ids=["fock3", "diagonal", "coherent"],
    )
    def test_sample_homodyne(self, state, digest):
        ds = sample_homodyne(state, 0.8, self.N, 17)
        assert sha256(ds.x, ds.phi) == digest

    @pytest.mark.parametrize(
        "state, digest",
        [
            (Fock(3), "4ccbdf7692f3c32b3796a879e3f74f9ec63952bb8bd8c077b29ed456e6cc3371"),
            (Coherent(1.5 + 0.5j), "c4e30116b342b44e165df70679cf0b26512c616268d55567f5624b918ff58f37"),
        ],
        ids=["fock3", "coherent"],
    )
    def test_sample_fixed_phase(self, state, digest):
        assert sha256(sample_fixed_phase(state, 0.8, self.N, 17, phi=0.7)) == digest

    @pytest.mark.parametrize(
        "state, eta, digest",
        [
            (Coherent(1.5 + 0.5j), 0.8, "e8e01f07b80acad1200afae9ac6073ed0d3f903c414cf76213f60864cfb2aec3"),
            (Coherent(1.5 + 0.5j), 1.0, "a8bb3275fd2bd4a2866e26174ef364f5094e4a852d0ffb6012e295954b74cbce"),
            (Fock(3), 0.8, "43f65b8c56f1338c9eec409020f5002b6bb6ac029f5656f642befba8dfe63908"),
            # n (1 - eta) = 40 takes numpy's BTPE binomial, where Fock(3) takes inversion
            (Fock(200), 0.8, "8b5e682f0166edeb98ff6614eea25b12dabebffab2e449491b07d9f5d8d4a9b2"),
            (
                Mixed(np.diag([0.5, 0.3, 0.2])),
                0.8,
                "4d647d36b26b7f5c57bff973b2729ad7016b39fd5a89804af7691b92a7843ca9",
            ),
        ],
        ids=["coherent", "coherent-eta1", "fock3", "fock200", "diagonal"],
    )
    def test_simulate_photocount(self, state, eta, digest):
        assert sha256(simulate_photocount(state, eta, self.N, 17), dtype="<i8") == digest

    def test_simulate_heterodyne(self):
        alphas = simulate_heterodyne(Coherent(1.5 + 0.5j), 0.8, self.N, 17)
        digest = "334914e931d96a7fbe252aba02702c496994cd3fd8c50f56b113f1ef9862b4ad"
        assert sha256(alphas, dtype="<c16") == digest

    def test_csv_files(self, tmp_path):
        state, path = Coherent(1.5 + 0.5j), tmp_path / "r.csv"
        save_dataset_csv(sample_homodyne(state, 0.8, 20_000, 17), path)
        assert file_sha256(path) == "73736dc11752424d3205d2a29fb45cca9c1f69e3bdc31b79c612a96bab3a4e74"


class TestJsonPins:
    """JSON dataset files keep the bytes of json.dumps over the whole document.

    Recorded before save_dataset_json wrote its rows slice by slice, with numpy
    2.4 on x86-64. The sizes cross the 4096-row slice edge and the block edge.
    The coherent files were re-recorded, with the same writer, when coherent
    states began to draw their lossy outcomes as one normal of variance 1/(4 eta),
    and the Fock(3) file when number-basis states began to draw from the state
    after a loss channel.
    """

    @pytest.mark.parametrize(
        "state, n, digest",
        [
            (Fock(3), 10**5, "b5481de7c5bb0bb673b2ca07905ef1884ebc3f93dd5a17e6baa0e9c74ba5e194"),
            (Coherent(1.5 + 0.5j), 70001, "1848ab8574c2bb757d58a989974985c1376345fe3085baeec54f13d990f1d73a"),
            (Coherent(1.5 + 0.5j), 1, "d3dc8829ed2d766e79336d219137d4b9e049a8b664902103b0b7b724513a3bee"),
            (Coherent(1.5 + 0.5j), 4096, "ea246d0c1b8fa3d49f156126a3d016bde04a578b2bb07e21129c36f6acd3afae"),
            (Coherent(1.5 + 0.5j), 4097, "b84f4e531c8b78a554da7f1bd8a95ee56249f26dca6220bee2b0f6d573afbfb4"),
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
    draw their lossy outcomes as one normal of variance 1/(4 eta), with numpy
    2.4 on x86-64.
    """

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "beta, digest",
        [
            (2.0, "95c1b97db426d868813edfe18daeff4e36b379487b3dd80730dad180d84b8c62"),
            (-1.3, "dfaf4c0e949fd8014e6f20ed1006fe42d56a47f42c97317cc2f99b5379830e0c"),
        ],
        ids=["2.0", "-1.3"],
    )
    def test_sample_homodyne(self, beta, digest):
        ds = sample_homodyne(Coherent(beta), 0.8, self.N, 17)
        assert sha256(ds.x, ds.phi) == digest

    @pytest.mark.parametrize(
        "beta, digest",
        [
            (2.0, "d1b40010a3e8c2b4f2c1c990b37b4bf1de6a4ee4d2265ca8123f269f1f19e152"),
            (-1.3, "eaf5dad64dfb0356612d49e3a61a93ecc6fcdfd22c0c2f29f7baceb6824696cc"),
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
                "6267360a47d06e2fcb0a027ceb3fb44e1ecbd6fb1c0e85cd617514aa1f93cd64",
                "b7f0ccd953f4f1bef03e625e9662fba31619ddfdbd74c1c7110f41b9f16e0118",
            ),
            (
                2.0,
                "f725e45b5fb317e736f7d36332778edc4e40f5fb7a4ed7cef5a932e50abffc03",
                "58d22a40e3b2d65a66eb4d95a2ab131b50e2cdfc9e0ba81bd1a862df1b638c3a",
            ),
        ],
        ids=["complex", "real"],
    )
    def test_unit_efficiency_bytes(self, beta, scanned, fixed):
        # recorded with the two-draw sampler, whose eta = 1 draw is the closed form's; numpy 2.4 on x86-64
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
