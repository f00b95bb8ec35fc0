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
    PURPOSE_HOMODYNE,
    QuadratureGridSampler,
    block_generator,
    run_blocks,
    worker_count,
)
from tomonoise.states import GRID_MASS_TOL


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
    """Phase-independent and closed-form paths keep the bytes recorded before the table search.

    These are the inputs of the Fock dataset runs and the coherent comparisons.
    The direct simulators and the CSV writers keep the bytes recorded before the
    thread pool of run_blocks and the joined-row writer replaced their loops and np.savetxt.
    Hashes were recorded with numpy 2.4 on x86-64.
    """

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "state, digest",
        [
            (Fock(3), "01c789d5ab2d914b05deeac16fbb43430bf44d5a8bd09cd7805f56847e4ac44f"),
            (
                Mixed(np.diag([0.5, 0.3, 0.2])),
                "855dd1f07268179df7d14c7184be7223149f3a8d808abcdb121a4432f651cecd",
            ),
            (Coherent(1.5 + 0.5j), "4215278172de7a458051b710bfac04455d3128161f890fe5df6dcafd79aeacc9"),
        ],
        ids=["fock3", "diagonal", "coherent"],
    )
    def test_sample_homodyne(self, state, digest):
        ds = sample_homodyne(state, 0.8, self.N, 17)
        assert sha256(ds.x, ds.phi) == digest

    @pytest.mark.parametrize(
        "state, digest",
        [
            (Fock(3), "a80ffab7c8e59a53076ceba1d8b18c2547afca43b0d7848a9771f4791679ff0e"),
            (Coherent(1.5 + 0.5j), "c37d211c0f009456f551626570c658c269ae362e86e8c69a62e46fe00b6c971f"),
        ],
        ids=["fock3", "coherent"],
    )
    def test_sample_fixed_phase(self, state, digest):
        assert sha256(sample_fixed_phase(state, 0.8, self.N, 17, phi=0.7)) == digest

    @pytest.mark.parametrize(
        "state, eta, digest",
        [
            (Coherent(1.5 + 0.5j), 0.8, "217170c475fab9184c6c70e8fd059504c35cd5e58765b3b14f2979da58bb9d19"),
            (Coherent(1.5 + 0.5j), 1.0, "511e88821962fe43ebe144c4dbeefbbf2773b599c16ae5cd15d1bde697d62a45"),
            (Fock(3), 0.8, "43f65b8c56f1338c9eec409020f5002b6bb6ac029f5656f642befba8dfe63908"),
            (
                Mixed(np.diag([0.5, 0.3, 0.2])),
                0.8,
                "e8f7613c9ed68a57e72e0d93785af4549660710533f4d06ccb839d60c3545572",
            ),
        ],
        ids=["coherent", "coherent-eta1", "fock3", "diagonal"],
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
        assert file_sha256(path) == "09e69a420e0a17e0fbfdbd8101a6091b394b314d794b3e86b6aa8935eac01217"


class TestJsonPins:
    """JSON dataset files keep the bytes of json.dumps over the whole document.

    Recorded before save_dataset_json wrote its rows slice by slice, with numpy
    2.4 on x86-64. The sizes cross the 4096-row slice edge and the block edge.
    """

    @pytest.mark.parametrize(
        "state, n, digest",
        [
            (Fock(3), 10**5, "4ae28ae24151ebf1cd999c0d0da679d87b31b36361af9f98826e1bdf146f41fe"),
            (Coherent(1.5 + 0.5j), 70001, "6f13c9fddb18439c414548e5a3e01feee4879f1576975751fb6babac6be2f0d8"),
            (Coherent(1.5 + 0.5j), 1, "bfe06b44661710a1982e09ec9d0e046b889fc49a22f5a1b0075dec2f7141c625"),
            (Coherent(1.5 + 0.5j), 4096, "8a1077235f878218b5ca4ce986807ac383ce7c19d7727d1a4b325c79aef4b09d"),
            (Coherent(1.5 + 0.5j), 4097, "1fbdae06b65084f1e96286445bf02a03128b56ce532e29c50170d0cd0097af98"),
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
    """Coherent states with a real amplitude keep their bytes now that their mean takes np.cos.

    Recorded before coherent_mean dropped the complex exponential for a real
    amplitude, with numpy 2.4 on x86-64.
    """

    N = BLOCK_SIZE + 123

    @pytest.mark.parametrize(
        "beta, digest",
        [
            (2.0, "da668d9d55a8031e0141bec20a245bf96d49d43235fa36b15dda7b9bb74d81a8"),
            (-1.3, "d9e7eef54f8e24d20dc69e084ceb1993f2945b01f535a307b8fc68548feed321"),
        ],
    )
    def test_sample_homodyne(self, beta, digest):
        ds = sample_homodyne(Coherent(beta), 0.8, self.N, 17)
        assert sha256(ds.x, ds.phi) == digest

    @pytest.mark.parametrize(
        "beta, digest",
        [
            (2.0, "0dcf9cdd336399844f7604a7fa06c2a8f9e37fef922ad011f7aa5dcc274cf786"),
            (-1.3, "0d8d382e1fa1611ad2c9f2d62a8d4ce6e3fbc06921886395d315d936e6ecacb6"),
        ],
    )
    def test_sample_fixed_phase(self, beta, digest):
        assert sha256(sample_fixed_phase(Coherent(beta), 0.8, self.N, 17, phi=0.7)) == digest


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
