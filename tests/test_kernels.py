import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tomonoise import (
    ComplexAmplitude,
    Intensity,
    Monomial,
    Phase,
    Polynomial,
    RealField,
    hermite,
    kernel_monomial,
    kernel_observable,
    kernel_polynomial,
    observable_from_json,
    observable_to_json,
    square_kernel_monomial,
)
from tomonoise.errors import NumericRangeError, ValidationError
from tomonoise.kernels import is_real_observable


class TestHermite:
    def test_low_orders(self):
        assert hermite(0, 3.7) == 1.0
        assert hermite(2, 1.0) == pytest.approx(2.0)  # 4y^2 - 2

    def test_order_four_explicit_coefficients(self):
        # oracle: 16 y^4 - 48 y^2 + 12 at y = 0.5
        y = 0.5
        assert hermite(4, y) == pytest.approx(16 * y**4 - 48 * y**2 + 12)
        assert hermite(4, 0.5) == pytest.approx(1.0)

    def test_order_cap(self):
        with pytest.raises(NumericRangeError):
            hermite(41, 0.0)
        with pytest.raises(NumericRangeError):
            hermite(-1, 0.0)


class TestMonomialKernel:
    def test_identity_operator(self):
        assert kernel_monomial(0, 0, 0.8, 1.3, 0.4) == pytest.approx(1.0)

    def test_annihilation_kernel(self):
        x, phi = 0.9, 0.7
        got = kernel_monomial(0, 1, 0.6, x, phi)
        assert got == pytest.approx(2 * x * np.exp(1j * phi))

    def test_number_kernel(self):
        x, phi, eta = 1.1, 0.2, 0.8
        assert kernel_monomial(1, 1, eta, x, phi) == pytest.approx(2 * x**2 - 1 / (2 * eta))

    @given(
        n=st.integers(0, 5),
        m=st.integers(0, 5),
        eta=st.sampled_from([1.0, 0.8, 0.55]),
        x=st.floats(-5, 5),
        phi=st.floats(0, math.pi - 1e-9),
    )
    def test_conjugation_symmetry(self, n, m, eta, x, phi):
        a = kernel_monomial(n, m, eta, x, phi)
        b = kernel_monomial(m, n, eta, x, phi)
        assert a == pytest.approx(b.conjugate(), abs=1e-9 * (1 + abs(a)))

    def test_order_cap(self):
        with pytest.raises(NumericRangeError):
            kernel_monomial(21, 20, 1.0, 0.0, 0.0)


class TestObservableKernels:
    def test_intensity_value(self):
        assert kernel_observable(Intensity(), 1.0, 1.0, 0.123) == pytest.approx(1.5)

    def test_real_field_vanishes_at_quarter_turn(self):
        assert kernel_observable(RealField(), 1.0, 0.7, math.pi / 2) == pytest.approx(0.0)

    def test_phase_branch_for_negative_x(self):
        assert kernel_observable(Phase(), 1.0, -1.0, 0.3) == pytest.approx(0.3 - math.pi)

    def test_phase_range_and_degenerate_value(self):
        x = np.array([0.5, -0.5, 0.0, -2.0])
        phi = np.array([0.0, 0.0, 1.0, 3.0])
        w = kernel_observable(Phase(), 1.0, x, phi)
        assert ((w > -math.pi) & (w <= math.pi)).all()
        assert w[1] == pytest.approx(math.pi)  # arg of a negative real is +pi
        assert w[2] == pytest.approx(1.0)  # the degenerate x = 0 takes phi

    def test_complex_amplitude(self):
        got = kernel_observable(ComplexAmplitude(), 0.5, 0.8, 1.1)
        assert got == pytest.approx(1.6 * np.exp(1.1j))

    def test_complex_amplitude_equals_complex_exponential_form(self):
        # the expression the real cos/sin form replaced, kept verbatim
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 2.0, 1 << 20)
        phi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 1 << 20)
        x[:3], phi[1:4] = 0.0, 0.0
        got = kernel_observable(ComplexAmplitude(), 0.8, x, phi)
        assert got.dtype == complex and np.array_equal(got, 2.0 * x * np.exp(1j * phi))
        assert kernel_observable(ComplexAmplitude(), 0.8, 0.0, 0.0) == 0.0


class TestPolynomialKernel:
    def test_number_operator_matches_intensity(self):
        x = np.linspace(-3, 3, 11)
        phi = np.linspace(0, 3, 11)
        got = kernel_polynomial({(1, 1): 1.0}, 0.7, x, phi)
        want = kernel_observable(Intensity(), 0.7, x, phi)
        assert np.allclose(got, want)

    def test_quadrature_combination(self):
        x, phi = 0.9, 0.4
        got = kernel_polynomial({(0, 1): 0.5, (1, 0): 0.5}, 1.0, x, phi)
        assert got == pytest.approx(2 * x * math.cos(phi))

    def test_fourth_hermite_at_origin(self):
        # (2,2) term at x = 0: H4(0) / (4 * C(4,2)) = 12/24
        got = kernel_polynomial({(2, 2): 1.0}, 1.0, 0.0, 0.9)
        assert got == pytest.approx(0.5)

    def test_empty_map_rejected(self):
        with pytest.raises(ValidationError):
            kernel_polynomial({}, 1.0, 0.0, 0.0)


class TestSquareKernel:
    def test_identity(self):
        assert square_kernel_monomial(0, 0, 0.9, 2.2, 0.1) == pytest.approx(1.0)

    def test_number_kernel_square_value(self):
        assert square_kernel_monomial(1, 1, 1.0, 1.0, 0.77) == pytest.approx(2.25)

    def test_against_direct_square_(self):
        xs = np.linspace(-5, 5, 501)
        for eta in (1.0, 0.7, 0.5):
            direct = kernel_monomial(0, 2, eta, xs, 0.3) ** 2
            reduced = square_kernel_monomial(0, 2, eta, xs, 0.3)
            scale = np.abs(direct).max()
            assert np.max(np.abs(direct - reduced)) / scale < 1e-9

    @given(
        n=st.integers(0, 5),
        m=st.integers(0, 5),
        eta=st.sampled_from([1.0, 0.7, 0.5]),
        phi=st.floats(0, math.pi - 1e-9),
    )
    def test_square_identity_property(self, n, m, eta, phi):
        xs = np.linspace(-5, 5, 101)
        direct = kernel_monomial(n, m, eta, xs, phi) ** 2
        reduced = square_kernel_monomial(n, m, eta, xs, phi)
        scale = max(np.abs(direct).max(), 1.0)
        assert np.max(np.abs(direct - reduced)) / scale < 1e-9

    def test_order_cap(self):
        with pytest.raises(NumericRangeError):
            square_kernel_monomial(11, 10, 1.0, 0.0, 0.0)


class TestUnbiasedness:
    # cross-module invariant: kernel averages over homodyne data reproduce
    # the exact normally ordered moments

    @pytest.mark.parametrize("state", ["coherent", "fock"])
    @pytest.mark.parametrize("eta", [1.0, 0.8, 0.6])
    def test_monomial_averages_match_moments(self, state, eta):
        from tomonoise import Coherent, Fock, normal_moment, sample_homodyne

        st = Coherent(1.2 + 0.4j) if state == "coherent" else Fock(2)
        ds = sample_homodyne(st, eta, 2 * 10**5, hash((state, eta)) % 2**31)
        pairs = [(n, m) for n in range(5) for m in range(5) if 0 < n + m <= 4]
        for n, m in pairs:
            vals = kernel_monomial(n, m, eta, ds.x, ds.phi)
            want = normal_moment(st, n, m)
            for part in (np.real, np.imag):
                se = part(vals).std() / math.sqrt(ds.n)
                assert abs(part(vals).mean() - part(want)) < 4 * se + 1e-12, (n, m)


class TestRealness:
    def test_classification(self):
        assert is_real_observable(Intensity())
        assert is_real_observable(Phase())
        assert is_real_observable(Monomial(2, 2))
        assert not is_real_observable(Monomial(0, 1))
        assert not is_real_observable(ComplexAmplitude())
        herm = Polynomial.from_coeffs({(0, 1): 0.5 + 0.5j, (1, 0): 0.5 - 0.5j})
        assert is_real_observable(herm)
        assert not is_real_observable(Polynomial.from_coeffs({(0, 2): 1.0}))


class TestJson:
    @pytest.mark.parametrize(
        "obs",
        [
            Intensity(),
            RealField(),
            ComplexAmplitude(),
            Phase(),
            Monomial(2, 3),
            Polynomial.from_coeffs({(0, 1): 0.5, (1, 0): 0.5, (1, 1): 1j}),
        ],
    )
    def test_round_trip(self, obs):
        assert observable_from_json(observable_to_json(obs)) == obs

    def test_name_shortcut(self):
        assert observable_from_json("intensity") == Intensity()

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            observable_from_json("momentum")
