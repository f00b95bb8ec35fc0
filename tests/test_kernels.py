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
        # Phases in [0, pi] take phase_trig, within 4 ulp of the exact cos and sin, so each part of
        # 2 x exp(i phi) lies within |2 x| times 4 of those ulps, plus half an ulp for the product,
        # of the complex exponential form taken in long double.
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 2.0, 1 << 20)
        phi = rng.uniform(0.0, math.pi, 1 << 20)
        x[:3], phi[1:4] = 0.0, 0.0
        got = kernel_observable(ComplexAmplitude(), 0.8, x, phi)
        assert got.dtype == complex
        wide = phi.astype(np.longdouble)
        exact = 2.0 * x.astype(np.longdouble) * np.exp(1j * wide)
        for part, want, trig in ((got.real, exact.real, np.cos(wide)), (got.imag, exact.imag, np.sin(wide))):
            tol = 4.0 * np.abs(2.0 * x) * np.spacing(np.abs(trig.astype(float)))
            tol += 0.5 * np.spacing(np.abs(want.astype(float)))
            assert np.all(np.abs(part - want) <= tol)
        # outside [0, pi] the bits of the complex exponential form, which the cos/sin form replaced, hold
        outside = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 1 << 16)
        got = kernel_observable(ComplexAmplitude(), 0.8, x[: 1 << 16], outside)
        assert np.array_equal(got, 2.0 * x[: 1 << 16] * np.exp(1j * outside))
        assert kernel_observable(ComplexAmplitude(), 0.8, 0.0, 0.0) == 0.0

    def test_real_field_within_ulps_of_the_exact_value(self):
        rng = np.random.default_rng(9)
        x, phi = rng.normal(0.0, 2.0, 1 << 16), rng.uniform(0.0, math.pi, 1 << 16)
        wide = phi.astype(np.longdouble)
        cos = np.cos(wide)
        want = 2.0 * x.astype(np.longdouble) * cos
        tol = 4.0 * np.abs(2.0 * x) * np.spacing(np.abs(cos.astype(float)))
        tol += 0.5 * np.spacing(np.abs(want.astype(float)))
        assert np.all(np.abs(kernel_observable(RealField(), 0.8, x, phi) - want) <= tol)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 20])
    def test_diagonal_monomial_keeps_the_complex_exponential_bits(self, order):
        # n == m skips exp(0j phi); the expression it replaced, kept verbatim, at x = +-0, signs of
        # zero in h, huge x whose h overflows, NaN x, and a phi outside [0, pi]
        def reference(x, phi, eta):
            s = 2 * order
            scale = math.sqrt((2.0 * eta) ** s) * math.comb(s, order)
            return np.exp(1j * (order - order) * phi) * hermite(s, math.sqrt(2.0 * eta) * x) / scale

        rng = np.random.default_rng(10)
        x = np.concatenate([[0.0, -0.0, 1e300, -1e300, 1e8, math.nan, 5e-324], rng.normal(0.0, 2.0, 4096)])
        phi = np.concatenate([[0.0, -0.0, 1.0, 2.0, -3.0, 0.5, 7.0], rng.uniform(0.0, math.pi, 4096)])
        with np.errstate(all="ignore"):
            for eta in (1.0, 0.8, 1e-300):
                got, want = kernel_monomial(order, order, eta, x, phi), reference(x, phi, eta)
                assert got.dtype == want.dtype == complex
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), eta
                for xs, ps in ((-0.0, 0.3), (1.5, phi[:9]), (x[:9], 0.3)):
                    got, want = kernel_monomial(order, order, eta, xs, ps), reference(xs, ps, eta)
                    assert np.array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64))
            # a non-finite phi makes the factor NaN: the complex exponential path keeps it
            got = kernel_monomial(order, order, 0.8, 1.0, np.array([math.nan, math.inf]))
            assert np.isnan(got).all()

    def test_phase_keeps_the_two_where_bits(self):
        # one subtraction of pi times the mask; the two np.where passes it replaced, kept verbatim,
        # at x = +-0, NaN and infinite x, phi = 0 and +-0, tiny phi and phi outside [0, pi]
        def reference(x, phi):
            vals = np.where(x >= 0.0, phi, phi - math.pi)
            return np.where(vals <= -math.pi, vals + 2.0 * math.pi, vals)

        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0, -0.0, math.nan, -1.0, 1.0, -math.inf, -0.0, -2.0, -1.0], rng.normal(size=4096)])
        phi = np.concatenate([[0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 1e-17, 2e-16, -4.0], rng.uniform(-8.0, 8.0, 4096)])
        got = kernel_observable(Phase(), 1.0, x, phi)
        assert np.array_equal(got.view(np.uint64), reference(x, phi).view(np.uint64))
        for xs, ps in ((0.0, 0.0), (-0.0, 0.0), (math.nan, 0.0), (-1.0, 0.0), (-1.0, phi[:9]), (x[:9], 0.0)):
            got, want = kernel_observable(Phase(), 1.0, xs, ps), reference(np.asarray(xs), np.asarray(ps))
            assert np.array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64))
            assert np.ndim(got) == np.ndim(want)


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
        assert Intensity().real
        assert Phase().real
        assert Monomial(2, 2).real
        assert not Monomial(0, 1).real
        assert not ComplexAmplitude().real
        herm = Polynomial.from_coeffs({(0, 1): 0.5 + 0.5j, (1, 0): 0.5 - 0.5j})
        assert herm.real
        assert not Polynomial.from_coeffs({(0, 2): 1.0}).real


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


class TestRepeatedTerms:
    # a repeated (n, m) was once kept as its last term only, so its other coefficients were lost

    def test_constructor(self):
        with pytest.raises(ValidationError, match=r"\(n, m\) = \(1, 1\) is repeated"):
            Polynomial(((1, 1, 1.0), (0, 0, 1.0), (1, 1, 2.0)))

    def test_constructor_after_normalising(self):
        with pytest.raises(ValidationError, match="repeated"):
            Polynomial(((1.0, 1, 1.0), (1, 1, 2.0)))

    def test_from_coeffs_pairs_equal_once_normalised(self):
        with pytest.raises(ValidationError, match=r"\(n, m\) = \(1, 1\) is repeated"):
            Polynomial.from_coeffs([((1.0, 1), 1.0), ((1, 1), 2.0)])

    def test_from_coeffs_sorts_pairs_like_a_map(self):
        pairs = [((1, 1), 1j), ((0, 1), 0.5), ((1.0, 0), 0.5)]
        assert Polynomial.from_coeffs(pairs) == Polynomial.from_coeffs(dict(pairs))
        assert [term[:2] for term in Polynomial.from_coeffs(pairs).terms] == [(0, 1), (1, 0), (1, 1)]

    def test_json(self):
        text = '{"observable":"polynomial","terms":[{"n":1,"m":1,"c":[1,0]},{"n":1,"m":1,"c":[2,0]}]}'
        with pytest.raises(ValidationError, match=r"\(n, m\) = \(1, 1\) is repeated"):
            observable_from_json(text)
