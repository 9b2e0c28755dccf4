import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import mathieu_a, mathieu_b

from hillmap.errors import DomainError
from hillmap.maps import (
    MapDescriptor,
    _mathieu_lambda_top,
    conj_cosine,
    conj_cosine_inv,
    conj_mandelbrot,
    conj_mandelbrot_inv,
    digit_shift_predict,
    eval_map,
    gen_logistic_coeffs,
    iterate,
    mary_digits,
    mathieu_formula,
    mathieu_lambda0,
    sine_formula,
    trace_poly,
)

EPS = float(np.finfo(float).eps)


def falling_factorial_coeffs(m):
    """Independent construction of the trace polynomial: the coefficient of
    x^(m-2r) is (-1)^r m (m-r-1)! / (r! (m-2r)!)."""
    coeffs = [0] * (m + 1)
    for r in range(m // 2 + 1):
        c = (-1) ** r * m * math.factorial(m - r - 1) // (
            math.factorial(r) * math.factorial(m - 2 * r)
        )
        coeffs[2 * r] = c
    return tuple(coeffs)


class TestGenLogisticCoeffs:
    def test_known_low_orders(self):
        assert gen_logistic_coeffs(2).coefficients == (1, 0, -2)
        assert gen_logistic_coeffs(3).coefficients == (1, 0, -3, 0)
        assert gen_logistic_coeffs(5).coefficients == (1, 0, -5, 0, 5, 0)

    def test_matches_falling_factorial_formula(self):
        for m in range(1, 11):
            assert gen_logistic_coeffs(m).coefficients == falling_factorial_coeffs(m)

    def test_monic_and_sparse(self):
        for m in range(1, 9):
            coeffs = gen_logistic_coeffs(m).coefficients
            assert coeffs[0] == 1
            # only powers x^(m-2r) appear
            assert all(c == 0 for c in coeffs[1::2])

    def test_trace_recursion_exact_for_integer_matrices(self):
        # integer det-1 matrices make trace(M^2) = trace(M)^2 - 2 exact
        mats = [np.array([[2, 3], [1, 2]]), np.array([[5, 7], [2, 3]]),
                np.array([[1, 0], [4, 1]])]
        f2 = gen_logistic_coeffs(2)
        for M in mats:
            assert round(np.linalg.det(M)) == 1
            assert np.trace(M @ M) == f2(np.trace(M))


class TestTracePoly:
    @given(st.integers(2, 128), st.floats(-2.0, 2.0))
    def test_matches_multiple_angle_formula(self, m, x):
        # f_m(2 cos t) = 2 cos(m t); the recurrence's error grows like m^2 eps
        exact = 2.0 * math.cos(m * math.acos(x / 2.0))
        assert abs(trace_poly(m, x) - exact) <= 4.0 * m * m * EPS

    def test_first_order_is_identity(self):
        xs = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(trace_poly(1, xs), xs)
        assert np.array_equal(trace_poly(1, xs, derivative=True), np.ones(9))

    def test_exact_on_fractions(self):
        xs = [Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(2), Fraction(-19, 10)]
        for m in range(1, 16):
            coeffs = gen_logistic_coeffs(m).coefficients
            # the derivative of the coefficient polynomial, term by term
            dcoeffs = [c * (m - i) for i, c in enumerate(coeffs[:-1])]
            for x in xs:
                assert trace_poly(m, x) == gen_logistic_coeffs(m)(x)
                want = sum(c * x ** (m - 1 - i) for i, c in enumerate(dcoeffs))
                assert trace_poly(m, x, derivative=True) == want
                assert isinstance(trace_poly(m, x, derivative=True), Fraction)

    def test_derivative_closed_form(self):
        # f_m'(2 cos t) = m sin(m t) / sin t, away from x = +-2
        ts = np.linspace(0.05, math.pi - 0.05, 1001)
        for m in (2, 3, 5, 17, 64, 128):
            got = trace_poly(m, 2.0 * np.cos(ts), derivative=True)
            want = m * np.sin(m * ts) / np.sin(ts)
            assert np.max(np.abs(got - want)) <= 1e-11 * m * m

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            trace_poly(0, 0.5)


class TestEvalMap:
    def test_logistic_peak(self):
        assert eval_map(MapDescriptor.logistic(4.0), 0.5) == 1.0

    def test_tent_third_piece(self):
        assert eval_map(MapDescriptor.tent(3), 1.0) == 1.0

    def test_gen_logistic_multiple_angle_point(self):
        md = MapDescriptor.gen_logistic(4)
        x = 2.0 * math.cos(math.pi / 4)
        assert abs(eval_map(md, x) - (-2.0)) < 1e-12
        # cross-check by Horner on the published coefficients
        assert abs(eval_map(md, x) - (x**4 - 4 * x**2 + 2)) < 1e-12

    def test_tent_breakpoints_consistent(self):
        md = MapDescriptor.tent(4)
        for j in range(5):
            x = j / 4
            left = eval_map(md, x)
            assert left in (0.0, 1.0)

    def test_fold_accepts_large_x(self):
        md = MapDescriptor.fold(2)
        assert eval_map(md, 3.25) == eval_map(md, 0.25) == 0.5

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_map(MapDescriptor.tent(2), 1.5)

    @pytest.mark.parametrize("m", [24, 64])
    def test_gen_logistic_high_order(self, m):
        # Horner on the monomial coefficients was off by 8e-8 at m = 24
        t = np.linspace(0.0, math.pi, 4001)
        got = eval_map(MapDescriptor.gen_logistic(m), 2.0 * np.cos(t))
        assert np.max(np.abs(got - 2.0 * np.cos(m * t))) <= 4.0 * m * m * EPS

    def test_array_evaluation(self):
        md = MapDescriptor.gen_logistic(3)
        xs = np.linspace(-2, 2, 11)
        assert np.allclose(eval_map(md, xs), xs**3 - 3 * xs)


class TestIterate:
    def test_logistic_fixed_point(self):
        orbit = iterate(MapDescriptor.logistic(4.0), 0.75, 5)
        assert np.array_equal(orbit.values, np.full(6, 0.75))

    def test_gen_logistic_fixed_point_two(self):
        orbit = iterate(MapDescriptor.gen_logistic(2), 2.0, 3)
        assert np.array_equal(orbit.values, np.full(4, 2.0))

    def test_gen_logistic_from_zero(self):
        orbit = iterate(MapDescriptor.gen_logistic(2), 0.0, 2)
        assert np.array_equal(orbit.values, [0.0, -2.0, 2.0])

    def test_escape_reports_step(self):
        with pytest.raises(DomainError):
            iterate(MapDescriptor.gen_logistic(2), 2.5, 4)

    def test_deterministic_replay(self):
        md = MapDescriptor.gen_logistic(3)
        a = iterate(md, 0.437, 40).values
        b = iterate(md, 0.437, 40).values
        assert np.array_equal(a, b)


class TestConjugacies:
    def test_cosine_values(self):
        assert conj_cosine(0.0) == 2.0
        assert abs(conj_cosine(1.0) - (-2.0)) < 1e-15
        assert abs(conj_cosine(0.5)) < 1e-15
        assert abs(conj_cosine(1.0 / 3.0) - 1.0) < 1e-15

    def test_cosine_inverse(self):
        assert abs(conj_cosine_inv(1.0) - 1.0 / 3.0) < 1e-15
        for x in np.linspace(0.0, 1.0, 101):
            assert abs(conj_cosine_inv(conj_cosine(float(x))) - x) < 1e-12

    def test_mandelbrot_exact(self):
        assert conj_mandelbrot(2.0) == 0.0
        assert conj_mandelbrot(-2.0) == 1.0
        assert conj_mandelbrot(0.0) == 0.5
        for d in (-2.0, -0.75, 0.0, 1.25, 2.0):
            assert conj_mandelbrot_inv(conj_mandelbrot(d)) == d

    def test_conjugacy_identity(self):
        # C(g_m(x)) = f_m(C(x)) across the whole tent family
        xs = np.linspace(0.0, 1.0, 10_001)
        cx = 2.0 * np.cos(np.pi * xs)
        for m in range(1, 9):
            tent = eval_map(MapDescriptor.tent(m), xs)
            lhs = 2.0 * np.cos(np.pi * tent)
            rhs = eval_map(MapDescriptor.gen_logistic(m), cx)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_chebyshev_is_its_own_recurrence(self):
        # T_m(x) = f_m(2x)/2 only rescales the recurrence by powers of two, so
        # it gives T_{k+1} = 2x T_k - T_{k-1} bit for bit
        xs = np.linspace(-1.0, 1.0, 2001)
        prev, cur = np.ones_like(xs), xs
        for m in range(1, 40):
            assert np.array_equal(eval_map(MapDescriptor.chebyshev(m), xs), cur)
            prev, cur = cur, 2 * xs * cur - prev

    def test_chebyshev_rescaling(self):
        xs = np.linspace(-1.0, 1.0, 10_001)
        for m in range(1, 9):
            lhs = eval_map(MapDescriptor.gen_logistic(m), 2.0 * xs)
            rhs = 2.0 * eval_map(MapDescriptor.chebyshev(m), xs)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_multiple_angle_identity(self):
        thetas = np.linspace(0.0, math.pi, 2001)
        for m in range(1, 9):
            lhs = eval_map(MapDescriptor.gen_logistic(m), 2.0 * np.cos(thetas))
            rhs = 2.0 * np.cos(m * thetas)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_range_and_extrema(self):
        xs = np.linspace(-2.0, 2.0, 20_001)
        for m in range(2, 9):
            vals = eval_map(MapDescriptor.gen_logistic(m), xs)
            assert np.max(vals) <= 2.0 + 1e-9
            assert np.min(vals) >= -2.0 - 1e-9
            # interior extrema at 2 cos(j pi / m) all reach +-2
            crit = 2.0 * np.cos(np.pi * np.arange(1, m) / m)
            assert np.allclose(
                np.abs(eval_map(MapDescriptor.gen_logistic(m), crit)), 2.0, atol=1e-9
            )

    def test_fold_restriction_is_tent(self):
        xs = np.linspace(0.0, 1.0, 1001)
        for l in (1, 2, 3, 5):
            fold = eval_map(MapDescriptor.fold(l), xs)
            tent = eval_map(MapDescriptor.tent(l), xs)
            assert np.array_equal(fold, tent)


class TestSineFormula:
    def test_endpoints(self):
        assert sine_formula(0.0, 0) == 0.0
        assert sine_formula(0.0, 9) == 0.0

    def test_half_goes_to_one(self):
        assert abs(sine_formula(0.5, 1) - 1.0) < 1e-15

    def test_matches_direct_iteration(self):
        md = MapDescriptor.logistic(4.0)
        orbit = iterate(md, 0.3, 6)
        assert abs(sine_formula(0.3, 6) - orbit.values[6]) < 1e-6

    def test_many_starts(self):
        rng = np.random.default_rng(3)
        md = MapDescriptor.logistic(4.0)
        for x0 in rng.uniform(0.0, 1.0, 50):
            orbit = iterate(md, float(x0), 6)
            for n in range(7):
                assert abs(sine_formula(float(x0), n) - orbit.values[n]) < 1e-5


class TestMathieuFormula:
    def test_lambda0_interval(self):
        # the branch ends are the first band's edges of u'' + cos(2 pi x) u,
        # -pi^2 b_1(q) and -pi^2 a_0(q) at q = 1 / (2 pi^2)
        q = 1.0 / (2.0 * math.pi**2)
        lam0 = mathieu_lambda0()
        assert -10.0 < lam0 < -9.0
        assert abs(lam0 + math.pi**2 * mathieu_b(1, q)) <= 1e-12
        assert abs(_mathieu_lambda_top() + math.pi**2 * mathieu_a(0, q)) <= 1e-12

    def test_roundtrip_n0(self):
        for x0 in (0.0, 1e-9, 0.03, 0.2, 0.5, 0.8, 0.97, 1.0 - 1e-9, 1.0):
            assert abs(mathieu_formula(x0, 0) - x0) < 1e-8

    def test_matches_direct_iteration(self):
        # against the exact orbit of the float start, within a bound that
        # grows with the orbit's gain |dx_n/dx_0| = prod |4 (1 - 2 x_i)|
        for x0 in (0.0, 1e-9, 0.03, 0.2, 0.5, 0.7071, 0.97, 1.0):
            x, gain = Fraction(x0), 1.0
            for n in range(9):
                bound = 2.5e-9 * max(1.0, gain)
                assert abs(mathieu_formula(x0, n) - float(x)) <= bound, (x0, n)
                gain *= abs(4.0 * (1.0 - 2.0 * float(x)))
                x = 4 * x * (1 - x)


class TestDigits:
    def test_binary_half(self):
        assert mary_digits(0.5, 2, 3) == [1, 0, 0]

    def test_ternary_exact_fractions(self):
        assert mary_digits(Fraction(2, 3), 3, 3) == [2, 0, 0]
        assert mary_digits(Fraction(5, 9), 3, 2) == [1, 2]

    def test_shift_cases(self):
        assert digit_shift_predict([0, 1, 1], 2) == [1, 1]
        assert digit_shift_predict([1, 0, 1], 2) == [1, 0]
        assert digit_shift_predict([1, 2, 0], 3) == [0, 2]

    def test_shift_matches_tent_action(self):
        # For an odd leading digit the flipped string is the non-terminating
        # representation of g_m(x) (it continues with digits m-1), so the
        # check is at the level of exact values: the truncated prediction plus
        # the (m-1)-run tail must reconstruct g_m(x) exactly.
        rng = np.random.default_rng(11)
        for m in range(2, 6):
            md = MapDescriptor.tent(m)
            for _ in range(60):
                k = int(rng.integers(2, 9))
                num = int(rng.integers(0, m**k))
                x = Fraction(num, m**k)
                digits = mary_digits(x, m, k)
                predicted = digit_shift_predict(digits, m)
                value = sum(
                    Fraction(d, m**i) for i, d in enumerate(predicted, start=1)
                )
                if digits[0] % 2 == 1 and eval_map(md, x) != value:
                    value += Fraction(1, m ** len(predicted))  # (m-1)-run tail
                assert eval_map(md, x) == value
                if digits[0] % 2 == 0:
                    # plain shift: greedy digits agree verbatim
                    assert mary_digits(eval_map(md, x), m, k - 1) == predicted
