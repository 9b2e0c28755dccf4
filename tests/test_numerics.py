import math

import numpy as np
import pytest

from hillmap.errors import BracketError, NonConvergenceError
from hillmap.numerics import (
    IVP_TOL,
    QUAD_TOL,
    ROOT_TOL,
    ToleranceSpec,
    find_root,
    find_roots,
    integrate_ivp,
    quad_singular,
)


def test_tolerance_spec_validation():
    with pytest.raises(ValueError):
        ToleranceSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceSpec(abs_tol=1e-8, rel_tol=-1.0)
    with pytest.raises(ValueError):
        ToleranceSpec(abs_tol=1e-8, max_steps=0)


class TestIntegrateIvp:
    def test_constant_solution(self):
        y = integrate_ivp(lambda t, y: np.zeros_like(y), [1.0, 0.0], 0.0, 5.0)
        assert np.array_equal(y, [1.0, 0.0])

    def test_cosine_solution(self):
        rhs = lambda t, y: np.array([y[1], -y[0]])
        y = integrate_ivp(rhs, [1.0, 0.0], 0.0, math.pi)
        assert abs(y[0] - (-1.0)) < 1e-9
        assert abs(y[1]) < 1e-9

    def test_exponential_solution(self):
        y = integrate_ivp(lambda t, y: y, [1.0], 0.0, 1.0)
        assert abs(y[0] - math.e) < 1e-9

    def test_two_pass_matches_single_pass(self):
        rhs = lambda t, y: np.array([y[1], -math.sin(t) * y[0]])
        tol = ToleranceSpec(abs_tol=1e-10, rel_tol=1e-10, max_steps=100000)
        mid = integrate_ivp(rhs, [1.0, 0.5], 0.0, 1.3, tol)
        two = integrate_ivp(rhs, mid, 1.3, 3.1, tol)
        one = integrate_ivp(rhs, [1.0, 0.5], 0.0, 3.1, tol)
        assert np.all(np.abs(two - one) < 2 * tol.abs_tol)

    def test_breakpoints_respected(self):
        # rhs with a jump at t=1; exact answer is the piecewise-linear area
        rhs = lambda t, y: np.array([1.0 if t < 1.0 else -1.0])
        y = integrate_ivp(rhs, [0.0], 0.0, 2.0, breakpoints=[1.0])
        assert abs(y[0]) < 1e-10

    def test_step_budget_error_carries_state(self):
        tight = ToleranceSpec(abs_tol=1e-12, rel_tol=1e-12, max_steps=3)
        rhs = lambda t, y: np.array([y[1], -100.0 * y[0]])
        with pytest.raises(NonConvergenceError) as info:
            integrate_ivp(rhs, [1.0, 0.0], 0.0, 50.0, tight)
        assert 0.0 < info.value.t < 50.0
        assert info.value.state.shape == (2,)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_ivp(lambda t, y: y, [1.0], 1.0, 0.0)


class TestFindRoot:
    def test_linear(self):
        assert abs(find_root(lambda x: x - 1.0, 0.0, 2.0) - 1.0) < 1e-12

    def test_cosine(self):
        assert abs(find_root(math.cos, 1.0, 2.0) - math.pi / 2) < 1e-10

    def test_free_discriminant_zero(self):
        # 2 cos(sqrt(lambda)) + 2 touches zero at lambda = pi^2 without a sign
        # change: no bracket, so no root (band touches are decided in hill)
        f = lambda lam: 2.0 * math.cos(math.sqrt(lam)) + 2.0
        with pytest.raises(BracketError):
            find_root(f, 8.0, 12.0)

    def test_root_inside_bracket(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            c = rng.uniform(-1.0, 1.0)
            f = lambda x: math.tanh(x - c)
            x = find_root(f, -2.0, 2.0)
            assert -2.0 <= x <= 2.0
            assert abs(x - c) < 1e-10

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_deterministic(self):
        f = lambda x: math.cos(3 * x) - 0.2
        assert find_root(f, 0.0, 1.0) == find_root(f, 0.0, 1.0)


class TestFindRoots:
    def test_matches_closed_forms(self):
        roots = find_roots(np.cos, [1.0, 4.0], [2.0, 5.0])
        assert np.max(np.abs(roots - [math.pi / 2, 3 * math.pi / 2])) < 1e-10

    def test_args_follow_their_brackets(self):
        c = np.array([1.0, 8.0, 27.0])
        roots = find_roots(lambda x, c: x**3 - c, 0.0, 4.0, args=(c,))
        assert roots.shape == (3,)
        assert np.max(np.abs(roots - [1.0, 2.0, 3.0])) < 1e-10

    def test_same_sign_bracket_gives_nan(self):
        # (x - 1)^2 touches zero on [0, 3] without a sign change, x^2 + 1 has
        # no root; neither is a bracket, and neither stops the others
        roots = find_roots(
            lambda x, c: (x - 1.0) ** 2 - c, [0.0, 0.0, -1.0], [3.0, 1.0, 1.0],
            args=([0.0, 0.25, -1.0],),
        )
        assert np.isnan(roots[0]) and np.isnan(roots[2])
        assert abs(roots[1] - 0.5) < 1e-12

    def test_zero_at_an_endpoint(self):
        roots = find_roots(lambda x: x - 1.0, [1.0, 0.0], [2.0, 1.0])
        assert roots.tolist() == [1.0, 1.0]
        assert find_roots(lambda x: x - 1.0, [1.0], [2.0])[0] == find_root(
            lambda x: x - 1.0, 1.0, 2.0
        )

    def test_tolerance_is_met(self):
        tol = ToleranceSpec(1e-6, 0.0, 256)
        roots = find_roots(lambda x: np.tanh(x - 0.123456789), [-2.0], [2.0], tol)
        assert abs(roots[0] - 0.123456789) <= 1e-6

    def test_shapes(self):
        assert find_roots(np.cos, [], []).shape == (0,)
        assert find_roots(np.cos, 1.0, 2.0).shape == ()

    def test_step_budget(self):
        with pytest.raises(NonConvergenceError):
            find_roots(
                lambda x: np.tanh(50.0 * (x - 0.3)), [0.0], [1.0],
                ToleranceSpec(1e-15, 0.0, 2),
            )


class TestQuadSingular:
    def test_log_endpoint(self):
        val, bound = quad_singular(math.log, 0.0, 1.0, singular_points=[0.0])
        assert abs(val - (-1.0)) <= bound <= QUAD_TOL.abs_tol

    def test_arcsine_endpoints(self):
        f = lambda x: 1.0 / math.sqrt(1.0 - x * x)
        val, _ = quad_singular(f, -1.0, 1.0, singular_points=[-1.0, 1.0])
        assert abs(val - math.pi) < 1e-9

    def test_log_sine_interior_singularity(self):
        f = lambda y: math.log(abs(2.0 * math.sin(y)))
        val, _ = quad_singular(f, -math.pi / 2, math.pi / 2, singular_points=[0.0])
        assert abs(val / math.pi) < 1e-10

    def test_additive_over_subintervals(self):
        f = lambda x: math.log(abs(x)) if x != 0 else 0.0
        tol = ToleranceSpec(abs_tol=1e-11, rel_tol=1e-11, max_steps=400)
        whole, _ = quad_singular(f, -1.0, 2.0, singular_points=[0.0], tol=tol)
        left, _ = quad_singular(f, -1.0, 0.5, singular_points=[0.0], tol=tol)
        right, _ = quad_singular(f, 0.5, 2.0, singular_points=[], tol=tol)
        assert abs(whole - (left + right)) < 2 * tol.abs_tol

    @pytest.mark.parametrize("a", [2.072, -2.072, 2.252, 2.256])
    def test_panels_of_opposite_sign_meet_the_summed_request(self, a):
        # the integrand of lyapunov.I_integral for |a| > 2, split at the dip
        # y = +-(pi/2 - sqrt(|a| - 2)): the two panels' integrals differ in
        # sign, and each panel's relative request summed misses rel_tol |I|
        sign = math.copysign(1.0, a)

        def f(y):
            half = math.sin(0.5 * (math.pi / 2.0 - sign * y))
            return math.log((abs(a) - 2.0) + 4.0 * half * half)

        cut = sign * (math.pi / 2.0 - math.sqrt(abs(a) - 2.0))
        val, bound = quad_singular(f, -math.pi / 2, math.pi / 2, singular_points=[cut])
        exact = math.pi * math.log((abs(a) + math.sqrt(a * a - 4.0)) / 2.0)
        assert bound <= max(QUAD_TOL.abs_tol, QUAD_TOL.rel_tol * abs(val))
        assert abs(val - exact) <= max(bound, 1e-15)

    def test_nonconvergence_carries_partial(self):
        # nastier than the budget allows: dense oscillation with limit=1 panels
        bad_tol = ToleranceSpec(abs_tol=1e-13, rel_tol=1e-13, max_steps=1)
        f = lambda x: math.sin(1.0 / (x + 1e-12)) / math.sqrt(abs(x) + 1e-12)
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(f, 0.0, 1.0, tol=bad_tol)
        assert hasattr(info.value, "estimate")
        assert hasattr(info.value, "error_bound")

    def test_empty_interval(self):
        assert quad_singular(math.log, 1.0, 1.0) == (0.0, 0.0)

    def test_bound_sums_the_panels(self):
        # log|x| on [-1, 2] split at 0: the reported bound is the sum of the
        # two panels' achieved bounds, and it covers the error of the sum
        # (the halves get the same per-panel request and budget as the whole)
        f = lambda x: math.log(abs(x))
        whole, bound = quad_singular(f, -1.0, 2.0, [0.0], ToleranceSpec(2e-10, 0.0, 400))
        half = ToleranceSpec(1e-10, 0.0, 200)
        _, left = quad_singular(f, -1.0, 0.0, [0.0], half)
        _, right = quad_singular(f, 0.0, 2.0, [0.0], half)
        exact = -1.0 + (2.0 * math.log(2.0) - 2.0)
        assert 0.0 < bound == left + right
        assert abs(whole - exact) <= bound

    def test_relative_acceptance_rule(self):
        # accepted when the bound is within max(abs_tol, rel_tol |I|), as
        # QUADPACK itself stops; with rel_tol = 0 abs_tol alone binds
        f = lambda x: 1e6 * math.log(x)
        tol = ToleranceSpec(abs_tol=1e-12, rel_tol=1e-10, max_steps=400)
        val, bound = quad_singular(f, 0.0, 1.0, [0.0], tol)
        assert abs(val + 1e6) < 1e-4
        assert tol.abs_tol < bound <= tol.rel_tol * abs(val)
        with pytest.raises(NonConvergenceError):
            quad_singular(f, 0.0, 1.0, [0.0], ToleranceSpec(1e-12, 0.0, 400))


def test_defaults_are_sane():
    assert IVP_TOL.abs_tol == 1e-10 and IVP_TOL.rel_tol == 1e-10
    assert ROOT_TOL.abs_tol == 1e-12
    assert QUAD_TOL.abs_tol == 1e-10
