import math

import numpy as np
import pytest

from hillmap import numerics
from hillmap.errors import BracketError, NonConvergenceError
from hillmap.numerics import (
    ALPHA_MIN,
    QUAD_LEVELS,
    QUAD_TOL,
    ROOT_TOL,
    find_root,
    find_roots,
    integrate_ivp,
    quad_singular,
)


def test_request_must_be_positive():
    for tol in (0.0, -1e-8, math.nan):
        with pytest.raises(ValueError, match="abs_tol must be positive"):
            quad_singular(np.exp, 0.0, 1.0, tol=tol)
        with pytest.raises(ValueError, match="abs_tol must be positive"):
            find_roots(np.cos, 1.0, 2.0, tol)
        with pytest.raises(ValueError, match="abs_tol must be positive"):
            find_root(math.cos, 1.0, 2.0, tol)


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
        tol = 1e-10
        mid = integrate_ivp(rhs, [1.0, 0.5], 0.0, 1.3, tol)
        two = integrate_ivp(rhs, mid, 1.3, 3.1, tol)
        one = integrate_ivp(rhs, [1.0, 0.5], 0.0, 3.1, tol)
        assert np.all(np.abs(two - one) < 2 * tol)

    def test_step_budget_error_carries_state(self, monkeypatch):
        monkeypatch.setattr(numerics, "IVP_STEPS", 3)
        rhs = lambda t, y: np.array([y[1], -100.0 * y[0]])
        with pytest.raises(NonConvergenceError) as info:
            integrate_ivp(rhs, [1.0, 0.0], 0.0, 50.0, 1e-12)
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
        roots = find_roots(lambda x: np.tanh(x - 0.123456789), [-2.0], [2.0], 1e-6)
        assert abs(roots[0] - 0.123456789) <= 1e-6

    def test_shapes(self):
        assert find_roots(np.cos, [], []).shape == (0,)
        assert find_roots(np.cos, 1.0, 2.0).shape == ()

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "ROOT_STEPS", 2)
        with pytest.raises(NonConvergenceError):
            find_roots(lambda x: np.tanh(50.0 * (x - 0.3)), [0.0], [1.0], 1e-15)


def scipy_roots(f, a, b, tol=ROOT_TOL, args=(), maxiter=256):
    """SciPy's Chandrupatla solver asked what find_roots is asked: the roots,
    NaN where a bracket's ends share a sign, and the statuses."""
    from scipy.optimize.elementwise import find_root as chandrupatla

    res = chandrupatla(
        f, (np.asarray(a, dtype=float), np.asarray(b, dtype=float)), args=args,
        tolerances={"xatol": tol, "xrtol": 4 * np.finfo(float).eps}, maxiter=maxiter,
    )
    return np.where(res.status == -1, np.nan, res.x), res.status


def assert_matches_scipy(f, a, b, tol=ROOT_TOL, args=()):
    want, status = scipy_roots(f, a, b, tol, args)
    assert np.all((status == 0) | (status == -1))
    got = find_roots(f, a, b, tol, args)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


class TestFindRootsIsScipysChandrupatla:
    """find_roots runs SciPy's iterates and stopping rule: the same roots to
    the last bit, batch by batch."""

    TOLS = (ROOT_TOL, 1e-10, 1e-6)

    @pytest.mark.parametrize("family", ["smooth", "steep", "extremum_at_end"])
    def test_random_batches(self, family):
        rng = np.random.default_rng(["smooth", "steep", "extremum_at_end"].index(family))
        for trial in range(60):
            n = int(rng.integers(1, 65))
            c = rng.uniform(-1.0, 1.0, n)
            if family == "smooth":
                f, args = (lambda x, c: np.sin(3.0 * x) - c / 2), (c,)
                a = rng.uniform(-0.5, 0.0, n)
                b = a + rng.uniform(0.01, 0.5, n)
            elif family == "steep":
                f, args = (lambda x, c: np.tanh(50.0 * (x - c))), (c,)
                a = c - rng.uniform(0.0, 2.0, n)
                b = c + rng.uniform(1e-3, 2.0, n)
            else:
                # a minimum at the bracket's left end and a root just past
                # it: G beside a turning point lam* of Delta
                e = 10.0 ** rng.uniform(-14.0, -2.0, n)
                f, args = (lambda x, c, e: (x - c) ** 2 - e), (c, e)
                a = c
                b = c + rng.uniform(0.1, 2.0, n)
            assert_matches_scipy(f, a, b, self.TOLS[trial % 3], args)

    def test_same_sign_ends_and_zero_ends(self):
        f = lambda x, c: x**3 - c
        a = np.array([0.0, 1.0, 0.0, -2.0, 2.0, 0.0, 0.5])
        b = np.array([1.0, 2.0, 2.0, -1.0, 3.0, 0.0, 0.5])
        c = np.array([1.0, 1.0, 8.0, 0.0, 1.0, 0.0, 0.125])
        # ends 1 and 1, 1 and 2 (a zero at an end), same signs, zero-width
        want, status = scipy_roots(f, a, b, args=(c,))
        assert set(status.tolist()) == {0, -1}
        assert_matches_scipy(f, a, b, args=(c,))
        for tol in self.TOLS:
            assert_matches_scipy(f, a.reshape(7, 1), b, tol, args=(c,))

    def test_nan_at_one_end(self):
        f = lambda x, c: np.where(x > 2.0, np.nan, x - c)
        a = np.array([0.0, 0.0, 1.0, -3.0])
        b = np.array([3.0, 2.5, 2.5, 2.5])
        assert_matches_scipy(f, a, b, args=(np.array([1.0, 1.5, 2.0, -1.0]),))

    @pytest.mark.parametrize("a, b", [(2.5, 3.0), (-np.inf, 1.0), (0.0, 1.0)])
    def test_nan_or_infinite_ends_raise(self, a, b):
        # NaN at both ends, an infinite end, NaN beside an exact zero
        f = lambda x: np.where((x > 2.0) | (x < 0.5), np.nan, x - 1.0)
        assert set(scipy_roots(f, [a, 0.0], [b, 2.0])[1].tolist()) == {0, -3}
        with pytest.raises(NonConvergenceError, match=r"1 of 2 .*statuses \[-3\]"):
            find_roots(f, [a, 0.0], [b, 2.0])

    def test_step_budget_is_scipys(self, monkeypatch):
        f = lambda x: np.tanh(50.0 * (x - 0.3))
        for steps in range(1, 40):
            monkeypatch.setattr(numerics, "ROOT_STEPS", steps)
            _, status = scipy_roots(f, [0.0, 0.25], [1.0, 0.35], 1e-15, maxiter=steps)
            if -2 in status:
                with pytest.raises(NonConvergenceError, match=r"statuses \[-2\]"):
                    find_roots(f, [0.0, 0.25], [1.0, 0.35], 1e-15)
            else:
                assert_matches_scipy(f, [0.0, 0.25], [1.0, 0.35], 1e-15)
                break
        else:
            pytest.fail("no budget was enough")
        assert steps > 2


class TestQuadSingular:
    def test_log_endpoint(self):
        val, bound = quad_singular(np.log, 0.0, 1.0, singular_points=[0.0])
        assert abs(val - (-1.0)) <= bound <= QUAD_TOL

    def test_arcsine_endpoints(self):
        # 1/sqrt ends at +-1 raise; the halves x = +-(1 - t^2), t in [0, 1],
        # take them away, with 1 / sqrt(1 - x^2) dx = 2 / sqrt(2 - t^2) dt
        f = lambda x: 1.0 / np.sqrt(1.0 - x * x)
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(f, -1.0, 1.0, singular_points=[-1.0, 1.0])
        assert abs(info.value.estimate - math.pi) <= info.value.error_bound
        half, bound = quad_singular(lambda t: 2.0 / np.sqrt(2.0 - t * t), 0.0, 1.0)
        assert abs(2.0 * half - math.pi) <= max(2.0 * bound, 1e-15)

    def test_log_sine_interior_singularity(self):
        f = lambda y: np.log(np.abs(2.0 * np.sin(y)))
        val, _ = quad_singular(f, -math.pi / 2, math.pi / 2, singular_points=[0.0])
        assert abs(val / math.pi) < 1e-10

    def test_additive_over_subintervals(self):
        f = lambda x: np.log(np.abs(x))
        tol = 1e-11
        whole, _ = quad_singular(f, -1.0, 2.0, singular_points=[0.0], tol=tol)
        left, _ = quad_singular(f, -1.0, 0.5, singular_points=[0.0], tol=tol)
        right, _ = quad_singular(f, 0.5, 2.0, singular_points=[], tol=tol)
        assert abs(whole - (left + right)) < 2 * tol

    @pytest.mark.parametrize("a", [2.072, -2.072, 2.252, 2.256])
    def test_panels_of_opposite_sign_meet_the_summed_request(self, a):
        # the integrand of lyapunov.I_integral for |a| > 2, split at the dip
        # y = +-(pi/2 - sqrt(|a| - 2)): the two panels' integrals differ in
        # sign, and their summed bound meets the request
        sign = math.copysign(1.0, a)

        def f(y):
            half = np.sin(0.5 * (math.pi / 2.0 - sign * y))
            return np.log((abs(a) - 2.0) + 4.0 * half * half)

        cut = sign * (math.pi / 2.0 - math.sqrt(abs(a) - 2.0))
        val, bound = quad_singular(f, -math.pi / 2, math.pi / 2, singular_points=[cut])
        exact = math.pi * math.log((abs(a) + math.sqrt(a * a - 4.0)) / 2.0)
        assert bound <= QUAD_TOL
        assert abs(val - exact) <= max(bound, 1e-15)

    def test_nonconvergence_carries_partial(self):
        # nastier than the budget allows: dense oscillation with limit=1 panels
        f = lambda x: np.sin(1.0 / (x + 1e-12)) / np.sqrt(np.abs(x) + 1e-12)
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(f, 0.0, 1.0, tol=1e-13)
        assert hasattr(info.value, "estimate")
        assert hasattr(info.value, "error_bound")

    def test_empty_interval(self):
        assert quad_singular(math.log, 1.0, 1.0) == (0.0, 0.0)

    def test_bound_sums_the_panels(self):
        # log|x| on [-1, 2] split at 0: the reported bound is the sum of the
        # two panels' achieved bounds, and it covers the error of the sum
        # (the halves get the same per-panel request as the whole)
        f = lambda x: np.log(np.abs(x))
        whole, bound = quad_singular(f, -1.0, 2.0, [0.0], 2e-10)
        _, left = quad_singular(f, -1.0, 0.0, [0.0], 1e-10)
        _, right = quad_singular(f, 0.0, 2.0, [0.0], 1e-10)
        exact = -1.0 + (2.0 * math.log(2.0) - 2.0)
        assert 0.0 < bound == left + right
        assert abs(whole - exact) <= bound


class TestQuadSingularBatches:
    """Many intervals in one call: each as if alone, each bound honest."""

    @staticmethod
    def counted(f):
        calls = []

        def g(x, *args):
            calls.append(x.size)
            return f(x, *args)

        return g, calls

    def test_batch_equals_scalar_calls(self):
        # per-interval args and singular points; one empty interval
        f = lambda x, c: np.log(np.abs(x - c)) * np.exp(-c * x)
        lo = np.array([-1.0, 0.0, 0.5, 2.0, 3.0])
        hi = np.array([1.0, 2.0, 0.5, 4.0, 3.5])
        c = np.array([0.3, 1.0, 0.7, 2.5, 3.25])
        val, bound = quad_singular(f, lo, hi, [c], args=(c,))
        for i in range(lo.size):
            one = quad_singular(lambda x, c=float(c[i]): f(x, c), float(lo[i]), float(hi[i]), [c[i]])
            assert (val[i], bound[i]) == one
            assert isinstance(one[0], float) and isinstance(one[1], float)
        assert val[2] == bound[2] == 0.0

    def test_one_call_of_f_per_level(self):
        # 20 intervals converge in the same few calls as one of them
        g, calls = self.counted(lambda x, c: np.log(np.abs(x - c)))
        c = np.linspace(-0.9, 0.9, 20)
        quad_singular(g, -1.0, 1.0, [c], args=(c,))
        many = len(calls)
        calls.clear()
        quad_singular(g, -1.0, 1.0, [c[:1]], args=(c[:1],))
        assert many == len(calls) <= 6

    def test_point_outside_every_interval_is_ignored(self):
        val, _ = quad_singular(np.exp, 0.0, 1.0, [-1.0, 5.0, np.nan])
        assert abs(val - (math.e - 1.0)) < 1e-14

    def test_b_before_a_or_an_infinite_end_raises(self):
        with pytest.raises(ValueError):
            quad_singular(np.exp, [0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            quad_singular(lambda x: np.exp(-x), 0.0, np.inf)

    @pytest.mark.parametrize("kink", [-0.918, -0.46, 0.274, 0.627, 0.826])
    def test_undeclared_kink_is_halved_and_bounded(self, kink):
        # |x - k| converges slowly in the tanh-sinh levels: undeclared, its
        # panel runs out of levels and the call raises with a bound that
        # covers the error; declared, the kink is a panel end and converges
        f = lambda x: np.abs(x - kink)
        tol = 1e-10
        exact = ((1.0 + kink) ** 2 + (1.0 - kink) ** 2) / 2.0
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(f, -1.0, 1.0, tol=tol)
        assert abs(info.value.estimate - exact) <= info.value.error_bound
        val, bound = quad_singular(f, -1.0, 1.0, [kink], tol)
        assert abs(val - exact) <= bound <= tol

    @pytest.mark.parametrize("end", [1.0, 2.0, 4.5])
    def test_inverse_sqrt_at_a_nonzero_end(self, end):
        # the mass within an ulp of the end (~sqrt(ulp)) lies beyond every
        # float next to it: the call raises, with a bound that covers it
        f = lambda x: 1.0 / np.sqrt(end - x)
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(f, 0.0, end, [end], 1e-10)
        assert abs(info.value.estimate - 2.0 * math.sqrt(end)) <= info.value.error_bound

    @pytest.mark.parametrize("width", [1e-6, 1e-8, 1e-9, 1e-10, 1e-11])
    def test_inverse_sqrt_on_a_narrow_panel(self, width):
        # at every width the mass within an ulp of 2 is out of reach
        a = 2.0 - width
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(lambda x: 1.0 / np.sqrt(2.0 - x), a, 2.0, [2.0])
        assert abs(info.value.estimate - 2.0 * math.sqrt(2.0 - a)) <= info.value.error_bound

    @pytest.mark.parametrize("alpha", [-0.3, -0.5, -0.6, -0.7, -0.8, -0.9])
    def test_power_law_ends_are_right_or_raise(self, alpha):
        # |x - e|^alpha, alpha >= ALPHA_MIN, on both sides of a declared end
        # e: every call returns within its bound, or raises with a bound that
        # covers its error
        assert alpha >= ALPHA_MIN
        for e in (0.0, 1.0, 2.0, -3.0):
            for width in (1.0, 1e-3, 1e-6, 1e-9):
                for lo, hi in ((e, e + width), (e - width, e)):
                    exact = width ** (1.0 + alpha) / (1.0 + alpha)
                    try:
                        val, bound = quad_singular(lambda x: np.abs(x - e) ** alpha, lo, hi, [e])
                    except NonConvergenceError as exc:
                        val, bound = exc.estimate, exc.error_bound
                    assert abs(val - exact) <= bound, (e, width, lo)

    def test_panel_of_a_few_ulps_beside_a_declared_end_raises(self):
        # the floats inside miss ~2 sqrt(ulp) of 2 sqrt(1e-14): the declared
        # end is never a node, and the call raises with a finite bound
        a, nodes = 2.0 - 1e-14, []
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(lambda x: nodes.append(x) or 1.0 / np.sqrt(2.0 - x), a, 2.0, [2.0])
        assert not any((x == 2.0).any() for x in nodes)
        bound = info.value.error_bound
        assert math.isfinite(bound)
        for exact in (2.0 * math.sqrt(2.0 - a), 2.0 * math.sqrt(1e-14)):
            assert abs(info.value.estimate - exact) <= bound

    def test_node_within_an_ulp_of_an_end_is_the_float_beside_it(self):
        # the floats below 2 are 2^-52 apart, half the spacing of 2: on
        # [2 - 2^-51, 2] the one float inside is every node, and the
        # declared left end is none
        lo, nodes = 2.0 - 2.0**-51, []
        val, bound = quad_singular(lambda x: nodes.append(x) or np.log(x - lo), lo, 2.0, [lo])
        assert nodes and all((x == 2.0 - 2.0**-52).all() for x in nodes)
        width = 2.0 - lo
        assert abs(val - width * (math.log(width) - 1.0)) <= bound

    def test_interval_with_no_float_inside_skips_its_declared_end(self):
        # [2 - 2^-52, 2] holds no float strictly inside: f is not evaluated
        # at the declared 2, and the result, returned or raised, is bounded
        lo, nodes = 2.0 - 2.0**-52, []
        try:
            val, bound = quad_singular(lambda x: nodes.append(x) or 1.0 / np.sqrt(2.0 - x),
                                       lo, 2.0, [2.0])
        except NonConvergenceError as exc:
            val, bound = exc.estimate, exc.error_bound
        assert not any((x == 2.0).any() for x in nodes)
        assert abs(val - 2.0 * math.sqrt(2.0 - lo)) <= bound

    def test_failure_names_the_interval_in_full(self):
        # an interval 1e-10 wide at 2 is not printed as [2, 2]
        a = 2.0 - 1e-10
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(lambda x: 1.0 / np.sqrt(2.0 - x), a, 2.0, [2.0])
        assert f"on [{a!r}, 2.0]" in str(info.value)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_narrow_panel_keeps_the_mass_beside_its_ends(self, scale):
        # on a panel 2^-40 wide the nodes within an ulp of an end carry
        # ~ulp / 2^-40 ~ 2e-4 of the integral: they are evaluated an ulp
        # inside the end, not dropped
        hi = 1.0 + 2.0**-40
        exact = scale * math.expm1(2.0**-40)
        val, bound = quad_singular(lambda x: scale * np.exp(x - 1.0), 1.0, hi,
                                   tol=1e-13 * exact)
        assert abs(val - exact) <= bound <= 1e-13 * exact

    @pytest.mark.parametrize("f, end, exact", [
        (lambda x: np.log(2.0 - x) ** 2, 2.0, 2.0),
        (lambda x: np.log(x - 1.0) ** 2, 1.0, 2.0),
        (lambda x: np.log(2.0 - x) ** 2 / np.sqrt(2.0 - x), 2.0, 16.0),
        (lambda x: np.log(2.0 - x) / np.sqrt(2.0 - x), 2.0, -4.0),
    ])
    def test_end_model_misfit_joins_the_bound(self, f, end, exact):
        # log^2 d and d^alpha log d ends: the bound covers the error whether
        # or not it meets the request
        for tol in (QUAD_TOL, 1e-12):
            try:
                val, bound = quad_singular(f, 1.0, 2.0, [end], tol)
            except NonConvergenceError as exc:
                val, bound = exc.estimate, exc.error_bound
            assert abs(val - exact) <= bound

    def test_unreachable_request_raises_after_one_pass(self):
        # an unreachable request: each panel runs its QUAD_LEVELS levels,
        # one call of f each, and the call raises with the partial result
        g, calls = self.counted(lambda x: np.log(np.abs(x)))
        with pytest.raises(NonConvergenceError) as info:
            quad_singular(g, -1.0, 1.0, [0.0], 1e-30)
        # per panel: 16 2^l nodes at each end at level l, the centre from
        # both ends
        per_panel = 2 * (1 + 16 * 2 ** (QUAD_LEVELS - 1))
        assert len(calls) == QUAD_LEVELS and sum(calls) == 2 * per_panel
        assert np.isfinite(info.value.estimate) and info.value.error_bound > 1e-30

    def test_nan_integrand_raises(self):
        with pytest.raises(NonConvergenceError):
            quad_singular(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


def test_defaults_are_sane():
    assert ROOT_TOL == 1e-12 and numerics.ROOT_STEPS == 256
    assert numerics.ROOT_XRTOL == 4 * np.finfo(float).eps
    assert QUAD_TOL == 1e-10 and numerics.IVP_STEPS == 1_000_000
