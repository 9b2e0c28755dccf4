import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillmap import lyapunov
from hillmap.ensemble import CHUNK
from hillmap.errors import SingularityError
from hillmap.lyapunov import (
    BURN_IN,
    EXPONENT_TOL,
    I_integral,
    I_integral_xform,
    average_lyapunov_orbit,
    average_lyapunov_quadrature,
    critical_points,
    local_lyapunov,
    roots_fm,
)
from hillmap.maps import MapDescriptor, eval_map, trace_poly

# Every order the angle quadrature is checked at: all of 2-24 (the range the
# Horner-based x quadrature failed from m = 17 on), powers of two up to 128,
# and 49, 63 and 113, where a relative request let the error pass 1e-12.
QUADRATURE_ORDERS = [*range(2, 25), 32, 49, 63, 64, 113, 128]


def scalar_orbit_average(m, x0, n):
    """The orbit average with the critical-point test inside the step: each
    point is tested before it is stored, one trace_poly call per step.  Reads
    BURN_IN, CRITICAL_EPS and critical_points from the module at call time,
    so that monkeypatching them reaches both this and the package."""
    crit = tuple(float(c) for c in lyapunov.critical_points(m))
    restarts = 0
    x = x0
    for _ in range(lyapunov.BURN_IN):
        y = trace_poly(m, x)
        x = -2.0 if y < -2.0 else (2.0 if y > 2.0 else y)
    block = np.empty(min(n, CHUNK))
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, CHUNK):
        size = min(CHUNK, n - start)
        for i in range(size):
            for c in crit:
                if abs(c - x) < lyapunov.CRITICAL_EPS:
                    x += 1e-9
                    restarts += 1
                    break
            block[i] = x
            y = trace_poly(m, x)
            x = -2.0 if y < -2.0 else (2.0 if y > 2.0 else y)
        logs = np.log(np.abs(trace_poly(m, block[:size], derivative=True)))
        block_mean = float(np.mean(logs))
        logs -= block_mean
        delta = block_mean - mean
        weight = size / (count + size)
        mean += delta * weight
        m2 += float(np.dot(logs, logs)) + delta * delta * count * weight
        count += size
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
    return mean, stderr, restarts


def assert_matches_scalar_loop(m, x0, n):
    res = average_lyapunov_orbit(m, x0, n)
    assert (res.value, res.error_estimate, res.restarts) == scalar_orbit_average(m, x0, n)
    return res


class TestLocalLyapunov:
    def test_tent_slope(self):
        assert local_lyapunov(MapDescriptor.tent(3), 0.1) == math.log(3)

    def test_gen_logistic(self):
        got = local_lyapunov(MapDescriptor.gen_logistic(2), 1.0)
        assert abs(got - math.log(2.0)) < 1e-15

    def test_critical_point_raises(self):
        with pytest.raises(SingularityError):
            local_lyapunov(MapDescriptor.gen_logistic(2), 0.0)

    def test_tent_breakpoint_raises(self):
        with pytest.raises(SingularityError):
            local_lyapunov(MapDescriptor.tent(3), 1.0 / 3.0)

    def test_logistic_critical(self):
        with pytest.raises(SingularityError):
            local_lyapunov(MapDescriptor.logistic(4.0), 0.5)
        assert abs(local_lyapunov(MapDescriptor.logistic(4.0), 0.0) - math.log(4.0)) < 1e-15


class TestRoots:
    def test_m2(self):
        assert np.allclose(roots_fm(2), [-math.sqrt(2.0), math.sqrt(2.0)])

    def test_m3(self):
        assert np.allclose(roots_fm(3), [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-15)

    def test_m1(self):
        assert np.allclose(roots_fm(1), [0.0], atol=1e-15)

    def test_roots_annihilate_map(self):
        for m in range(1, 9):
            md = MapDescriptor.gen_logistic(m)
            for r in roots_fm(m):
                assert abs(eval_map(md, float(r))) < 1e-9

    def test_critical_points_flatten_derivative(self):
        for m in range(2, 9):
            for c in critical_points(m):
                assert abs(trace_poly(m, float(c), derivative=True)) < 1e-9


class TestQuadrature:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_equals_log_m(self, m):
        res = average_lyapunov_quadrature(m)
        assert res.method == "quadrature"
        assert abs(res.value - math.log(m)) < 1e-4

    @pytest.mark.parametrize("m", QUADRATURE_ORDERS)
    def test_error_estimate_is_achieved_bound(self, m):
        # the reported estimate is the quadrature's achieved bound: it covers
        # the true error and, divided by pi like the value, stays inside the
        # request on the angle integral
        res = average_lyapunov_quadrature(m)
        err = abs(res.value - math.log(m))
        assert err <= res.error_estimate <= EXPONENT_TOL.abs_tol / math.pi
        assert err <= 1e-12

    def test_decomposition_identity(self):
        for m in range(2, 8):
            lam = average_lyapunov_quadrature(m).value
            dec = math.log(m) + sum(I_integral(float(a)) for a in roots_fm(m))
            assert abs(lam - dec) < 2e-4


class TestOrbitAverage:
    def test_matches_log_two(self):
        res = average_lyapunov_orbit(2, 0.123456, 10**6)
        assert abs(res.value - math.log(2.0)) < 3.0 * res.error_estimate

    def test_short_orbit_reports_big_error(self):
        res = average_lyapunov_orbit(3, 0.5, 10)
        assert math.isfinite(res.value)
        assert res.error_estimate > 0.01

    def test_blocks_merge_to_the_one_shot_mean_and_error(self):
        # the orbit's log |f'| is taken per CHUNK block and the blocks merged;
        # compare with the whole orbit held at once
        m, x0, n = 3, 0.37071, 3 * CHUNK + 5
        res = average_lyapunov_orbit(m, x0, n)
        x = x0
        for _ in range(BURN_IN):
            x = min(2.0, max(-2.0, trace_poly(m, x)))
        orbit = np.empty(n)
        for i in range(n):
            orbit[i] = x
            x = min(2.0, max(-2.0, trace_poly(m, x)))
        logs = np.log(np.abs(trace_poly(m, orbit, derivative=True)))
        assert res.restarts == 0
        assert abs(res.value - np.mean(logs)) <= 1e-13
        assert abs(res.error_estimate - np.std(logs, ddof=1) / math.sqrt(n)) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(2, 8),
        x0=st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
        n=st.integers(1, 2 * CHUNK + 7),
    )
    def test_bit_identical_to_scalar_loop(self, m, x0, n):
        assert_matches_scalar_loop(m, x0, n)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_restart_on_every_critical_point(self, m, monkeypatch):
        # with no burn-in an orbit started on a critical point is perturbed
        # at its first step; the blocked test must count and place it alike
        monkeypatch.setattr(lyapunov, "BURN_IN", 0)
        for c in critical_points(m):
            for n in (1, 2, 2 * CHUNK + 7):
                res = assert_matches_scalar_loop(m, float(c), n)
                assert res.restarts >= 1

    def test_restart_in_the_second_block(self, monkeypatch):
        # declare the orbit's point at index CHUNK + 10 critical: the hit
        # cuts the second block there and the orbit goes on from x + 1e-9
        m, x0, n = 3, 0.37071, 2 * CHUNK + 7
        x = x0
        for _ in range(BURN_IN + CHUNK + 10):
            x = min(2.0, max(-2.0, trace_poly(m, x)))
        real = critical_points(m)
        monkeypatch.setattr(lyapunov, "critical_points", lambda k: np.append(real, x))
        res = assert_matches_scalar_loop(m, x0, n)
        assert res.restarts == 1

    def test_many_restarts_across_blocks(self, monkeypatch):
        # a wide critical neighbourhood makes hits frequent in every block
        monkeypatch.setattr(lyapunov, "CRITICAL_EPS", 1e-4)
        res = assert_matches_scalar_loop(5, 0.2345, 2 * CHUNK + 7)
        assert res.restarts >= 10

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("n", [2, 7, 1000, CHUNK + 3, 500_000])
    def test_orbit_on_the_fixed_point_reads_twice_log_m(self, m, n):
        # x0 = 0 reaches 2 in the burn-in (m = 2: 0, -2, 2; m = 4: 0, 2) and
        # stays there: every term is log f_m'(2) = log m^2, so the average is
        # 2 log m, not log m, and the standard error does not show it
        res = average_lyapunov_orbit(m, 0.0, n)
        assert res.restarts == 0
        assert abs(res.value - 2.0 * math.log(m)) <= math.ulp(2.0 * math.log(m))
        assert res.error_estimate <= 1e-16
        assert res.value - math.log(m) > 1e6 * res.error_estimate
        # ... but the result says so
        (warning,) = res.warnings
        assert warning.startswith(f"orbit ended on the fixed point +2 of f_{m}")

    def test_generic_orbit_has_no_warning(self):
        for m in (2, 3, 4):
            assert average_lyapunov_orbit(m, 0.37071, 10_000).warnings == ()
        assert average_lyapunov_quadrature(3).warnings == ()

    def test_agrees_with_quadrature(self):
        for m in (2, 3, 4):
            orbit = average_lyapunov_orbit(m, 0.37071, 300_000)
            quad = average_lyapunov_quadrature(m)
            combined = 3.0 * (orbit.error_estimate + quad.error_estimate)
            assert abs(orbit.value - quad.value) < combined


class TestIIntegral:
    def test_vanishes_at_zero(self):
        assert abs(I_integral(0.0)) < 1e-6

    def test_vanishes_at_plus_minus_one(self):
        assert abs(I_integral(1.0)) < 1e-6
        assert abs(I_integral(-1.0)) < 1e-6

    def test_outside_value(self):
        # logarithmic potential of the arcsine law: log((a + sqrt(a^2-4))/2)
        closed = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        got = I_integral(3.0)
        assert abs(got - closed) < 1e-6
        assert abs(got - I_integral_xform(3.0)) < 1e-6

    def test_even(self):
        for a in (0.5, 1.0, 1.5, 3.0):
            assert abs(I_integral(a) - I_integral(-a)) < 1e-8

    def test_vanishes_on_band(self):
        for a in np.linspace(-1.9, 1.9, 41):
            assert abs(I_integral(float(a))) < 1e-6

    def test_endpoint_singularity(self):
        # |a| = 2 puts the singularity at the integration endpoint
        assert abs(I_integral(2.0)) < 1e-6

    def test_one_ulp_inside_the_edges(self):
        # at a = -(2 - ulp) asin(a/2) rounds, and 2 sin y - a was exactly 0 at
        # a quadrature node beside it (log of 0: a math domain error)
        inside = float(np.nextafter(2.0, 0.0))
        for a in (inside, -inside):
            assert abs(I_integral(a)) < 1e-12

    @pytest.mark.parametrize("gap", [4.4e-16, 1e-13, 1e-11, 1e-8, 1e-4])
    def test_just_outside_the_edges(self, gap):
        # the value, ~sqrt(|a| - 2), is set within phi ~ sqrt(|a| - 2) of the
        # end y = pi/2, where 2 sin y - a cancels and QUADPACK can miss it
        a = 2.0 + gap
        closed = math.log((a + math.sqrt(a * a - 4.0)) / 2.0)
        assert abs(I_integral(a) - closed) < 1e-12
        assert abs(I_integral(-a) - closed) < 1e-12

    @pytest.mark.parametrize("a", [2.2034, 2.2080, 2.2894, 2.4, 2.857, 2.872, 3.8, 3.99])
    def test_bound_within_rel_tol_is_accepted(self, a):
        # where an integral sweep exited 2: QUADPACK stops on its relative
        # rule, err <= rel_tol |I|, with a bound above abs_tol
        closed = math.log((a + math.sqrt(a * a - 4.0)) / 2.0)
        assert abs(I_integral(a) - closed) < 1e-10
        assert abs(I_integral(-a) - closed) < 1e-10
