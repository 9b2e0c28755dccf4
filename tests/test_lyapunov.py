import math
import subprocess
import sys
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillmap import lyapunov
from hillmap.errors import DomainError
from hillmap.lyapunov import (
    BURN_IN,
    ORBIT_BLOCK,
    I_integral,
    I_integral_xform,
    average_lyapunov_orbit,
    average_lyapunov_quadrature,
    critical_points,
    orbit_kernel,
    roots_fm,
)
from hillmap.maps import MapDescriptor, eval_map, trace_poly
from hillmap.numerics import QUAD_LEVELS, QUAD_TOL, quad_singular

# Every order the angle quadrature is checked at: all of 2-24 (the range the
# Horner-based x quadrature failed from m = 17 on), powers of two up to 128,
# and 49, 63 and 113, where a relative request let the error pass 1e-12.
QUADRATURE_ORDERS = [*range(2, 25), 32, 49, 63, 64, 113, 128]


EDGE = 2.0 - 1e-9


def inside(y):
    """y, or +-(2 - 1e-9) where y lies at or past +-2."""
    return y if abs(y) < 2.0 else math.copysign(EDGE, y)


def scalar_orbit_average(m, x0, n):
    """The orbit average with both moves inside the step, one trace_poly
    call per step: a point at or past +-2 becomes +-(2 - 1e-9), and then a
    point to be stored whose f_m' rounds to 0 becomes x + 1e-9.  Returns
    the mean, the standard error and the number of moves.  Reads BURN_IN
    and ORBIT_BLOCK from the module at call time, so that monkeypatching
    them reaches both this and the package."""
    restarts = 0
    x = x0
    for _ in range(lyapunov.BURN_IN):
        y = trace_poly(m, x)
        x = inside(y)
        restarts += x != y
    chunk = lyapunov.ORBIT_BLOCK
    block = np.empty(min(n, chunk))
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, chunk):
        size = min(chunk, n - start)
        for i in range(size):
            if trace_poly(m, x, derivative=True) == 0.0:
                x += 1e-9
                restarts += 1
            block[i] = x
            y = trace_poly(m, x)
            x = inside(y)
            restarts += x != y
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


def assert_reads_log_m(res):
    # an orbit held on an interior fixed point (x0 = 0 for odd m), where
    # |f_m'| = m, reads log m to rounding with an error_estimate near 0
    assert abs(res.value - math.log(res.m)) <= 4.0 * res.error_estimate + 1e-14, res


def assert_matches_scalar_loop(m, x0, n):
    res = average_lyapunov_orbit(m, x0, n)
    assert (res.value, res.error_estimate, res.restarts) == scalar_orbit_average(m, x0, n)
    if n >= 1000:
        assert_reads_log_m(res)
    return res


# f_5 takes this point to 2.0000000000000004, one ulp past the fixed point 2
ESCAPE_X0 = -1.6180339886488457

# f_m sends every float within about 1e-8 / m of a critical point exactly
# onto +-2.  The float orbit of TRAPPED_X0 under f_3 lands there at step
# 651355, and the orbits of LANDS[m] under f_m at step LANDING; both were
# found by running random starts.
TRAPPED_X0 = 1.1211159951154281
LANDING = 70_000
LANDS = {3: -0.2255264152447778, 24: -1.9180471685166098}


def start_landing_at(m, index):
    """A start whose orbit lands on +-2 at ``index`` after the burn-in:
    a point of the orbit of LANDS[m], stepped by the kernel unmoved."""
    steps = LANDING - lyapunov.BURN_IN - index
    assert steps >= 1
    buf = np.empty(steps)
    x0 = orbit_kernel(m)(LANDS[m], memoryview(buf), 0, steps)
    assert np.abs(buf).max() < 2.0 and abs(x0) < 2.0
    return x0


def same_float(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def same_float_or_nan(got, want):
    return same_float(got, want) or math.isnan(got) and math.isnan(want)


class TestTraceKernels:
    """The compiled orbit step against trace_poly's loop, unclipped, with ==,
    and trace_poly's f_m' on arrays against its scalar calls and, on
    Fractions, against the identity (x^2 - 4) f_m' = m (x f_m - 2 f_(m-1))."""

    @pytest.mark.parametrize("m", range(2, 131))
    def test_f_and_fprime_equal_trace_poly(self, m):
        fill = orbit_kernel(m)
        rng = np.random.default_rng(m)
        edge = float(np.nextafter(2.0, 3.0))
        points = [
            *rng.uniform(-2.0, 2.0, 64), 2.0, -2.0, 0.0, -0.0,
            *critical_points(m), *roots_fm(m),
            edge, -edge, 2.0 + 1e-9, -2.0 - 1e-9, 2.5, -2.5,
        ]
        buf = np.empty(1)
        for x in map(float, points):
            assert same_float(fill(x, memoryview(buf), 0, 1), trace_poly(m, x)), x
            assert same_float(float(buf[0]), x), x
        # 17 points: one group of 16 steps and one step of the remainder
        buf = np.empty(17)
        for x in map(float, points):
            want = [x]
            for _ in range(17):
                want.append(trace_poly(m, want[-1]))
            got = fill(x, memoryview(buf), 0, 17)
            assert all(map(same_float_or_nan, [*buf.tolist(), got], want)), x
        # the quadrature's integrand evaluates f_m' on arrays: the same bits
        xs = np.array(points, dtype=float)
        want = [trace_poly(m, float(x), derivative=True) for x in xs]
        assert all(map(same_float, trace_poly(m, xs, derivative=True).tolist(), want))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 24, 130])
    def test_exact_on_fractions(self, m):
        fill = orbit_kernel(m)
        for x in (Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(2), Fraction(9, 4)):
            buf = [None]
            step = fill(x, buf, 0, 1)
            assert step == trace_poly(m, x) and buf == [x]
            assert type(step) is Fraction
            if m == 1:
                continue
            fm, dfm = trace_poly(m, x), trace_poly(m, x, derivative=True)
            assert (x * x - 4) * dfm == m * (x * fm - 2 * trace_poly(m - 1, x))
            assert type(dfm) is Fraction

    def test_order_one_is_the_identity(self):
        buf = np.full(3, np.nan)
        for x in (0.37071, -0.0, 2.5):
            assert same_float(orbit_kernel(1)(x, memoryview(buf), 0, 3), x)
            assert all(same_float(v, x) for v in buf.tolist())

    @pytest.mark.parametrize("m, x0", [*((m, 0.37071) for m in (2, 3, 4, 5, 7, 24, 64)),
                                       (5, ESCAPE_X0)])
    def test_fill_is_the_bare_recursion(self, m, x0):
        # no clip: from ESCAPE_X0 the orbit leaves [-2, 2] at its first step
        # and runs on to inf and NaN
        n = 10_000
        want = np.empty(n)
        x = x0
        for i in range(n):
            want[i] = x
            x = trace_poly(m, x)
        buf = np.full(n + 2, np.nan)
        # a fill of buf[1:n + 1] leaves both neighbours alone
        got = orbit_kernel(m)(x0, memoryview(buf), 1, n + 1)
        assert same_float(got, x) or math.isnan(got) and math.isnan(x)
        assert np.array_equal(buf[1:-1], want, equal_nan=True)
        assert np.isnan(buf[0]) and np.isnan(buf[-1])
        assert np.isnan(want[-1]) == (x0 == ESCAPE_X0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 24])
    @pytest.mark.parametrize("lo", [0, 1, 15])
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 33, 10_001])
    def test_fill_of_every_length_and_offset(self, m, lo, length):
        # groups of 16 steps, a remainder after them or alone, at offsets
        # that do not start a group on a multiple of 16; NaN on both sides
        # (from ESCAPE_X0 the m = 5 orbit runs on to inf and NaN)
        hi, x0 = lo + length, ESCAPE_X0 if m == 5 else 0.37071
        want = np.full(hi + 2, np.nan)
        x = x0
        for i in range(lo, hi):
            want[i] = x
            x = trace_poly(m, x)
        buf = np.full(hi + 2, np.nan)
        got = orbit_kernel(m)(x0, memoryview(buf), lo, hi)
        assert same_float_or_nan(got, x)
        assert buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 24, 64])
    def test_fill_is_the_clipped_orbit(self, m):
        # the kernel's fill with each point at or past +-2 clipped back to
        # +-(2 - 1e-9) where it lands: the orbit that does so every step,
        # from a generic start and from starts beside the critical points,
        # some of which land on +-2 or round past it
        starts = [(0.37071, 10_000)]
        starts += [(float(c) + d, 200) for c in critical_points(m) for d in (-3e-11, 3e-11)]
        landed = 0
        for x0, n in starts:
            want = np.empty(n)
            x, moved = x0, []
            for i in range(n):
                want[i] = x
                y = trace_poly(m, x)
                x = inside(y)
                if x != y:
                    moved.append(i + 1)
            buf = np.full(n + 2, np.nan)
            got = lyapunov._fill_inside(orbit_kernel(m), x0, buf[1:-1], 0, n)
            assert same_float(got[0], x) and got[1] == moved, x0
            assert np.array_equal(buf[1:-1], want), x0
            assert np.isnan(buf[0]) and np.isnan(buf[-1])
            landed += len(moved)
        assert landed > 0


class TestOrderIsAnInteger:
    @pytest.mark.parametrize("m", [3.0, np.float64(3), "3"])
    def test_non_integral_order_raises_before_compiling(self, m):
        compiled = lyapunov._compile_orbit_kernel.cache_info().misses
        with pytest.raises(TypeError):
            average_lyapunov_quadrature(m)
        with pytest.raises(TypeError):
            average_lyapunov_orbit(m, 0.3, 10)
        with pytest.raises(TypeError):
            orbit_kernel(m)
        assert lyapunov._compile_orbit_kernel.cache_info().misses == compiled

    def test_numpy_integer_order(self):
        assert average_lyapunov_quadrature(np.int64(3)) == average_lyapunov_quadrature(3)
        assert average_lyapunov_orbit(np.int64(3), 0.3, 1000) == average_lyapunov_orbit(3, 0.3, 1000)
        assert orbit_kernel(np.int64(3)) is orbit_kernel(3)

    def test_kernel_compiled_once_per_order(self):
        # the quadrature runs trace_poly itself and compiles nothing
        average_lyapunov_orbit(6, 0.3, 10)
        before = lyapunov._compile_orbit_kernel.cache_info()
        average_lyapunov_orbit(6, 0.4, 10)
        average_lyapunov_quadrature(7)
        after = lyapunov._compile_orbit_kernel.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 1)

    def test_import_compiles_nothing(self):
        root = str(Path(lyapunov.__file__).resolve().parents[1])
        script = (
            f"import sys; sys.path.insert(0, {root!r}); import hillmap.cli\n"
            "from hillmap import lyapunov\n"
            "assert lyapunov._compile_orbit_kernel.cache_info().currsize == 0\n"
        )
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


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
        assert err <= res.error_estimate <= QUAD_TOL / math.pi
        assert err <= (3e-14 if m in (63, 113, 128) else 2e-14)

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
        # the orbit's log |f'| is taken per ORBIT_BLOCK block and the blocks
        # merged; compare with the whole orbit held at once
        m, x0, n = 3, 0.37071, 3 * ORBIT_BLOCK + 5
        res = average_lyapunov_orbit(m, x0, n)
        x = x0
        for _ in range(BURN_IN):
            x = inside(trace_poly(m, x))
        orbit = np.empty(n)
        for i in range(n):
            orbit[i] = x
            x = inside(trace_poly(m, x))
        logs = np.log(np.abs(trace_poly(m, orbit, derivative=True)))
        assert res.restarts == 0
        assert abs(res.value - np.mean(logs)) <= 1e-13
        assert abs(res.error_estimate - np.std(logs, ddof=1) / math.sqrt(n)) <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(2, 8),
        x0=st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
        n=st.integers(1, 2 * ORBIT_BLOCK + 7),
    )
    def test_bit_identical_to_scalar_loop(self, m, x0, n):
        assert_matches_scalar_loop(m, x0, n)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_restart_on_every_critical_point(self, m, monkeypatch):
        # with no burn-in an orbit started on a critical point lands on +-2
        # at its first step, unless f_m(c) rounds just inside; the blocked
        # scan must count and place the move alike
        monkeypatch.setattr(lyapunov, "BURN_IN", 0)
        for c in map(float, critical_points(m)):
            lands = not abs(trace_poly(m, c)) < 2.0
            for n in (1, 2, 2 * ORBIT_BLOCK + 7):
                res = assert_matches_scalar_loop(m, c, n)
                assert res.restarts >= lands

    def test_restart_in_the_second_block(self):
        # a landing at index ORBIT_BLOCK + 10 cuts the second block there
        # and the orbit goes on from +-(2 - 1e-9)
        x0 = start_landing_at(3, ORBIT_BLOCK + 10)
        res = assert_matches_scalar_loop(3, x0, 2 * ORBIT_BLOCK + 7)
        assert res.restarts == 1

    @pytest.mark.parametrize("index", [ORBIT_BLOCK - 1, ORBIT_BLOCK])
    def test_restart_at_a_block_edge(self, index):
        # a landing on the last point of the first block refills one point
        # and carries the step into the next; a landing on the first point
        # of the second block is the first block's carry, moved
        x0 = start_landing_at(3, index)
        res = assert_matches_scalar_loop(3, x0, 2 * ORBIT_BLOCK + 7)
        assert res.restarts == 1

    def test_perturbed_point_critical_again(self, monkeypatch):
        # f_3'(1) is exactly 0: with no burn-in x0 = 1 is moved to 1 + 1e-9
        # and stored untested; that point is still beside the critical
        # point, so its image lands on -2 and is moved in turn
        monkeypatch.setattr(lyapunov, "BURN_IN", 0)
        assert trace_poly(3, 1.0, derivative=True) == 0.0
        assert trace_poly(3, 1.0 + 1e-9) == -2.0
        res = assert_matches_scalar_loop(3, 1.0, ORBIT_BLOCK + 9)
        assert res.restarts == 2

    @pytest.mark.parametrize("n", [ORBIT_BLOCK, ORBIT_BLOCK + 1])
    def test_one_block_and_one_point_more(self, n):
        m, x0 = 3, 0.2345
        assert assert_matches_scalar_loop(m, x0, n).restarts == 0
        assert assert_matches_scalar_loop(m, start_landing_at(m, n - 1), n).restarts == 1

    def test_many_restarts_across_blocks(self, monkeypatch):
        # a zero slope at x0 = +-1 and the landing of its moved point, in
        # one block and across block edges
        monkeypatch.setattr(lyapunov, "BURN_IN", 0)
        for block in (1, 2, 3, ORBIT_BLOCK):
            monkeypatch.setattr(lyapunov, "ORBIT_BLOCK", block)
            for x0 in (1.0, -1.0):
                assert assert_matches_scalar_loop(3, x0, 1000).restarts == 2

    @pytest.mark.parametrize("index", [0, 17, ORBIT_BLOCK - 1, ORBIT_BLOCK])
    def test_planted_hit_at_order_24(self, index):
        # a landing beside one of 23 critical points, planted by the start
        x0 = start_landing_at(24, index)
        assert assert_matches_scalar_loop(24, x0, ORBIT_BLOCK + 3).restarts == 1

    def test_start_on_each_critical_point_at_order_24(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "BURN_IN", 0)
        for c in map(float, critical_points(24)):
            lands = not abs(trace_poly(24, c)) < 2.0
            assert assert_matches_scalar_loop(24, c, 2).restarts >= lands

    def test_trapped_orbit_reads_log_m(self):
        # the float orbit of TRAPPED_X0 lands on 2 after 651355 steps, where
        # f_3 would keep it, reading 1.4817 over 10^6 points
        res = average_lyapunov_orbit(3, TRAPPED_X0, 10**6)
        assert res.restarts >= 1
        assert_reads_log_m(res)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("n", [2, 7, 1000, ORBIT_BLOCK + 3, 500_000])
    def test_orbit_on_the_fixed_point_reads_twice_log_m(self, m, n):
        # x0 = 0 lands on a fixed point in the burn-in (m = 2: 0, -2, 2;
        # m = 4: 0, 2).  The unmoved float orbit stays there, and each of its
        # terms is log |f_m'(2)| = 2 log m, not log m ...
        held = np.empty(BURN_IN + n)
        orbit_kernel(m)(0.0, memoryview(held), 0, held.size)
        logs = np.log(np.abs(trace_poly(m, held[BURN_IN:], derivative=True)))
        assert np.all(held[BURN_IN:] == 2.0) and np.all(logs == math.log(m * m))
        # ... so the orbit average moves it to +-(2 - 1e-9), whence it leaves
        res = average_lyapunov_orbit(m, 0.0, n)
        assert res.restarts == 1
        assert res.error_estimate > 0.0
        if n >= 1000:
            assert_reads_log_m(res)

    def test_generic_orbit_has_no_warning(self):
        # no result carries a warnings field: no orbit can end on +-2
        fields = ["m", "value", "method", "error_estimate", "restarts"]
        for m in (2, 3, 4):
            assert list(asdict(average_lyapunov_orbit(m, 0.37071, 10_000))) == fields
        assert list(asdict(average_lyapunov_quadrature(3))) == fields

    def test_agrees_with_quadrature(self):
        for m in (2, 3, 4):
            orbit = average_lyapunov_orbit(m, 0.37071, 300_000)
            quad = average_lyapunov_quadrature(m)
            combined = 3.0 * (orbit.error_estimate + quad.error_estimate)
            assert abs(orbit.value - quad.value) < combined


def landings(m, x0, steps):
    """The steps of the orbit of x0 whose f_m lands at or past +-2."""
    count, x = 0, x0
    for _ in range(steps):
        y = trace_poly(m, x)
        count += not abs(y) < 2.0
        x = inside(y)
    return count


class TestEscapes:
    """Orbits whose f_m lands on +-2 or rounds past it: the block scan moves
    each such point to +-(2 - 1e-9) where it lands and refills from there,
    and every result equals the scalar loop's, which moves each step."""

    @pytest.mark.parametrize("burn_in", [0, 1, BURN_IN])
    @pytest.mark.parametrize("block", [1, 2, ORBIT_BLOCK])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_start_on_an_escape_point(self, burn_in, block, n, monkeypatch):
        # the escape is the orbit's first step: with no burn-in, the last
        # point of a block of 2 or the carry of a block of 1; with a burn-in
        # of 1, the burn-in's carry
        assert landings(5, ESCAPE_X0, 1) == 1
        monkeypatch.setattr(lyapunov, "BURN_IN", burn_in)
        monkeypatch.setattr(lyapunov, "ORBIT_BLOCK", block)
        res = assert_matches_scalar_loop(5, ESCAPE_X0, n)
        assert res.restarts == 1  # moved back inside, it leaves

    def test_numpy_start_steps_as_a_float(self):
        # a NumPy scalar's unmoved run past the escape would overflow with
        # a warning; the orbit is stepped in Python floats
        res = average_lyapunov_orbit(5, np.float64(ESCAPE_X0), 10)
        assert res == average_lyapunov_orbit(5, ESCAPE_X0, 10)

    @pytest.mark.parametrize("burn_in", [0, BURN_IN])
    def test_starts_beside_every_critical_point(self, burn_in, monkeypatch):
        monkeypatch.setattr(lyapunov, "BURN_IN", burn_in)
        landed = 0
        for m in (4, 5, 8, 16):
            for c in critical_points(m):
                for offset in (1e-12, 2e-11, 3e-11, 1e-10, 5e-9):
                    for x0 in (float(c) - offset, float(c) + offset):
                        assert_matches_scalar_loop(m, x0, 50)
                        landed += landings(m, x0, burn_in + 50) > 0
        assert landed >= 10

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(4, 8),
        j=st.integers(0, 6),
        offset=st.floats(1e-13, 1e-8),
        sign=st.sampled_from([-1.0, 1.0]),
        n=st.integers(1, 300),
        burn_in=st.sampled_from([0, BURN_IN]),
        block=st.sampled_from([1, 2, 3, ORBIT_BLOCK]),
    )
    def test_near_critical_starts_equal_the_scalar_loop(self, m, j, offset, sign, n, burn_in,
                                                        block):
        x0 = float(critical_points(m)[j % (m - 1)]) + sign * offset
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lyapunov, "BURN_IN", burn_in)
            mp.setattr(lyapunov, "ORBIT_BLOCK", block)
            assert_matches_scalar_loop(m, x0, n)


class TestIIntegral:
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, [0.5, math.nan, 3.0]])
    def test_non_finite_a_refused_before_the_quadrature(self, a):
        # nan reached the quadrature and raised NonConvergenceError; inf
        # warned "invalid value" first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                I_integral(a)

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

    @pytest.mark.parametrize("a", [2.0 - 1e-9, -2.0 + 1e-9, 2.0 - 1e-6, 2.0 + 1e-6, 2.0, -2.0])
    def test_xform_beside_the_edges_is_right_or_raises(self, a):
        # x = a sits at or beside an edge, where x = +-(2 - t^2) puts it at
        # t = sqrt(2 -+ a) on [0, sqrt 2], at an end or beside it
        closed = math.acosh(abs(a) / 2.0) if abs(a) > 2.0 else 0.0
        assert abs(I_integral_xform(a) - closed) <= 1e-12

    @pytest.mark.parametrize("a", [2.2e-16, -2.2e-16, 4.4e-16, -4.4e-16, 5e-16, -5e-16])
    def test_xform_beside_zero_converges(self, a, monkeypatch):
        # sqrt(2 -+ a) is the float below sqrt 2: the declared point and the
        # zero move onto the end, so the call converges and no node evaluates
        # log 0 (RuntimeWarning is an error here)
        calls = recorded_quadratures(monkeypatch)
        got = I_integral_xform(a)
        ((_, bound, _),) = calls
        assert abs(got) <= bound.sum()
        assert (bound <= QUAD_TOL).all()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("k", range(3, 15))
    def test_xform_just_outside_the_edges_is_right_or_raises(self, sign, k):
        # log|x - a| has a feature at scale |a| - 2 beside the edge, which is
        # log(t^2 + |a| - 2) beside the end t = 0, where the nodes crowd
        a = sign * (2.0 + 10.0**-k)
        assert abs(I_integral_xform(a) - math.acosh(abs(a) / 2.0)) <= 1e-12

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
        # end y = pi/2, where 2 sin y - a cancels and QUADPACK could miss it
        a = 2.0 + gap
        closed = math.log((a + math.sqrt(a * a - 4.0)) / 2.0)
        assert abs(I_integral(a) - closed) < 1e-12
        assert abs(I_integral(-a) - closed) < 1e-12

    @pytest.mark.parametrize("a", [2.2034, 2.2080, 2.2894, 2.4, 2.857, 2.872, 3.8, 3.99])
    def test_bound_within_rel_tol_is_accepted(self, a):
        # where an integral sweep exited 2 under QUADPACK, which stopped on
        # its relative rule, err <= rel_tol |I|, with a bound above abs_tol
        closed = math.log((a + math.sqrt(a * a - 4.0)) / 2.0)
        assert abs(I_integral(a) - closed) < 1e-10
        assert abs(I_integral(-a) - closed) < 1e-10


# The |a| ranges where an integral sweep exited 2 when the quadrature was
# QUADPACK's: a panel's error bound above the request.
SWEEP_EXIT2_RANGES = ((2.20313, 2.20361), (2.20770, 2.20831), (2.28929, 2.28945),
                      (2.39606, 2.42015), (2.85463, 2.85944), (2.86985, 2.87554),
                      (3.76966, 3.99128))


def log_potential(a):
    return math.log((abs(a) + math.sqrt(a * a - 4.0)) / 2.0) if abs(a) > 2.0 else 0.0


def near_two(ulps):
    """2 moved by ``ulps`` units in the last place (the spacing halves below 2)."""
    return 2.0 + ulps * float(np.spacing(2.0 if ulps > 0 else 1.5))


SIGNED = st.sampled_from([-1.0, 1.0])
A_VALUES = st.one_of(
    st.floats(-6.0, 6.0),
    st.tuples(st.sampled_from(SWEEP_EXIT2_RANGES).flatmap(lambda r: st.floats(*r)), SIGNED),
    st.tuples(st.integers(-64, 64).map(near_two), SIGNED),
).map(lambda a: a[0] * a[1] if isinstance(a, tuple) else a)


class TestIIntegralQuadrature:
    @settings(max_examples=300, deadline=None)
    @given(a=A_VALUES)
    def test_error_within_the_bound_and_bound_within_the_request(self, a):
        calls = []

        def recording(*args, **kwargs):
            calls.append(quad_singular(*args, **kwargs))
            return calls[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lyapunov, "quad_singular", recording)
            got = I_integral(a)
        ((value, bound),) = calls
        assert abs(got - log_potential(a)) <= max(1e-12, bound / math.pi)
        assert bound <= QUAD_TOL

    @settings(max_examples=25, deadline=None)
    @given(lo=st.floats(-6.0, 6.0), hi=st.floats(-6.0, 6.0), count=st.integers(1, 61))
    def test_grid_equals_scalar_calls(self, lo, hi, count):
        grid = np.linspace(min(lo, hi), max(lo, hi), count)
        got = I_integral(grid)
        assert got.shape == grid.shape
        assert np.array_equal(got, [I_integral(float(a)) for a in grid])

    def test_grid_through_the_edges_equals_scalar_calls(self):
        grid = np.array([near_two(k) * s for k in (-3, -1, 0, 1, 3) for s in (-1.0, 1.0)]
                        + [0.0, 2.2034, -3.8, 6.0])
        assert np.array_equal(I_integral(grid), [I_integral(float(a)) for a in grid])
        assert isinstance(I_integral(2.5), float)

    @pytest.mark.parametrize("m", [2, 3, 7, 24])
    def test_each_angle_panel_within_its_bound(self, m):
        # the panels [j pi/m, (j + 1) pi/m] of average_lyapunov_quadrature,
        # each with its share of the request, against a 30-digit quadrature
        # of the closed form log |m sin(m t) / sin t|
        mpmath = pytest.importorskip("mpmath")
        j = np.arange(m)
        lo, hi = j * math.pi / m, (j + 1) * math.pi / m
        lo[0], hi[-1] = 0.0, math.pi
        declared = [np.where(j > 0, lo, np.nan), np.where(j < m - 1, hi, np.nan)]
        share = QUAD_TOL / m
        value, bound = quad_singular(
            lambda t: np.log(np.abs(trace_poly(m, 2.0 * np.cos(t), derivative=True))),
            lo, hi, declared, share)
        with mpmath.workdps(30):
            exact = [mpmath.quad(lambda t: mpmath.log(abs(m * mpmath.sin(m * t) / mpmath.sin(t))),
                                 [mpmath.mpf(float(u)), mpmath.mpf(float(v))])
                     for u, v in zip(lo, hi)]
            # the oracle sums to log m, short of the float pi's missing 1e-16
            assert abs(sum(exact) / mpmath.pi - mpmath.log(m)) < 1e-15
        for k in range(m):
            assert abs(value[k] - float(exact[k])) <= bound[k] <= share, k


def recorded_quadratures(monkeypatch):
    """Patch ``lyapunov.quad_singular`` to record each call's value, bound
    and calls of f."""
    calls = []

    def recording(f, *args, **kwargs):
        count = [0]

        def counted(x, *f_args):
            count[0] += 1
            return f(x, *f_args)

        value, bound = quad_singular(counted, *args, **kwargs)
        calls.append((value, bound, count[0]))
        return value, bound

    monkeypatch.setattr(lyapunov, "quad_singular", recording)
    return calls


class TestQuadratureHeadroom:
    """At the default tolerance the package's integrands close a level or
    more before the kernel's last; that last level serves tighter requests
    beside the edges of [-2, 2]."""

    @pytest.mark.parametrize("m", range(2, 25))
    def test_exponent_closes_before_the_last_level(self, m, monkeypatch):
        calls = recorded_quadratures(monkeypatch)
        average_lyapunov_quadrature(m)
        ((_, _, count),) = calls
        assert count <= QUAD_LEVELS - 1

    def test_readme_sweep_closes_before_the_last_level(self, monkeypatch):
        calls = recorded_quadratures(monkeypatch)
        I_integral(np.linspace(-3.0, 3.0, 61))
        assert len(calls) == 2
        assert all(count <= QUAD_LEVELS - 1 for _, _, count in calls)

    @pytest.mark.parametrize("k", range(1, 16))
    def test_tight_request_beside_the_edges(self, k, monkeypatch):
        tol = 1e-12
        calls = recorded_quadratures(monkeypatch)
        for a in (s * (2.0 + side * 10.0**-k) for s in (1.0, -1.0) for side in (1.0, -1.0)):
            calls.clear()
            got = I_integral(a, tol)
            ((_, bound, _),) = calls
            exact = math.acosh(abs(a) / 2.0) if abs(a) > 2.0 else 0.0
            assert abs(got - exact) <= bound / math.pi, a
