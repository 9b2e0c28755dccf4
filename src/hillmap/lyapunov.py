"""Lyapunov exponents of the polynomial and tent families, and the
logarithmic-potential integrals that decompose them.
"""
from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .maps import trace_poly
from .numerics import QUAD_TOL, quad_singular

BURN_IN = 100
ORBIT_BLOCK = 2**16  # orbit points stored, tested and averaged at a time
_UNROLL = 16  # orbit steps per pass of the kernel's main loop, stored in one call
_EDGE = 2.0 - 1e-9  # where an orbit point at or past +-2 is moved
LOG_4 = math.log(4.0)


@dataclass(frozen=True)
class LyapunovResult:
    m: int
    value: float
    method: str  # quadrature | orbit_average
    error_estimate: float
    restarts: int = 0


def critical_points(m: int) -> np.ndarray:
    """Zeros of the degree-m map's derivative: 2 cos(j pi / m), j = 1..m-1."""
    return 2.0 * np.cos(np.pi * np.arange(m - 1, 0, -1) / m)


def roots_fm(m: int) -> np.ndarray:
    """The m real roots 2 cos((2j + 1) pi / (2m)), ascending in (-2, 2)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    j = np.arange(m - 1, -1, -1)
    return 2.0 * np.cos((2 * j + 1) * np.pi / (2 * m))


def orbit_kernel(m: int) -> Callable:
    """``fill(x, buf, lo, hi)``: buf[lo:hi] = the orbit of a finite x under
    f_m, buf[i] set before its step; returns the point after buf[hi - 1].
    Each step is ``trace_poly(m, x)``, bit for bit on floats and exactly on
    Fractions, and nothing else: an orbit that leaves [-2, 2] runs on
    unclipped, to inf and NaN.  Compiled once per process per order.

    ``buf`` is a writable C-contiguous float64 buffer: the points go in
    groups of 16, each stored raw by one ``struct.pack_into`` (so -0, inf
    and NaN keep their bits), and the last (hi - lo) % 16 one at a time,
    so a fill of fewer than 16 points may also go to a list of Fractions.

    A non-integral m raises TypeError here, before the cache is consulted
    (3.0 hashes as 3 and would otherwise be handed the kernel of 3).
    """
    return _compile_orbit_kernel(operator.index(m))


@functools.cache
def _compile_orbit_kernel(m: int) -> Callable:
    # m is an int here: it is the only value formatted into the source.
    # trace_poly's loop is written out, from the same starts with the same
    # operations in the same order, so with the same values on floats and
    # Fractions; the starts are substituted into the first two steps, and
    # the last step assigns its output.  Three names rotate as the new
    # value.  The start 2 is a local of x's type: with the int literal,
    # x * x - 2 misses CPython's float-float subtraction at every step.
    # The main loop writes out _UNROLL steps, x0 = x to x = f_m(x15), and
    # stores them in one pack_into call, so the loop's and the stores'
    # overheads, more than a step's arithmetic at m = 2, are paid once per
    # group; the remainder loop steps and stores one point at a time.
    if m < 1:
        raise ValueError("m must be a positive integer")

    def step(x, out):
        prev, y, lines = "two", x, []
        for k in range(m - 1):
            new = out if k == m - 2 else "abc"[k % 3]
            lines.append(f"{new} = {x} * {y} - {prev}")
            prev, y = y, new
        return lines or [f"{out} = {x}"]  # m = 1: the identity

    names = [f"x{j}" for j in range(_UNROLL)]
    group = ["x0 = x"]
    for x, out in zip(names, [*names[1:], "x"]):
        group += step(x, out)
    source = ("def fill(x, buf, lo, hi):\n"
              "    two = x * 0 + 2\n"
              f"    stop = max(lo, hi - (hi - lo) % {_UNROLL})\n"
              f"    for i in range(lo, stop, {_UNROLL}):\n"
              + "".join(f"        {line}\n" for line in group)
              + f"        pack(buf, 8 * i, {', '.join(names)})\n"
              "    for i in range(stop, hi):\n"
              + "".join(f"        {line}\n" for line in ["buf[i] = x", *step("x", "x")])
              + "    return x\n")
    namespace = {"pack": struct.Struct(f"{_UNROLL}d").pack_into}
    exec(compile(source, f"<orbit kernel, m = {m}>", "exec"), namespace)
    return namespace["fill"]


def average_lyapunov_quadrature(m: int) -> LyapunovResult:
    """Invariant average of log |f_m'| against the arcsine density.

    In the angle x = 2 cos(theta) the arcsine weight is d(theta) / pi on
    [0, pi], and the only singularities left are the logarithmic ones at the
    critical points theta_j = j pi / m, which are declared to the quadrature.
    The integrand is the recurrence's f_m' (``trace_poly``), not the closed
    form m sin(m theta) / sin(theta), so the result is a numerical check of
    log m.  ``error_estimate`` is the quadrature's achieved bound.  A
    non-integral m raises TypeError.
    """
    m = operator.index(m)
    if m < 2:
        raise ValueError("m must be at least 2")

    floor = m * m * np.finfo(float).eps  # f_m' rounds to 0 at nodes beside theta_j

    def integrand(theta: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(np.abs(trace_poly(m, 2.0 * np.cos(theta), derivative=True)),
                                 floor))

    sing = [j * math.pi / m for j in range(1, m)]
    val, bound = quad_singular(integrand, 0.0, math.pi, sing, QUAD_TOL)
    return LyapunovResult(m, val / math.pi, "quadrature", bound / math.pi)


def _fill_inside(fill, x, xs: np.ndarray, lo: int, hi: int) -> tuple[float, list[int]]:
    """``fill`` of xs[lo:hi] from x, then each point that lands at or past
    +-2 moved to +-(2 - 1e-9) where it first lands and the rest refilled
    from there; returns the next point, moved alike, and the indices of the
    moved points, hi for the next point.  These are the values of moving
    every step; the point at xs[lo] is stored as it is."""
    view = memoryview(xs)
    x = fill(x, view, lo, hi)
    moved = []
    # not >= 2: an unmoved run past an escape reaches inf, then NaN
    while (out := np.flatnonzero(~(np.abs(xs[lo + 1:hi]) < 2.0))).size:
        lo += 1 + int(out[0])
        moved.append(lo)
        x = fill(math.copysign(_EDGE, xs[lo]), view, lo, hi)
    if not abs(x) < 2.0:
        moved.append(hi)
        x = math.copysign(_EDGE, x)
    return x, moved


def average_lyapunov_orbit(m: int, x0: float, n: int) -> LyapunovResult:
    """Birkhoff average of log |f_m'| along one orbit of the degree-m map,
    after a fixed burn-in.

    f_m keeps the repelling fixed points +-2, and sends every float within
    about 1e-8 / m of a critical point exactly onto one of them, so a float
    orbit would be trapped there for good and read log |f_m'(+-2)| =
    2 log m.  So every point that lands at or past +-2 is moved to
    +-(2 - 1e-9), from where the orbit leaves in about 15 steps; a point
    whose |f_m'| rounds to 0, the one term the log cannot take, is moved
    by +1e-9 and stored as it is.  ``restarts`` counts both kinds of move,
    the burn-in's included.

    The orbit, burn-in included, is stepped by ``orbit_kernel(m)``: the
    trace recursion compiled for this m into straight-line code, with the
    same operations as ``trace_poly`` in the same order, and no test.  One
    NumPy scan of each filled stretch finds the first point not inside
    (-2, 2), moves it and refills the stretch from there, so the values
    are those of testing every step.  A non-integral m raises TypeError.
    """
    m = operator.index(m)
    if m < 2:
        raise ValueError("m must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    if not -2.0 < x0 < 2.0:
        raise ValueError("x0 must lie in (-2, 2)")

    fill = orbit_kernel(m)
    x, moved = _fill_inside(fill, float(x0), np.empty(BURN_IN), 0, BURN_IN)
    restarts = len(moved)

    # The orbit is built one ORBIT_BLOCK block at a time and its |f_m'|
    # tested for 0 once per block; a zero at index i refills the block and
    # its |f_m'| from there, starting at the moved point, which is stored
    # untested, so the values are those of testing each point as it is
    # stored.  log |f'| is taken per block, and the blocks' means and sums
    # of squared deviations are merged by Chan's update.
    buf = np.empty(min(n, ORBIT_BLOCK))
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, ORBIT_BLOCK):
        size = min(ORBIT_BLOCK, n - start)
        xs = buf[:size]
        x, moved = _fill_inside(fill, x, xs, 0, size)
        slopes = np.abs(trace_poly(m, xs, derivative=True))
        tested = 0  # slopes[:tested] holds no zero
        while (zeros := np.flatnonzero(slopes[tested:] == 0.0)).size:
            i = tested + int(zeros[0])
            x, tail = _fill_inside(fill, float(xs[i]) + 1e-9, xs, i, size)
            moved = [j for j in moved if j <= i] + [i, *tail]  # the refill replaced the rest
            slopes[i:] = np.abs(trace_poly(m, xs[i:], derivative=True))
            tested = i + 1
        restarts += len(moved)
        logs = np.log(slopes)
        block_mean = float(np.mean(logs))
        logs -= block_mean
        delta = block_mean - mean
        weight = size / (count + size)  # 1.0 for the first block: mean exact
        mean += delta * weight
        m2 += float(np.dot(logs, logs)) + delta * delta * count * weight
        count += size
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
    return LyapunovResult(m, mean, "orbit_average", stderr, restarts)


def _log_gap_outside(phi, gap):
    # |a| - 2 sin(sign y) = (|a| - 2) + 4 sin^2(phi/2), phi = pi/2 - sign y
    half = np.sin(0.5 * phi)
    return np.log(gap + 4.0 * half * half)


def _log_gap_inside(y, ys):
    # 2 sin y - 2 sin y* = 4 sin((y - y*)/2) cos((y + y*)/2)
    return (LOG_4 + np.log(np.abs(np.sin(0.5 * (y - ys))))
            + np.log(np.abs(np.cos(0.5 * (y + ys)))))


def I_integral(a, tol: float = QUAD_TOL):
    """(1/pi) integral of log |2 sin y - a| over [-pi/2, pi/2].

    This is the logarithmic potential of the arcsine law evaluated at ``a``;
    it vanishes identically on [-2, 2] and equals log((|a| + sqrt(a^2 - 4))/2)
    outside.  The integrand's singularity at y = asin(a/2) is declared.
    ``a`` may be an array: every element is integrated in the same
    quadrature calls, one for the elements inside (-2, 2) and one for the
    others, and each value equals that of a scalar call bit for bit.  A
    scalar gives a float.  A non-finite ``a`` raises DomainError.
    """
    # |2 sin y - a| in factored forms: near a = +-2 the difference cancels, so
    # that it is 0 in floating point at nodes beside its zero, or rounds away
    # the part that sets the integral's value just outside [-2, 2].  There
    # the integrand dips like log((|a| - 2) + phi^2) within phi ~ sqrt(|a| - 2)
    # of the end y = sign pi/2, phi = 0 (log phi^2 at |a| = 2): in phi the end
    # is 0, where the floats, like the tanh-sinh nodes, crowd.
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise DomainError("I_integral needs a finite a")
    out = np.empty(a.shape)
    outside = np.abs(a) >= 2.0
    if outside.any():
        out[outside] = quad_singular(_log_gap_outside, 0.0, math.pi, [0.0], tol,
                                     args=(np.abs(a[outside]) - 2.0,))[0]
    if not outside.all():
        ys = np.arcsin(a[~outside] / 2.0)
        out[~outside] = quad_singular(_log_gap_inside, -math.pi / 2.0, math.pi / 2.0, [ys], tol,
                                      args=(ys,))[0]
    out /= math.pi
    return float(out) if out.ndim == 0 else out


def _log_gap_halves(t, u):
    # |x - a| = |u - t^2| on a half x = s (2 - t^2), with u = 2 - s a: where
    # u > 0 as |sqrt u - t| (sqrt u + t), which keeps the zero at sqrt u
    su = np.sqrt(np.maximum(u, 0.0))
    gap = np.abs(su - t) * (su + t) + np.maximum(-u, 0.0)
    return np.log(gap) * (2.0 / math.pi) / np.sqrt(4.0 - t * t)


def I_integral_xform(a: float, tol: float = QUAD_TOL) -> float:
    """Independent evaluation of the same potential in the x variable: the
    integral of log |x - a| against the arcsine density on [-2, 2].

    Each half x = s (2 - t^2), s = +-1, t in [0, sqrt 2], takes the arcsine
    weight to 2 / (pi sqrt(4 - t^2)) dt, with no singular end.  The point
    t = sqrt(2 - s a), where x = a, is declared.  Both halves run in one
    quadrature call, each held to ``tol``.
    """
    u = 2.0 - np.array([1.0, -1.0]) * a
    # A sqrt u one float below sqrt 2 leaves no float past it and puts the
    # zero on an outermost node: u = 2 moves both onto the end (a ~ 0, I = 0)
    u[np.sqrt(np.maximum(u, 0.0)) == np.nextafter(math.sqrt(2.0), 0.0)] = 2.0
    halves = quad_singular(_log_gap_halves, 0.0, math.sqrt(2.0), [np.sqrt(np.maximum(u, 0.0))],
                           tol, args=(u,))[0]
    return float(halves.sum())
