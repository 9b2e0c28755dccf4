"""Lyapunov exponents of the polynomial and tent families, and the
logarithmic-potential integrals that decompose them.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SingularityError
from .maps import MapDescriptor, trace_poly
from .numerics import QUAD_TOL, quad_singular

BURN_IN = 100
ORBIT_BLOCK = 2**16  # orbit points stored, tested and averaged at a time
CRITICAL_EPS = 1e-13
LOG_4 = math.log(4.0)


@dataclass(frozen=True)
class LyapunovResult:
    m: int
    value: float
    method: str  # quadrature | orbit_average
    error_estimate: float
    restarts: int = 0
    warnings: tuple = ()


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
    # the last step assigns x.  Three names rotate as the new value, so the
    # source grows with m and the locals do not.  The start 2 is a local of
    # x's type: with the int literal, x * x - 2 misses CPython's float-float
    # subtraction at every step.
    if m < 1:
        raise ValueError("m must be a positive integer")
    prev, y, lines = "two", "x", []
    for k in range(m - 1):
        new = "x" if k == m - 2 else "abc"[k % 3]
        lines.append(f"{new} = x * {y} - {prev}")
        prev, y = y, new
    source = ("def fill(x, buf, lo, hi):\n"
              "    two = x * 0 + 2\n"
              "    for i in range(lo, hi):\n"
              + "".join(f"        {line}\n" for line in ["buf[i] = x", *lines])
              + "    return x\n")
    namespace = {}
    exec(compile(source, f"<orbit kernel, m = {m}>", "exec"), namespace)
    return namespace["fill"]


def local_lyapunov(md: MapDescriptor, x: float) -> float:
    """log |f'(x)|; raises at tent breakpoints and polynomial critical points."""
    if md.family == "tent":
        t = x * md.m
        if abs(t - round(t)) < CRITICAL_EPS:
            raise SingularityError(f"tent map is not differentiable at x={x!r}")
        return math.log(md.m)
    if md.family == "logistic":
        d = md.r * (1.0 - 2.0 * x)
        if abs(d) < CRITICAL_EPS:
            raise SingularityError(f"critical point of the logistic map at x={x!r}")
        return math.log(abs(d))
    if md.family == "gen_logistic":
        d = trace_poly(md.m, x, derivative=True)
        if abs(d) < math.sqrt(CRITICAL_EPS):
            raise SingularityError(f"critical point at x={x!r}")
        return math.log(abs(d))
    raise ValueError(f"no local exponent for family {md.family!r}")


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


def _slope_bound(m: int, crit: np.ndarray) -> float:
    """Above the computed |f_m'| within CRITICAL_EPS of ``crit``: the max on ``crit``
    plus m^4 CRITICAL_EPS (sup |f_m''| = m^2 (m^2 - 1) / 6, V. A. Markov) and m^4 4 eps."""
    top = float(np.abs(trace_poly(m, crit, derivative=True)).max())
    return top + m**4 * (CRITICAL_EPS + 4 * np.finfo(float).eps)


def _first_critical(xs, slopes, crit, near: float) -> int | None:
    """Index of the first entry of ``xs`` within CRITICAL_EPS of ``crit``, or
    None; only the entries whose |f_m'|, ``slopes``, is below ``near`` are compared."""
    low = np.flatnonzero(slopes < near)
    hits = np.flatnonzero((np.abs(xs[low, None] - crit) < CRITICAL_EPS).any(axis=1))
    return int(low[hits[0]]) if hits.size else None


def _fill_clipped(fill, x, xs: np.ndarray, lo: int, hi: int) -> float:
    """``fill`` of xs[lo:hi] from x, then each escape from [-2, 2] clipped
    to +-2 where it first lands and the rest refilled from there; returns
    the next point, clipped alike.  These are the values of clipping every
    step; the point at xs[lo] is stored as it is."""
    view = memoryview(xs)
    x = fill(x, view, lo, hi)
    # not <= 2: an unclipped run past an escape reaches inf, then NaN
    while (out := np.flatnonzero(~(np.abs(xs[lo + 1:hi]) <= 2.0))).size:
        lo += 1 + int(out[0])
        x = fill(-2.0 if xs[lo] < -2.0 else 2.0, view, lo, hi)
    return -2.0 if x < -2.0 else (2.0 if x > 2.0 else x)


def average_lyapunov_orbit(m: int, x0: float, n: int) -> LyapunovResult:
    """Birkhoff average of log |f_m'| along one orbit of the degree-m map,
    after a fixed burn-in.

    Every step clips f_m to [-2, 2].  The orbit, burn-in included, is
    stepped by ``orbit_kernel(m)``: the trace recursion compiled for this m
    into straight-line code, with the same operations as ``trace_poly`` in
    the same order, and no clip.  One NumPy scan of each filled stretch
    finds the first point outside [-2, 2], clips it and refills the
    stretch from there, so the values are those of clipping every step.
    An escape lands the orbit on +-2, which f_m keeps exactly, so it
    wastes at most one block of steps.  A non-integral m raises TypeError.

    An orbit point landing within machine distance of a critical point is
    perturbed by 1e-9 and the restart is counted; only the points whose
    |f_m'|, taken for the log, is below ``_slope_bound`` are compared with
    the critical points.  The repelling fixed points 2 and -2 hold a float
    orbit that lands on them (m = 2, x0 = 0 goes 0, -2, 2, 2, ...): the
    average then reads log |f_m'(+-2)| = 2 log m, not log m, to an ulp, with
    an ``error_estimate`` of 0 up to the rounding of the mean, so the
    standard error does not show it; ``warnings`` says so when the orbit
    ends on +-2.
    """
    m = operator.index(m)
    if m < 2:
        raise ValueError("m must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    if not -2.0 < x0 < 2.0:
        raise ValueError("x0 must lie in (-2, 2)")

    fill = orbit_kernel(m)
    crit = critical_points(m)
    near = _slope_bound(m, crit)
    restarts = 0
    x = _fill_clipped(fill, float(x0), np.empty(BURN_IN), 0, BURN_IN)

    # The orbit is built one ORBIT_BLOCK block at a time and tested for
    # critical points once per block; a hit at index i refills the block and
    # its |f_m'| from there, starting at the perturbed point, which is stored
    # untested, so the values are those of testing each point before its step.
    # log |f'| is taken per block, and the blocks' means and sums of squared
    # deviations are merged by Chan's update.
    buf = np.empty(min(n, ORBIT_BLOCK))
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, ORBIT_BLOCK):
        size = min(ORBIT_BLOCK, n - start)
        xs = buf[:size]
        x = _fill_clipped(fill, x, xs, 0, size)
        slopes = np.abs(trace_poly(m, xs, derivative=True))
        tested = 0  # xs[:tested] is free of critical points
        while (hit := _first_critical(xs[tested:], slopes[tested:], crit, near)) is not None:
            i = tested + hit
            restarts += 1
            x = _fill_clipped(fill, float(xs[i]) + 1e-9, xs, i, size)
            slopes[i:] = np.abs(trace_poly(m, xs[i:], derivative=True))
            tested = i + 1
        logs = np.log(slopes)
        block_mean = float(np.mean(logs))
        logs -= block_mean
        delta = block_mean - mean
        weight = size / (count + size)  # 1.0 for the first block: mean exact
        mean += delta * weight
        m2 += float(np.dot(logs, logs)) + delta * delta * count * weight
        count += size
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
    warnings = ()
    if abs(x) == 2.0:  # f_m keeps {+-2} exactly: the orbit stays there
        warnings = (f"orbit ended on the fixed point {x:+g} of f_{m}: the average "
                    f"is log |f_{m}'({x:+g})| = 2 log {m}, not log {m}",)
    return LyapunovResult(m, mean, "orbit_average", stderr, restarts, warnings)


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
