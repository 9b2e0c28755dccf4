"""Lyapunov exponents of the polynomial and tent families, and the
logarithmic-potential integrals that decompose them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import CHUNK
from .errors import SingularityError
from .maps import MapDescriptor, trace_poly
from .numerics import QUAD_TOL, ToleranceSpec, quad_singular
from .transfer import invariant_density

BURN_IN = 100
CRITICAL_EPS = 1e-13
# An absolute request on the angle integral: with QUAD_TOL's relative part each
# of the m panels may stop at 1e-10 of its own value, and the sum drifts past
# 1e-12 of log m (m = 49, 63, 113); with this one it stays within 4e-13 for m
# up to 128 at the same cost.
EXPONENT_TOL = ToleranceSpec(abs_tol=1e-10, rel_tol=0.0, max_steps=400)


@dataclass(frozen=True)
class LyapunovResult:
    m: int
    value: float
    method: str  # quadrature | orbit_average | piecewise_exact
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


def average_lyapunov_quadrature(
    m: int, tol: ToleranceSpec = EXPONENT_TOL
) -> LyapunovResult:
    """Invariant average of log |f_m'| against the arcsine density.

    In the angle x = 2 cos(theta) the arcsine weight is d(theta) / pi on
    [0, pi], and the only singularities left are the logarithmic ones at the
    critical points theta_j = j pi / m, which are declared to the quadrature.
    The integrand is the recurrence's f_m', not the closed form
    m sin(m theta) / sin(theta), so the result is a numerical check of log m.
    ``error_estimate`` is the quadrature's achieved bound.
    """
    if m < 2:
        raise ValueError("m must be at least 2")

    def integrand(theta: float) -> float:
        return math.log(abs(trace_poly(m, 2.0 * math.cos(theta), derivative=True)))

    sing = [j * math.pi / m for j in range(1, m)]
    val, bound = quad_singular(integrand, 0.0, math.pi, sing, tol)
    return LyapunovResult(m, val / math.pi, "quadrature", bound / math.pi)


def average_lyapunov_orbit(
    m: int,
    x0: float,
    n: int,
    map_family: str = "gen_logistic",
) -> LyapunovResult:
    """Birkhoff average of log |f'| along one orbit, after a fixed burn-in.

    An orbit point landing within machine distance of a critical point is
    perturbed by 1e-9 and the restart is counted.  For the tent family the
    local exponent is log m everywhere, so the average is exact.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    if map_family == "tent":
        return LyapunovResult(m, math.log(m), "piecewise_exact", 0.0)
    if map_family != "gen_logistic":
        raise ValueError("orbit averages cover gen_logistic and tent families")
    if not -2.0 < x0 < 2.0:
        raise ValueError("x0 must lie in (-2, 2)")

    crit = tuple(float(c) for c in critical_points(m))
    restarts = 0
    x = x0
    for _ in range(BURN_IN):
        y = trace_poly(m, x)
        x = -2.0 if y < -2.0 else (2.0 if y > 2.0 else y)

    # log |f'| is taken one CHUNK of the orbit at a time, and the blocks'
    # means and sums of squared deviations are merged by Chan's update.
    block = np.empty(min(n, CHUNK))
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, CHUNK):
        size = min(CHUNK, n - start)
        for i in range(size):
            for c in crit:
                if abs(c - x) < CRITICAL_EPS:
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
        weight = size / (count + size)  # 1.0 for the first block: mean exact
        mean += delta * weight
        m2 += float(np.dot(logs, logs)) + delta * delta * count * weight
        count += size
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
    return LyapunovResult(m, mean, "orbit_average", stderr, restarts)


def I_integral(a: float, tol: ToleranceSpec = QUAD_TOL) -> float:
    """(1/pi) integral of log |2 sin y - a| over [-pi/2, pi/2].

    This is the logarithmic potential of the arcsine law evaluated at ``a``;
    it vanishes identically on [-2, 2] and equals log((|a| + sqrt(a^2 - 4))/2)
    outside.  The integrand's singularity at y = asin(a/2) is declared.
    """
    # |2 sin y - a| in factored forms: near a = +-2 the difference cancels, so
    # that it is 0 in floating point at nodes beside its zero, or rounds away
    # the part that sets the integral's value just outside [-2, 2].
    if abs(a) > 2.0:
        # The integrand dips like log((|a| - 2) + phi^2) within
        # phi ~ sqrt(|a| - 2) of the end y = sign pi/2.  Unsplit, QUADPACK
        # misses a dip narrower than ~3e-6 (|a| - 2 < 1e-11: off by up to
        # 3e-6) while reporting a small bound; split there when it is narrow.
        # (A split at a wide dip, |a| - 2 ~ 0.07-0.26, cuts the integral
        # into panels of opposite sign, which quad_singular meets only on
        # its second, absolute request per panel.)
        sign = math.copysign(1.0, a)
        sing = []
        if abs(a) - 2.0 < 1e-4:
            sing.append(sign * (math.pi / 2.0 - math.sqrt(abs(a) - 2.0)))

        def integrand(y: float) -> float:
            # |a| - 2 sin(sign y) = (|a| - 2) + 4 sin^2((pi/2 - sign y)/2)
            half = math.sin(0.5 * (math.pi / 2.0 - sign * y))
            return math.log((abs(a) - 2.0) + 4.0 * half * half)
    else:
        # 2 sin y - 2 sin y* = 4 sin((y - y*)/2) cos((y + y*)/2)
        ys = math.asin(a / 2.0)
        sing = [ys]

        def integrand(y: float) -> float:
            return (math.log(4.0) + math.log(abs(math.sin(0.5 * (y - ys))))
                    + math.log(abs(math.cos(0.5 * (y + ys)))))

    val, _ = quad_singular(integrand, -math.pi / 2.0, math.pi / 2.0, sing, tol)
    return val / math.pi


def I_integral_xform(a: float, tol: ToleranceSpec = QUAD_TOL) -> float:
    """Independent evaluation of the same potential in the x variable: the
    integral of log |x - a| against the arcsine density on [-2, 2]."""

    def integrand(x: float) -> float:
        return math.log(abs(x - a)) * invariant_density("discriminant_D", x)

    sing = [-2.0, 2.0]
    if -2.0 < a < 2.0:
        sing.append(a)
    return quad_singular(integrand, -2.0, 2.0, sorted(sing), tol)[0]
