"""The iterated maps and their conjugacies: the logistic family, the monic
trace-recursion polynomials, multiple-tent and folding maps, Chebyshev
polynomials, explicit orbit formulas, and m-ary digit arithmetic.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hill
from .errors import DomainError, DomainEscapeError
# find_root is not called here; it stays importable as maps.find_root, the
# name under which perfbench/tracing.py counts root solves.
from .numerics import find_root, trace_poly  # noqa: F401

_FAMILIES = ("logistic", "gen_logistic", "tent", "fold", "chebyshev")


@dataclass(frozen=True)
class MapDescriptor:
    """Closed description of one iterated interval map."""

    family: str
    m: int | None = None
    r: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "logistic":
            if self.r is None or self.r <= 0:
                raise ValueError("logistic map needs a positive growth rate r")
        elif self.m is None or self.m < 1:
            raise ValueError(f"{self.family} map needs a positive integer order")

    @classmethod
    def logistic(cls, r: float = 4.0) -> "MapDescriptor":
        return cls("logistic", r=float(r))

    @classmethod
    def gen_logistic(cls, m: int) -> "MapDescriptor":
        return cls("gen_logistic", m=int(m))

    @classmethod
    def tent(cls, m: int) -> "MapDescriptor":
        return cls("tent", m=int(m))

    @classmethod
    def fold(cls, l: int) -> "MapDescriptor":
        return cls("fold", m=int(l))

    @classmethod
    def chebyshev(cls, m: int) -> "MapDescriptor":
        return cls("chebyshev", m=int(m))

    @property
    def domain(self) -> tuple[float, float]:
        return {
            "logistic": (0.0, 1.0),
            "gen_logistic": (-2.0, 2.0),
            "tent": (0.0, 1.0),
            "fold": (0.0, math.inf),
            "chebyshev": (-1.0, 1.0),
        }[self.family]

    def contains(self, x, slack: float = 1e-9) -> bool:
        """Whether x (every entry of an ndarray) lies in the domain widened
        by ``slack``; NaN never does, and Fractions compare exactly."""
        lo, hi = self.domain
        if isinstance(x, np.ndarray):
            return bool(np.all(x >= lo - slack) and np.all(x <= hi + slack))
        return bool(lo - slack <= x <= hi + slack)


@dataclass(frozen=True)
class PolynomialCoeffs:
    """Real polynomial coefficients, highest degree first."""

    coefficients: tuple

    def __call__(self, x):
        """Horner's rule: exact on ints and Fractions.  For floats on [-2, 2]
        use :func:`trace_poly`, whose rounding error does not grow with the
        coefficients."""
        acc = 0 * x
        for c in self.coefficients:
            acc = acc * x + c
        return acc


@functools.lru_cache(maxsize=None)
def gen_logistic_coeffs(m: int) -> PolynomialCoeffs:
    """Coefficients of the monic degree-m trace polynomial.

    Defined by trace(A^m) = f_m(trace(A)) for 2x2 matrices with det 1, which
    gives the recursion f_{k+1}(x) = x f_k(x) - f_{k-1}(x) with f_0 = 2 and
    f_1 = x.  Only powers x^(m-2r) appear and the coefficients are integers.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    prev = [2]  # f_0
    cur = [1, 0]  # f_1
    if m == 1:
        return PolynomialCoeffs((1, 0))
    for _ in range(m - 1):
        lifted = cur + [0]  # x * cur
        padded = [0] * (len(lifted) - len(prev)) + prev
        prev, cur = cur, [a - b for a, b in zip(lifted, padded)]
    return PolynomialCoeffs(tuple(cur))


def _tent_eval(x, slope: int):
    """Piecewise-linear fold of slope +-slope onto [0, 1].

    Works elementwise on ndarrays and exactly on Fractions; a point exactly on
    a breakpoint gets the shared value of the two adjoining pieces.
    """
    t = x * slope
    u = t - 2 * (t // 2)  # t mod 2, exact for Fraction and float
    if isinstance(u, np.ndarray):
        return np.where(u <= 1, u, 2 - u)
    return u if u <= 1 else 2 - u


def eval_map(md: MapDescriptor, x):
    """Apply the map once; accepts scalars, Fractions, or ndarrays."""
    if not md.contains(x):
        raise DomainError(f"{x!r} is outside the domain of the {md.family} map")
    return _apply(md, x)


def _apply(md: MapDescriptor, x):
    """One step of the map, x unchecked."""
    if md.family == "logistic":
        return md.r * x * (1 - x)
    if md.family == "gen_logistic":
        return trace_poly(md.m, x)
    if md.family in ("tent", "fold"):
        return _tent_eval(x, md.m)
    return trace_poly(md.m, 2 * x) / 2  # T_m(x) = f_m(2x) / 2


@dataclass(frozen=True)
class Orbit:
    """A finite forward orbit; values[0] = x0 and each entry is one map step."""

    map: MapDescriptor
    x0: float
    values: np.ndarray


def iterate(md: MapDescriptor, x0: float, n: int) -> Orbit:
    """Orbit of length n + 1.  Raises if iteration leaves the domain."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not md.contains(x0, slack=0.0):
        raise DomainError(f"x0={x0!r} is outside the domain of the {md.family} map")
    values = np.empty(n + 1)
    values[0] = x0
    x = x0
    for i in range(n):
        x = _apply(md, x)  # x0 is checked above, each later x below
        if not md.contains(x):
            raise DomainEscapeError(
                f"orbit left the domain at step {i + 1} (value {x!r})",
                step=i + 1,
                value=x,
            )
        values[i + 1] = x
    return Orbit(md, x0, values)


# Conjugacies -----------------------------------------------------------------

def conj_cosine(x: float) -> float:
    """C(x) = 2 cos(pi x), conjugating the tent family to the polynomials."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("conj_cosine expects x in [0, 1]")
    return 2.0 * math.cos(math.pi * x)


def conj_cosine_inv(delta: float) -> float:
    if not -2.0 <= delta <= 2.0:
        raise DomainError("conj_cosine_inv expects delta in [-2, 2]")
    return math.acos(delta / 2.0) / math.pi


def conj_mandelbrot(delta: float) -> float:
    """x = (2 - delta) / 4: trace coordinates to logistic coordinates."""
    return (2.0 - delta) / 4.0


def conj_mandelbrot_inv(x: float) -> float:
    return 2.0 - 4.0 * x


# Explicit orbit formulas -----------------------------------------------------

def sine_formula(x0: float, n: int) -> float:
    """Closed-form logistic (r=4) orbit: sin^2(2^n asin(sqrt(x0)))."""
    if not 0.0 <= x0 <= 1.0:
        raise DomainError("x0 must lie in [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.sin(2.0**n * math.asin(math.sqrt(x0))) ** 2


# The cosine-cell pipeline solves u'' + cos(2 pi x) u = lam u (oscillator
# sign convention).  In the standard -u'' + V u form that is potential
# -cos(2 pi x) at spectral parameter -lam, which is how we evaluate it.
_MATHIEU_V = hill.Potential.cosine(amplitude=-1.0)


@functools.cache
def _mathieu_bands() -> hill.BandList:
    """The bands of the cell up to pi^2 + max V, past which band 1 cannot
    end: it lies in [min V, pi^2 + max V], so the list holds it whole."""
    return hill.spectrum_bands(_MATHIEU_V, 1.0, math.pi**2 + _MATHIEU_V.max_value())


def mathieu_lambda0() -> float:
    """Leftmost parameter of the invertible branch: x(lambda0) = 1, the top
    edge of the first band."""
    return -_mathieu_bands().bands[0][1]


# No caller in the package: the branch end stays a named function for the
# tests and for perfbench/tracing.py, which wraps it.
def _mathieu_lambda_top() -> float:
    """Right end of the invertible branch: x(lambda_top) = 0 (trace = 2),
    the bottom edge of the first band.  It sits just above 0 because the
    cell's spectral floor is slightly below the mean of the potential."""
    return -_mathieu_bands().bands[0][0]


def mathieu_formula(x0: float, n):
    """Logistic (r=4) orbit value x_n through the cosine-cell discriminants.

    The invertible branch x in [0, 1] is the first band, on which the trace
    2 - 4 x runs from 2 to -2: the point with trace 2 cos k is the first
    band function at quasi-momentum k.  Returns (2 - Delta_(2^n)(lam)) / 4
    there: doubling the cell squares the transfer matrix, so Delta_(2^n) is
    Delta_1(lam) taken n times through the logistic recursion d^2 - 2.

    An int n gives a float.  A sequence of step counts gives an array of
    their x_n, each exactly the int's value, from one band function and one
    discriminant, squared once up to the largest n.
    """
    if not 0.0 <= x0 <= 1.0:
        raise DomainError("x0 must lie in [0, 1]")
    steps = [operator.index(m) for m in (n if np.ndim(n) else [n])]
    if min(steps, default=0) < 0:
        raise ValueError("n must be nonnegative")
    k = math.pi * conj_cosine_inv(conj_mandelbrot_inv(x0))
    mu = hill.band_function(_MATHIEU_V, 1.0, _mathieu_bands(), 1, k)
    delta = float(hill.discriminant(_MATHIEU_V, 1.0, mu))
    deltas = [delta]
    for _ in range(max(steps, default=0)):
        delta = delta * delta - 2.0
        deltas.append(delta)
    x = [conj_mandelbrot(deltas[m]) for m in steps]
    return np.array(x) if np.ndim(n) else x[0]


# m-ary digit arithmetic ------------------------------------------------------

def mary_digits(x, m: int, count: int) -> list[int]:
    """First ``count`` digits of the m-ary expansion of x in [0, 1).

    Greedy digit extraction; ties resolve toward the terminating expansion.
    Pass a ``fractions.Fraction`` for exact digits of a rational.
    """
    if m < 2:
        raise ValueError("base m must be at least 2")
    if count < 1:
        raise ValueError("count must be positive")
    if not 0 <= x < 1:
        raise DomainError("x must lie in [0, 1)")
    digits = []
    frac = x
    for _ in range(count):
        frac = frac * m
        d = int(frac)  # floor for nonnegative values
        digits.append(d)
        frac = frac - d
    return digits


def digit_shift_predict(digits: Sequence[int], m: int) -> list[int]:
    """Digit action of one tent-map step: shift left, flipping after an odd lead.

    If the leading digit is even the remaining digits shift up one place; if
    odd they shift and complement to m - 1.
    """
    if m < 2:
        raise ValueError("base m must be at least 2")
    if any(not 0 <= d < m for d in digits):
        raise ValueError("digits must lie in 0..m-1")
    rest = list(digits[1:])
    if digits[0] % 2 == 0:
        return rest
    return [m - 1 - d for d in rest]
