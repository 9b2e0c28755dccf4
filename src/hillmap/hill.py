"""Periodic Hill operators -d^2/dx^2 + V(x): potentials, monodromy matrices,
discriminants, spectral bands, and the universal discriminant density.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError
from .numerics import IVP_TOL, ToleranceSpec, find_root, find_roots, integrate_ivp

TWO_PI = 2.0 * math.pi

# How close a monodromy determinant must stay to 1.
DET_TOL = 1e-8


@dataclass(frozen=True)
class Potential:
    """A real periodic potential.

    ``kind`` is one of ``constant``, ``cosine``, ``piecewise_linear``,
    ``tabulated``; ``params`` holds the kind-specific data.  Instances are
    immutable and hashable so they can key caches.
    """

    period: float
    kind: str
    params: tuple

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be positive")
        # Interpolation table (nodes, values) over one period, built once: the
        # ODE kernels evaluate V once per right-hand side.  Not a field, so
        # equality and the hash see only the defining data.
        table = None
        if self.kind == "piecewise_linear":
            bp, vals = self.params
            table = (np.array([*bp, bp[0] + self.period]), np.array([*vals, vals[0]]))
        elif self.kind == "tabulated":
            (vals,) = self.params
            n = len(vals)
            table = (np.arange(n + 1) * (self.period / n), np.array([*vals, vals[0]]))
        object.__setattr__(self, "_table", table)

    @classmethod
    def constant(cls, value: float, period: float = 1.0) -> "Potential":
        return cls(period, "constant", (float(value),))

    @classmethod
    def free(cls, period: float = 1.0) -> "Potential":
        return cls.constant(0.0, period)

    @classmethod
    def cosine(
        cls, amplitude: float = 1.0, frequency: float = TWO_PI, period: float = 1.0
    ) -> "Potential":
        cycles = frequency * period / TWO_PI
        if abs(cycles - round(cycles)) > 1e-9 or round(cycles) == 0:
            raise ValueError("frequency * period must be a nonzero multiple of 2*pi")
        return cls(period, "cosine", (float(amplitude), float(frequency)))

    @classmethod
    def piecewise_linear(
        cls, breakpoints: Sequence[float], values: Sequence[float], period: float = 1.0
    ) -> "Potential":
        bp = tuple(float(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if len(bp) != len(vals) or len(bp) < 1:
            raise ValueError("need matching, nonempty breakpoints and values")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[-1] - bp[0] >= period:
            raise ValueError("breakpoints must fit within one period")
        return cls(period, "piecewise_linear", (bp, vals))

    @classmethod
    def tabulated(cls, samples: Sequence[float], period: float = 1.0) -> "Potential":
        vals = tuple(float(v) for v in samples)
        if len(vals) < 2:
            raise ValueError("need at least two samples")
        return cls(period, "tabulated", (vals,))

    def __call__(self, x):
        """Evaluate V at x (scalar or ndarray); periodic in ``period``."""
        if self.kind == "constant":
            (a,) = self.params
            return a + 0.0 * np.asarray(x) if isinstance(x, np.ndarray) else a
        if self.kind == "cosine":
            amp, freq = self.params
            return amp * np.cos(freq * x)
        if self.kind in ("piecewise_linear", "tabulated"):
            xp, fp = self._table
            out = np.interp((np.asarray(x) - xp[0]) % self.period + xp[0], xp, fp)
            return out if isinstance(x, np.ndarray) else float(out)
        raise ValueError(f"unknown potential kind {self.kind!r}")

    def breakpoints_in(self, t0: float, t1: float) -> list[float]:
        """Non-smooth points of V inside (t0, t1), for the integrator."""
        if self.kind in ("constant", "cosine"):
            return []
        if self.kind == "piecewise_linear":
            base = np.array(self.params[0])
        else:
            n = len(self.params[0])
            base = np.arange(n) * (self.period / n)
        k0 = math.floor((t0 - base[-1]) / self.period)
        k1 = math.ceil((t1 - base[0]) / self.period)
        pts = (base[None, :] + self.period * np.arange(k0, k1 + 1)[:, None]).ravel()
        return [float(p) for p in pts if t0 < p < t1]

    def min_value(self) -> float:
        """Sampled minimum over one period (lower bound of the spectrum)."""
        if self.kind == "constant":
            return self.params[0]
        xs = np.linspace(0.0, self.period, 2049)
        xs = np.append(xs, self.breakpoints_in(0.0, self.period))
        return float(np.min(self(xs)))


@dataclass(frozen=True)
class Monodromy:
    """Unit-cell transfer matrix of a Hill operator at spectral parameter lam.

    Columns propagate the solution basis with phi(0)=psi'(0)=1,
    phi'(0)=psi(0)=0 across ``[0, cell_length]``; the determinant (the
    Wronskian) is identically 1.
    """

    entries: np.ndarray
    cell_length: float
    lam: float

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("entries must be a 2x2 matrix")
        object.__setattr__(self, "entries", m)
        # ad - bc cancels catastrophically once entries blow up (hyperbolic
        # lam far below the spectrum), so the 1e-8 contract is checked on the
        # scale where double precision can represent it at all.
        scale = max(1.0, float(np.max(np.abs(m))) ** 2 * 1e-6)
        if abs(self.det - 1.0) > DET_TOL * scale:
            raise ValueError(f"determinant {self.det} is not within {DET_TOL} of 1")

    @property
    def det(self) -> float:
        m = self.entries
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    @property
    def trace(self) -> float:
        return float(self.entries[0, 0] + self.entries[1, 1])


def _check_cell_length(V: Potential, l: float) -> None:
    if not l > 0:
        raise ValueError("cell length must be positive")
    if V.kind == "constant":
        return  # constant potentials have every period
    ratio = l / V.period
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) == 0:
        raise ValueError("cell length must be a positive multiple of the period")


def monodromy(
    V: Potential, l: float, lam: float, tol: ToleranceSpec = IVP_TOL
) -> Monodromy:
    """Transfer matrix over ``[0, l]`` for ``-u'' + V u = lam u``."""
    _check_cell_length(V, l)

    def rhs(t, y):
        w = V(t) - lam
        return np.array([y[1], w * y[0], y[3], w * y[2]])

    y = integrate_ivp(rhs, [1.0, 0.0, 0.0, 1.0], 0.0, l, tol, V.breakpoints_in(0.0, l))
    entries = np.array([[y[0], y[2]], [y[1], y[3]]])
    return Monodromy(entries, l, lam)


def monodromy_power(M: Monodromy, m: int) -> Monodromy:
    """M^m by binary exponentiation of the stored entries (no re-integration)."""
    if m < 1:
        raise ValueError("power must be a positive integer")
    result = np.eye(2)
    base = M.entries.copy()
    k = m
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return Monodromy(result, M.cell_length * m, M.lam)


def discriminant(M: Monodromy) -> float:
    """Trace of the transfer matrix; |trace| <= 2 characterises the spectrum."""
    return M.trace


def eigenvalue_class(delta: float, parabolic_tol: float = 1e-12) -> str:
    """Classify the transfer-matrix eigenvalues from the trace.

    ``elliptic``: two conjugate unit-modulus eigenvalues (|delta| < 2);
    ``parabolic``: repeated eigenvalue +-1 (|delta| = 2);
    ``hyperbolic``: distinct reals with product 1 (|delta| > 2).
    """
    gap = abs(delta) - 2.0
    if abs(gap) <= parabolic_tol:
        return "parabolic"
    return "elliptic" if gap < 0 else "hyperbolic"


def discriminant_density(delta: float) -> float:
    """Universal density of discriminant values, (1/pi)/sqrt(4 - delta^2)."""
    if not -2.0 < delta < 2.0:
        raise DomainError("discriminant density is defined on the open (-2, 2)")
    return 1.0 / (math.pi * math.sqrt(4.0 - delta * delta))


@dataclass(frozen=True)
class BandList:
    """Ordered spectral bands [a_i, b_i]; consecutive bands may touch."""

    bands: tuple
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        prev_b = -math.inf
        prev_a = -math.inf
        for a, b in self.bands:
            if not (a < b and a >= prev_b and a > prev_a):
                raise ValueError("bands must be ordered with a_1 < b_1 <= a_2 < b_2 ...")
            prev_a, prev_b = a, b

    def to_json(self) -> str:
        return json.dumps(
            {"bands": [list(b) for b in self.bands], "warnings": list(self.warnings)}
        )


def _disc_batch(
    V: Potential, l: float, lams: np.ndarray, tol: ToleranceSpec
) -> np.ndarray:
    """Discriminants for a whole grid of spectral parameters in one solve."""
    lams = np.asarray(lams, dtype=float)
    n = lams.size

    def rhs(t, y):
        z = y.reshape(4, n)
        w = V(t) - lams
        return np.concatenate([z[1], w * z[0], z[3], w * z[2]])

    y0 = np.concatenate([np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)])
    y = integrate_ivp(rhs, y0, 0.0, l, tol, V.breakpoints_in(0.0, l))
    z = y.reshape(4, n)
    return z[0] + z[3]


# scipy's step control bounds the RMS of the error over all components, so in
# a stack of c components a single one may be off by sqrt(c) times the request.
# _traces divides both tolerances by sqrt(c), which bounds every lam on its
# own.  It stacks at most _TRACE_STACK lams per solve, so the reduced rel_tol
# stays above the 100 eps floor of integrate_ivp for every rel_tol >= 1e-11.
_TRACE_STACK = 64


def _traces(
    V: Potential, l: float, lams, tol: ToleranceSpec, derivative: bool = False
):
    """Delta(lam) for an array of lam, each held to ``tol``, in stacked solves.

    With ``derivative`` returns (Delta, dDelta/dlam), the derivative from the
    variational equations.
    """
    lams = np.asarray(lams, dtype=float)
    delta = np.empty(lams.shape)
    ddelta = np.empty(lams.shape)
    rows = 8 if derivative else 4
    order = np.argsort(lams, axis=None)  # close lams share a stack's step sizes
    stacks = np.array_split(order, -(-lams.size // _TRACE_STACK)) if lams.size else []
    for idx in stacks:
        lam = lams.flat[idx]
        n = lam.size
        shrink = math.sqrt(rows * n)
        stack_tol = ToleranceSpec(
            tol.abs_tol / shrink, tol.rel_tol / shrink, tol.max_steps
        )
        if not derivative:
            delta.flat[idx] = _disc_batch(V, l, lam, stack_tol)
            continue

        # rows u1, u1', du1/dlam, du1'/dlam, then the same for u2
        def rhs(t, y):
            z = y.reshape(8, n)
            w = V(t) - lam
            return np.concatenate([
                z[1], w * z[0], z[3], w * z[2] - z[0],
                z[5], w * z[4], z[7], w * z[6] - z[4],
            ])

        y0 = np.zeros((8, n))
        y0[0] = y0[5] = 1.0
        y = integrate_ivp(rhs, y0.ravel(), 0.0, l, stack_tol, V.breakpoints_in(0.0, l))
        z = y.reshape(8, n)
        delta.flat[idx] = z[0] + z[5]
        ddelta.flat[idx] = z[2] + z[7]
    return (delta, ddelta) if derivative else delta


# Accuracy in lam of refined band edges, touch points and dispersion points.
_EDGE_TOL = ToleranceSpec(1e-10, 0.0, 256)


def _refine_tol(tol: ToleranceSpec) -> ToleranceSpec:
    """Per-lam tolerance of the traces behind refined edges and dispersion
    points: a decade below ``tol``, no tighter than 1e-11.  An edge inherits
    the trace's error divided by |dDelta/dlam|, which is ~5e-3 beside the
    0.76-wide gap at lam ~ 39.3 of the cosine cell A = 7.8326; at 1e-10 that
    edge is ~2e-9 off, at 1e-11 ~1.5e-10."""
    return ToleranceSpec(
        max(tol.abs_tol / 10, 1e-11), max(tol.rel_tol / 10, 1e-11), tol.max_steps
    )


def _level_roots(V: Potential, l: float, lo, hi, levels, refine: ToleranceSpec):
    """lam in each bracket [lo, hi] with Delta(lam) = level, all brackets in
    one batched root solve.  A bracket whose ends do not straddle its level
    at ``refine`` takes find_root over monodromy, even-root branch included."""
    roots = find_roots(
        lambda x, level: _traces(V, l, x, refine) - level,
        lo, hi, _EDGE_TOL, args=(levels,),
    )
    lo, hi, levels = np.broadcast_arrays(lo, hi, levels)
    for i in np.flatnonzero(np.isnan(roots)):
        roots.flat[i] = find_root(
            lambda x: monodromy(V, l, x, refine).trace - levels.flat[i],
            lo.flat[i], hi.flat[i], _EDGE_TOL,
        )
    return roots


def spectrum_bands(
    V: Potential,
    l: float,
    lambda_max: float,
    tol: ToleranceSpec = IVP_TOL,
    points_per_unit: int = 512,
) -> BandList:
    """All maximal intervals of ``{lam <= lambda_max : |Delta_l(lam)| <= 2}``.

    The scan runs on a grid uniform in sqrt(lam - lam_floor), which tracks the
    near-linear growth of band counts.  Simple band edges are refined by root
    finding on ``Delta -+ 2``; flat touches between bands (no sign change) are
    located as zeros of ``dDelta/dlam``.  Bands narrower than the grid cannot
    be detected and are reported in ``warnings``.  Each kind of refinement
    runs as one batched root solve over all its brackets.
    """
    _check_cell_length(V, l)
    floor = V.min_value()
    if lambda_max <= floor:
        raise ValueError("lambda_max must exceed the spectral floor")
    start = floor - 1.0
    s_max = math.sqrt(lambda_max - start)
    n_pts = max(int(points_per_unit * s_max), 64) + 1
    s = np.linspace(0.0, s_max, n_pts)
    lams = start + s * s
    scan_tol = ToleranceSpec(
        max(tol.abs_tol, 1e-9), max(tol.rel_tol, 1e-9), tol.max_steps
    )
    deltas = _disc_batch(V, l, lams, scan_tol)

    refine = _refine_tol(tol)

    warnings: list[str] = []

    # simple crossings of +2 and -2
    levels = np.array([2.0, -2.0])
    g = deltas - levels[:, None]
    which, idx = np.nonzero(g[:, :-1] * g[:, 1:] < 0)
    events = _level_roots(V, l, lams[idx], lams[idx + 1], levels[which], refine).tolist()

    # interior extrema: grazing touches and gaps narrower than the grid
    d = np.diff(deltas)
    turns = np.nonzero(d[:-1] * d[1:] < 0)[0] + 1
    lam_stars = find_roots(
        lambda x: _traces(V, l, x, refine, derivative=True)[1],
        lams[turns - 1], lams[turns + 1], _EDGE_TOL,
    )
    true_turn = ~np.isnan(lam_stars)  # else dDelta/dlam keeps its sign: a grid wiggle
    turns, lam_stars = turns[true_turn], lam_stars[true_turn]
    lo, hi = lams[turns - 1], lams[turns + 1]
    d_stars = _traces(V, l, lam_stars, refine)
    narrow = []  # brackets (lo, hi, level) of the gaps the scan did not see
    for i, lo_i, hi_i, lam_star, d_star in zip(turns, lo, hi, lam_stars, d_stars):
        gap = abs(d_star) - 2.0
        if abs(gap) <= 1e-7:
            events.extend([lam_star, lam_star])  # bands touch here
        elif gap > 0:
            level = 2.0 if d_star > 0 else -2.0
            resolved = np.max(np.abs(deltas[i - 1 : i + 2])) > 2.0
            if not resolved:
                # gap narrower than the grid: the scan's crossing detector
                # saw nothing, but both crossings live in (lo, hi)
                narrow += [(lo_i, lam_star, level), (lam_star, hi_i, level)]
                warnings.append(
                    f"gap near lambda={lam_star:.6g} is narrower than the scan grid"
                )
        else:
            warnings.append(
                f"interior extremum with |Delta|<2 near lambda={lam_star:.6g}"
            )
    if narrow:
        events.extend(_level_roots(V, l, *np.array(narrow).T, refine).tolist())

    events.sort()
    if abs(deltas[0]) <= 2.0:
        events.insert(0, float(lams[0]))
        warnings.append("scan started inside the spectrum")
    if len(events) % 2 == 1:
        events.append(float(lambda_max))  # last band clipped at lambda_max

    bands = []
    for a, b in zip(events[0::2], events[1::2]):
        b = min(b, lambda_max)
        if a < b and a <= lambda_max:
            bands.append((float(a), float(b)))
    return BandList(tuple(bands), tuple(warnings))


@functools.lru_cache(maxsize=64)
def _bands_cached(
    V: Potential, l: float, lambda_max: float, tol: ToleranceSpec
) -> BandList:
    return spectrum_bands(V, l, lambda_max, tol)


def band_function(
    V: Potential,
    l: float,
    band_index: int,
    k,
    tol: ToleranceSpec = IVP_TOL,
):
    """Eigenvalue on the given band at reduced quasi-momentum ``k``.

    Solves the dispersion relation ``Delta_l(lam) = 2 cos(l k)`` inside band
    ``band_index`` (1-based).  ``k`` must lie in the reduced zone [0, pi/l].
    An array of ``k`` gives an array of eigenvalues, solved together in one
    batched root solve; a scalar ``k`` gives a float.
    """
    if band_index < 1:
        raise ValueError("band_index is 1-based")
    ks = np.asarray(k, dtype=float)
    if not np.all((0.0 <= ks) & (ks <= math.pi / l + 1e-12)):
        raise DomainError("k must lie in the reduced zone [0, pi/l]")

    # grow lambda_max until enough bands are resolved
    guess = ((band_index + 1) * math.pi / l) ** 2 + abs(V.min_value()) + 2.0
    for _ in range(6):
        blist = _bands_cached(V, l, float(guess), tol)
        if len(blist.bands) >= band_index:
            break
        guess *= 1.6
    else:
        raise RuntimeError("could not resolve enough bands")
    a, b = blist.bands[band_index - 1]

    # On odd bands Delta runs +2 -> -2, on even bands -2 -> +2.
    k_zero_edge = a if band_index % 2 == 1 else b
    k_pi_edge = b if band_index % 2 == 1 else a
    at_zero = ks < 1e-12
    at_pi = ~at_zero & (ks > math.pi / l - 1e-12)
    inside = ~(at_zero | at_pi)
    lam = np.where(at_zero, k_zero_edge, k_pi_edge)

    refine = _refine_tol(tol)
    if inside.any():
        try:
            lam[inside] = _level_roots(V, l, a, b, 2.0 * np.cos(l * ks[inside]), refine)
        except Exception as exc:
            raise RuntimeError(
                f"dispersion target not bracketed in band {band_index}; "
                "band edges may be inaccurate"
            ) from exc
    return float(lam) if lam.ndim == 0 else lam


def free_discriminant(l: float, lam: float) -> float:
    """Closed form 2 cos(l sqrt(lam)) of the free operator, for validation."""
    if lam >= 0:
        return 2.0 * math.cos(l * math.sqrt(lam))
    return 2.0 * math.cosh(l * math.sqrt(-lam))
