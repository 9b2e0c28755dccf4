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
from scipy.special import airy

from .errors import DomainError
from .numerics import IVP_TOL, ToleranceSpec, find_root, find_roots, integrate_ivp
from .transfer import invariant_density

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
        # Interpolation table (nodes, values) over one period and the linear
        # pieces, built once.  Not fields, so equality and the hash see only
        # the defining data.
        table = None
        if self.kind == "piecewise_linear":
            bp, vals = self.params
            table = (np.array([*bp, bp[0] + self.period]), np.array([*vals, vals[0]]))
        elif self.kind == "tabulated":
            (vals,) = self.params
            n = len(vals)
            table = (np.arange(n + 1) * (self.period / n), np.array([*vals, vals[0]]))
        object.__setattr__(self, "_table", table)
        # (v0, slope, length) of the linear pieces of [0, period] in order:
        # the closed-form kernel multiplies one exact matrix per piece
        pieces = None
        if table is not None:
            xp, fp = table
            x = np.mod(xp[:-1], self.period)
            order = np.argsort(x)
            x, v = x[order], fp[:-1][order]
            if x[0] > 0.0:
                x, v = np.insert(x, 0, 0.0), np.insert(v, 0, self(0.0))
            x, v = np.append(x, self.period), np.append(v, v[0])
            h = np.diff(x)
            keep = h > 0.0  # a node that np.mod put on the period's end
            pieces = tuple(zip(v[:-1][keep].tolist(), (np.diff(v)[keep] / h[keep]).tolist(),
                               h[keep].tolist()))
        object.__setattr__(self, "_pieces", pieces)

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

    def min_value(self) -> float:
        """Minimum over one period (lower bound of the spectrum); sampled for
        the cosine kind."""
        if self.kind == "constant":
            return self.params[0]
        if self._table is not None:  # piecewise linear: the least node value
            return float(np.min(self._table[1]))
        return float(np.min(self(np.linspace(0.0, self.period, 2049))))


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


def _matrices(a, b, c, d) -> np.ndarray:
    """Stack of 2x2 matrices [[a, b], [c, d]] from equal-shaped arrays."""
    return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)


def _trace(M: np.ndarray) -> np.ndarray:
    return M[..., 0, 0] + M[..., 1, 1]


# One linear piece: u'' = q(x) u on [0, h] with q = v0 - lam + s x, q0 = q(0),
# q1 = q(h).  Three exact forms cover every (s, h, lam):
#
# * Airy: u is a combination of Ai(z), Bi(z) with z = q / c^2, c = s^(1/3).
#   Ai and Bi carry the phase zeta = (2/3) |q|^(3/2) / |s| in full, so the
#   matrix, a difference of such products, loses about eps * zeta.
# * Asymptotic: for zeta >= _ZETA at both ends (no turning point inside), the
#   Airy functions' modulus-phase expansions in w = 1 / zeta (DLMF 9.7.5,
#   9.7.9-9.7.12) to _SERIES_ORDER, with the phase difference taken in a form
#   free of cancellation.  At s = 0 (w = 0) this is the cos/sin or cosh/sinh
#   matrix of a flat piece.
# * Magnus: when |c| h is small, q varies little and q h^2 is small, and the
#   Airy difference cancels (error ~ eps / (|c| h)); there one sixth-order
#   Magnus step, the exponential of a traceless 2x2 matrix, is exact to
#   rounding.
#
# Thresholds, measured against 40-digit mpmath Airy matrices over random
# pieces (slopes 1e-3..1e2 and beyond): Airy is within 3.5e-14 relative for
# zeta < 40, the asymptotic form with terms up to w^12 within 2e-15 for
# zeta >= 40 (it reaches 1.5e-13 at zeta = 20).  The Magnus step is within
# 3e-14 for |c| h <= 1.6e-2, where Airy is off by up to 1.3e-13 (5e-12 at
# |c| h = 1e-3, 1.3e-10 at 1e-5).  The asymptotic form also needs
# |q| h^2 >= 1e-4 (below that, with zeta >= 40, |c| h < 3e-3: Magnus).
_ZETA = 40.0
_SERIES_ORDER = 12
_FLAT = 1e-4
_CORNER = 1.6e-2
# Complex step for the lam-derivative of the asymptotic and Magnus forms:
# T(q - i eps) = T(q) - i eps dT/dq + O(eps^2), without cancellation.
_STEP = 1e-30


def _airy_series_coeffs(order: int):
    """Even and odd parts (highest power first) of the Airy asymptotic
    series u_k and v_k = -(6k+1)/(6k-1) u_k, DLMF 9.7.2."""
    u = [1.0]
    for k in range(1, order + 1):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k))
    v = [1.0] + [-(6 * k + 1) / (6 * k - 1) * u[k] for k in range(1, order + 1)]
    return [np.array(c[start::2][::-1]) for c in (u, v) for start in (0, 1)]


_U_EVEN, _U_ODD, _V_EVEN, _V_ODD = _airy_series_coeffs(_SERIES_ORDER)


def _airy_piece(q0, s, h, derivative):
    c = float(np.cbrt(s))
    z0 = q0 / (c * c)
    z1 = z0 + c * h
    a0, ap0, b0, bp0 = airy(z0)
    a1, ap1, b1, bp1 = airy(z1)
    # T = Phi(h) Phi(0)^-1 with Phi = [[Ai, Bi], [c Ai', c Bi']], det c / pi
    inv0 = _matrices(c * bp0, -b0, -c * ap0, a0) * (math.pi / c)
    phi1 = _matrices(a1, b1, c * ap1, c * bp1)
    T = phi1 @ inv0
    if not derivative:
        return T, None
    dz = -1.0 / (c * c)  # dz/dlam; Ai'' = z Ai
    dinv0 = _matrices(c * z0 * b0, -bp0, -c * z0 * a0, ap0) * (dz * math.pi / c)
    dphi1 = _matrices(ap1, bp1, c * z1 * a1, c * z1 * b1) * dz
    return T, dphi1 @ inv0 + phi1 @ dinv0


def _asymptotic_piece(q0, s, h):
    q1 = q0 + s * h
    nu = np.where(q0.real < 0.0, 1.0, -1.0)  # 1 oscillatory, -1 forbidden
    p0, p1 = -nu * q0, -nu * q1
    r0, r1 = np.sqrt(p0), np.sqrt(p1)
    f0, f1 = np.sqrt(r0), np.sqrt(r1)
    sg = math.copysign(1.0, s)
    # zeta(h) - zeta(0), with zeta = (2/3) p^(3/2) / |s|, times the direction
    phase = (2.0 / 3.0) * sg * h * (p0 + r0 * r1 + p1) / (r0 + r1)
    osc = nu > 0
    cd, sd = np.empty_like(phase), np.empty_like(phase)
    cd[osc], sd[osc] = np.cos(phase[osc]), np.sin(phase[osc])
    cd[~osc], sd[~osc] = np.cosh(phase[~osc]), np.sinh(phase[~osc])

    def series(p, r):
        w = 1.5 * abs(s) / (p * r)
        y = -nu * w * w
        return (np.polyval(_U_EVEN, y), w * np.polyval(_U_ODD, y),
                np.polyval(_V_EVEN, y), w * np.polyval(_V_ODD, y))

    P0, Q0, R0, S0 = series(p0, r0)  # Ai-type (P, Q), Ai'-type (R, S) sums
    P1, Q1, R1, S1 = series(p1, r1)
    return _matrices(
        f0 / f1 * ((P1 * R0 + nu * Q1 * S0) * cd + nu * (P1 * S0 - Q1 * R0) * sd),
        sg / (f0 * f1) * ((Q1 * P0 - P1 * Q0) * cd + (P1 * P0 + nu * Q1 * Q0) * sd),
        -nu * sg * f0 * f1 * ((S1 * R0 - R1 * S0) * cd + (R1 * R0 + nu * S1 * S0) * sd),
        f1 / f0 * ((R1 * P0 + nu * S1 * Q0) * cd - nu * (S1 * P0 - R1 * Q0) * sd),
    )


_COSH_SQRT = np.array([1.0 / math.factorial(2 * k) for k in range(5, -1, -1)])
_SINHC_SQRT = np.array([1.0 / math.factorial(2 * k + 1) for k in range(5, -1, -1)])


def _magnus_piece(q0, s, h):
    qm = q0 + 0.5 * s * h  # q at the midpoint
    d = s * h**3 * (qm * h * h / 180.0 - 1.0 / 12.0)
    low = h * (qm - s * s * h**4 / 120.0)
    # exp [[d, h], [low, -d]] = C I + S Omega, Omega^2 = w I; |w| < 5e-3 here
    w = d * d + h * low
    C, S = np.polyval(_COSH_SQRT, w), np.polyval(_SINHC_SQRT, w)
    return _matrices(C + S * d, S * h, S * low, C - S * d)


def _piece(q0: np.ndarray, s: float, h: float, derivative: bool):
    """Exact transfer matrices of one linear piece for every q0 = v0 - lam;
    with ``derivative`` also their lam-derivatives, else None."""
    q1 = q0 + s * h
    p = np.minimum(np.abs(q0), np.abs(q1))
    asymptotic = (q0 * q1 > 0) & (p * h * h >= _FLAT) & (p**1.5 >= 1.5 * _ZETA * abs(s))
    magnus = ~asymptotic & (abs(s) ** (1.0 / 3.0) * h <= _CORNER)
    rest = ~(asymptotic | magnus)
    T = np.empty(q0.shape + (2, 2))
    dT = np.empty_like(T) if derivative else None
    for mask, form in ((asymptotic, _asymptotic_piece), (magnus, _magnus_piece)):
        if not mask.any():
            continue
        if derivative:
            Tc = form(q0[mask] - 1j * _STEP, s, h)
            T[mask], dT[mask] = Tc.real, Tc.imag / _STEP
        else:
            T[mask] = form(q0[mask], s, h)
    if rest.any():
        T[rest], dTr = _airy_piece(q0[rest], s, h, derivative)
        if derivative:
            dT[rest] = dTr
    return T, dT


def _closed_form(V: Potential, l: float, lams: np.ndarray, derivative: bool):
    if V.kind == "constant":
        pieces, cells = ((V.params[0], 0.0, l),), 1
    else:
        pieces, cells = V._pieces, round(l / V.period)
    M = np.zeros(lams.shape + (2, 2))
    M[..., 0, 0] = M[..., 1, 1] = 1.0
    dM = np.zeros_like(M) if derivative else None
    mats = [_piece(v0 - lams, s, h, derivative) for v0, s, h in pieces]
    for _ in range(cells):
        for T, dT in mats:
            if derivative:
                dM = dT @ M + T @ dM
            M = T @ M
    return M, dM


def _integrated(V: Potential, l: float, lams: np.ndarray, tol: ToleranceSpec,
                derivative: bool):
    """One stacked DOP853 solve; its step control bounds the error in RMS
    over the whole stack (see _traces)."""
    n = lams.size
    rows = 4 if derivative else 2  # per basis solution: u, u' [, du/dlam, du'/dlam]

    def rhs(t, y):
        z = y.reshape(2, rows, n)
        w = V(t) - lams
        dz = np.empty_like(z)
        dz[:, 0::2] = z[:, 1::2]
        dz[:, 1::2] = w * z[:, 0::2]
        if derivative:
            dz[:, 3] -= z[:, 0]
        return dz.ravel()

    y0 = np.zeros((2, rows, n))
    y0[0, 0] = y0[1, 1] = 1.0
    z = integrate_ivp(rhs, y0.ravel(), 0.0, l, tol).reshape(2, rows, n).transpose(2, 1, 0)
    return z[:, :2], (z[:, 2:] if derivative else None)


def transfer_matrices(
    V: Potential, l: float, lams, tol: ToleranceSpec = IVP_TOL, derivative: bool = False
):
    """Transfer matrices over ``[0, l]`` of ``-u'' + V u = lam u`` for every lam.

    Returns an array of shape ``lams.shape + (2, 2)`` (columns as in
    :class:`Monodromy`); with ``derivative``, the pair (M, dM/dlam).

    ``constant``, ``piecewise_linear`` and ``tabulated`` potentials are
    linear on each piece of a period: each piece gets its exact matrix (Airy
    functions, their asymptotic expansions, or one Magnus step, picked per
    piece and lam, accurate to ~1e-13 relative), the pieces are multiplied
    across the cell, and ``tol`` is not used.  ``cosine`` potentials are
    integrated in one stacked DOP853 solve held to ``tol``, which bounds the
    error in RMS over the stack.
    """
    _check_cell_length(V, l)
    lams = np.asarray(lams, dtype=float)
    shape = lams.shape + (2, 2)
    if lams.size == 0:
        M, dM = np.empty(shape), np.empty(shape)
    elif V.kind == "cosine":
        M, dM = _integrated(V, l, lams.ravel(), tol, derivative)
    else:
        M, dM = _closed_form(V, l, lams.ravel(), derivative)
    M = M.reshape(shape)
    return (M, dM.reshape(shape)) if derivative else M


def monodromy(
    V: Potential, l: float, lam: float, tol: ToleranceSpec = IVP_TOL
) -> Monodromy:
    """Transfer matrix over ``[0, l]`` for ``-u'' + V u = lam u``.

    ``tol`` binds only for cosine cells, which are integrated; the other
    kinds are piecewise linear and their matrices exact
    (:func:`transfer_matrices`).
    """
    return Monodromy(transfer_matrices(V, l, [lam], tol)[0], l, lam)


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
    """Universal density of discriminant values, (1/pi)/sqrt(4 - delta^2),
    on the open (-2, 2)."""
    return invariant_density("discriminant_D", delta)


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


# For cosine cells scipy's step control bounds the RMS of the error over all
# components, so in a stack of c components a single one may be off by
# sqrt(c) times the request.  _traces divides both tolerances by sqrt(c),
# which bounds every lam on its own.  It stacks at most _TRACE_STACK lams per
# solve, so the reduced rel_tol stays above the 100 eps floor of
# integrate_ivp for every rel_tol >= 1e-11.
_TRACE_STACK = 64


def _traces(
    V: Potential, l: float, lams, tol: ToleranceSpec, derivative: bool = False
):
    """Delta(lam) for an array of lam, each held to ``tol``; with
    ``derivative``, (Delta, dDelta/dlam).  Cosine cells take stacked solves;
    the other kinds are exact in one call."""
    lams = np.asarray(lams, dtype=float)
    if V.kind != "cosine":
        got = transfer_matrices(V, l, lams, tol, derivative)
        return (_trace(got[0]), _trace(got[1])) if derivative else _trace(got)
    out = (np.empty(lams.shape), np.empty(lams.shape))
    order = np.argsort(lams, axis=None)  # close lams share a stack's step sizes
    stacks = np.array_split(order, -(-lams.size // _TRACE_STACK)) if lams.size else []
    for idx in stacks:
        shrink = math.sqrt((8 if derivative else 4) * idx.size)
        stack_tol = ToleranceSpec(
            tol.abs_tol / shrink, tol.rel_tol / shrink, tol.max_steps
        )
        got = transfer_matrices(V, l, lams.flat[idx], stack_tol, derivative)
        for dest, M in zip(out, got if derivative else (got,)):
            dest.flat[idx] = _trace(M)
    return out if derivative else out[0]


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
    deltas = _trace(transfer_matrices(V, l, lams, scan_tol))

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
