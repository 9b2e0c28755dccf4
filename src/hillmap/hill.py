"""Periodic Hill operators -d^2/dx^2 + V(x): potentials, monodromy matrices,
discriminants, spectral bands and band functions.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import airy, zeta

from .errors import DomainError, NonConvergenceError
# find_root and integrate_ivp are not called here: perfbench/tracing.py
# counts root and ODE solves under hill.find_root and hill.integrate_ivp.
from .numerics import (  # noqa: F401
    ROOT_XRTOL, _chandrupatla, find_root, find_roots, integrate_ivp, trace_poly)

TWO_PI = 2.0 * math.pi

# How close a monodromy determinant must stay to 1.
DET_TOL = 1e-8
# Bisection of the Fourier-Hill chains runs to the last bit of each eigenvalue.
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class Potential:
    """A real potential of period 1.

    ``kind`` is ``cosine`` or ``piecewise_linear`` (a constant is the flat
    cell of one node); ``params`` holds the kind-specific data.  Instances
    are immutable and hashable so they can key caches.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        # Built once for piecewise-linear cells: the interpolation table
        # (nodes, values) over one period, the (v0, slope, length) of the
        # linear pieces of [0, 1] in order, one exact matrix each in the
        # closed-form kernel, and the same as the kernel's three (P, 1)
        # columns.  Not fields, so equality and the hash see only the
        # defining data.
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_pieces", None)
        object.__setattr__(self, "_columns", None)
        if self.kind not in ("cosine", "piecewise_linear"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not np.isfinite(np.hstack(self.params)).all():
            raise ValueError("potential data must be finite")
        if self.kind == "cosine":
            return
        bp, vals = self.params
        if len(bp) != len(vals) or len(bp) < 1:
            raise ValueError("need matching, nonempty breakpoints and values")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[-1] - bp[0] >= 1.0:
            raise ValueError("breakpoints must fit within one period")
        xp, fp = np.array([*bp, bp[0] + 1.0]), np.array([*vals, vals[0]])
        object.__setattr__(self, "_table", (xp, fp))
        x = np.mod(xp[:-1], 1.0)
        order = np.argsort(x)
        x, v = x[order], fp[:-1][order]
        if x[0] > 0.0:
            x, v = np.insert(x, 0, 0.0), np.insert(v, 0, self(0.0))
        x, v = np.append(x, 1.0), np.append(v, v[0])
        h = np.diff(x)
        keep = h > 0.0  # a node that np.mod put on the period's end
        object.__setattr__(self, "_pieces", tuple(zip(
            v[:-1][keep].tolist(), (np.diff(v)[keep] / h[keep]).tolist(), h[keep].tolist())))
        columns = np.array(self._pieces).T[..., None]
        columns.flags.writeable = False
        object.__setattr__(self, "_columns", columns)

    @classmethod
    def constant(cls, value: float) -> "Potential":
        """The flat cell ``value``: one node, one piece of slope 0."""
        return cls.piecewise_linear((0.0,), (value,))

    @classmethod
    def free(cls) -> "Potential":
        return cls.constant(0.0)

    @classmethod
    def cosine(cls, amplitude: float = 1.0) -> "Potential":
        """``amplitude * cos(2 pi x)``."""
        return cls("cosine", (float(amplitude),))

    @classmethod
    def piecewise_linear(
        cls, breakpoints: Sequence[float], values: Sequence[float]
    ) -> "Potential":
        """Linear interpolation of ``values`` at ``breakpoints``, closed
        periodically; samples on a uniform grid of n points are
        ``piecewise_linear(np.arange(n) / n, samples)``."""
        return cls("piecewise_linear", (tuple(map(float, breakpoints)), tuple(map(float, values))))

    def __call__(self, x):
        """Evaluate V at x (scalar or ndarray); periodic with period 1."""
        if self.kind == "cosine":
            (amp,) = self.params
            return amp * np.cos(TWO_PI * x)
        xp, fp = self._table
        out = np.interp((np.asarray(x) - xp[0]) % 1.0 + xp[0], xp, fp)
        return out if isinstance(x, np.ndarray) else float(out)

    def min_value(self) -> float:
        """Minimum over one period (lower bound of the spectrum)."""
        if self.kind == "cosine":
            return -abs(self.params[0])
        return float(np.min(self._table[1]))  # piecewise linear: a node value

    def max_value(self) -> float:
        """Maximum over one period."""
        if self.kind == "cosine":
            return abs(self.params[0])
        return float(np.max(self._table[1]))


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
        if not np.isfinite(m).all():
            raise ValueError(f"entries must be finite, not {m.tolist()}")
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


def _periods(l: float, flat: bool = False) -> int:
    """round(l) for a cell of whole periods; flat potentials take any finite l > 0."""
    if not l > 0:
        raise ValueError("cell length must be positive")
    if not math.isfinite(l):
        raise ValueError(f"cell length must be finite, not {l}")
    if not flat and (abs(l - round(l)) > 1e-9 or round(l) == 0):
        raise ValueError("cell length must be a positive multiple of the period")
    return round(l)


def _matrices(a, b, c, d) -> np.ndarray:
    """Stack of 2x2 matrices [[a, b], [c, d]] from equal-shaped arrays."""
    out = np.empty(np.shape(a) + (2, 2), dtype=np.result_type(a, b, c, d))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.polyval(coeffs, x)`` for an array x, by the same operations
    without its per-call overhead."""
    y = np.zeros_like(x)
    for c in coeffs:
        y = y * x + c
    return y


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


def _airy_series_coeffs(order: int):
    """Even and odd parts (highest power first) of the Airy asymptotic
    series u_k and v_k = -(6k+1)/(6k-1) u_k, DLMF 9.7.2."""
    u = [1.0]
    for k in range(1, order + 1):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k))
    v = [1.0] + [-(6 * k + 1) / (6 * k - 1) * u[k] for k in range(1, order + 1)]
    return [np.array(c[start::2][::-1]) for c in (u, v) for start in (0, 1)]


_U_EVEN, _U_ODD, _V_EVEN, _V_ODD = _airy_series_coeffs(_SERIES_ORDER)
# The four series as the rows of one table, each zero-padded in front to the
# longest: one Horner pass evaluates all four, to the bit of each alone.
_SERIES = np.array([np.pad(c, (_SERIES_ORDER // 2 + 1 - c.size, 0))
                    for c in (_U_EVEN, _U_ODD, _V_EVEN, _V_ODD)])
_SERIES_STEPS = _SERIES.T[:, :, None]  # Horner's steps, one (4, 1) column each


def _series(y: np.ndarray) -> np.ndarray:
    """The rows of _SERIES at y, shape (4,) + y.shape, in one Horner pass:
    each row is ``np.polyval`` of its own coefficients to the bit."""
    Y = y.reshape(1, -1).repeat(4, axis=0)
    A = np.zeros(Y.shape)
    for c in _SERIES_STEPS:
        A *= Y
        A += c
    return A.reshape((4,) + y.shape)


def _airy_piece(q0, s, h):
    c = np.cbrt(s)
    cc = c * c
    z0 = q0 / cc
    z = np.array([z0, z0 + c * h])  # z at both ends
    ai, aip, bi, bip = airy(z)
    caip, cbip = c * aip, c * bip
    # T = Phi(h) Phi(0)^-1 with Phi = [[Ai, Bi], [c Ai', c Bi']], det c / pi
    inv0, phi1 = W = np.empty((2,) + q0.shape + (2, 2))
    W[..., 0, 0], W[..., 0, 1] = (cbip[0], ai[1]), (-bi[0], bi[1])
    W[..., 1, 0], W[..., 1, 1] = (-caip[0], caip[1]), (ai[0], cbip[1])
    inv0 *= (math.pi / c)[..., None, None]
    return phi1 @ inv0


_NU_IF_OSC = np.array([1.0, -1.0])  # (nu, -nu) where oscillatory, else the reverse
_NU_IF_FORBIDDEN = -_NU_IF_OSC


def _asymptotic_piece(q0, s, h):
    q = np.array([q0, q0 + s * h])  # q at both ends
    osc = q0 < 0.0  # oscillatory, else forbidden
    pair = (2,) + (1,) * q0.ndim
    nus = np.where(osc, _NU_IF_OSC.reshape(pair), _NU_IF_FORBIDDEN.reshape(pair))
    nu, mnu = nus  # nu: 1 oscillatory, -1 forbidden
    p = mnu * q
    r = np.sqrt(p)
    f = np.sqrt(r)
    (p0, p1), (r0, r1), (f0, f1) = p, r, f
    sg = np.copysign(1.0, s)
    # zeta(h) - zeta(0), with zeta = (2/3) p^(3/2) / |s|, times the direction
    phase = (2.0 / 3.0) * sg * h * (p0 + r0 * r1 + p1) / (r0 + r1)
    n_osc = np.count_nonzero(osc)
    if n_osc == osc.size:
        cd, sd = np.cos(phase), np.sin(phase)
    elif n_osc == 0:
        cd, sd = np.cosh(phase), np.sinh(phase)
    else:
        cd, sd = np.empty_like(phase), np.empty_like(phase)
        cd[osc], sd[osc] = np.cos(phase[osc]), np.sin(phase[osc])
        cd[~osc], sd[~osc] = np.cosh(phase[~osc]), np.sinh(phase[~osc])
    # A[k, e]: the Ai-type sums P, Q and the Ai'-type sums R, S (k = 0..3)
    # at end e; Q and S are odd in w
    w = 1.5 * np.abs(s) / (p * r)
    y = mnu * w * w
    A = _series(y)
    np.multiply(w, A[1::2], out=A[1::2])
    # T = [[E1, E2], [E3, E4]] with E = pre (X cd + Y sd), the pairs (E1, E4)
    # and (E2, E3) each by the operations of one entry:
    #   E1: pre f0 / f1, X P1 R0 + nu Q1 S0, Y nu (P1 S0 - Q1 R0)
    #   E4: pre f1 / f0, X R1 P0 + nu S1 Q0, Y -nu (S1 P0 - R1 Q0)
    #   E2: pre sg / (f0 f1), X Q1 P0 - P1 Q0, Y P1 P0 + nu Q1 Q0
    #   E3: pre -nu sg f0 f1, X S1 R0 - R1 S0, Y R1 R0 + nu S1 S0
    X, Y, pre = np.empty((3, 4) + q0.shape)
    nu_QS1 = nu * A[1::2, 1]
    np.add(A[0::2, 1] * A[2::-2, 0], nu_QS1 * A[3::-2, 0], out=X[0::3])
    np.subtract(A[1::2, 1] * A[0::2, 0], A[0::2, 1] * A[1::2, 0], out=X[1:3])
    np.multiply(nus, A[0::3, 1] * A[3::-3, 0] - A[1:3, 1] * A[2:0:-1, 0], out=Y[0::3])
    np.add(A[0::2, 1] * A[0::2, 0], nu_QS1 * A[1::2, 0], out=Y[1:3])
    np.divide(f, f[::-1], out=pre[0::3])
    np.divide(sg, f0 * f1, out=pre[1])
    np.multiply(mnu * sg * f0, f1, out=pre[2])
    T = np.empty(q0.shape + (2, 2))
    np.multiply(pre, X * cd + Y * sd, out=T.reshape(-1, 4).T.reshape(X.shape))
    return T


_COSH_SQRT = np.array([1.0 / math.factorial(2 * k) for k in range(5, -1, -1)])
_SINHC_SQRT = np.array([1.0 / math.factorial(2 * k + 1) for k in range(5, -1, -1)])


def _magnus_piece(q0, s, h):
    qm = q0 + 0.5 * s * h  # q at the midpoint
    d = s * h**3 * (qm * h * h / 180.0 - 1.0 / 12.0)
    low = h * (qm - s * s * h**4 / 120.0)
    # exp [[d, h], [low, -d]] = C I + S Omega, Omega^2 = w I; |w| < 5e-3 here
    w = d * d + h * low
    C, S = _horner(_COSH_SQRT, w), _horner(_SINHC_SQRT, w)
    return _matrices(C + S * d, S * h, S * low, C - S * d)


def _piece(q0: np.ndarray, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Exact transfer matrices of all linear pieces for every q0 = v0 - lam,
    in one pass: q0 has one row per piece, s and h are the pieces' (P, 1)
    columns of slopes and lengths.  Each form runs once, on the (piece, lam)
    pairs it serves, and a form that serves them all takes the whole batch
    as it is."""
    q1 = q0 + s * h
    p = np.minimum(np.abs(q0), np.abs(q1))
    abs_s = np.abs(s)
    asymptotic = (q0 * q1 > 0) & (p * h * h >= _FLAT) & (p**1.5 >= 1.5 * _ZETA * abs_s)
    magnus = ~asymptotic & (abs_s ** (1.0 / 3.0) * h <= _CORNER)
    rest = ~(asymptotic | magnus)
    forms = [(mask, form) for mask, form in ((asymptotic, _asymptotic_piece),
             (magnus, _magnus_piece), (rest, _airy_piece)) if np.count_nonzero(mask)]
    if len(forms) == 1:
        return forms[0][1](q0, s, h)
    s, h = s.repeat(q0.shape[1], axis=1), h.repeat(q0.shape[1], axis=1)
    T = np.empty(q0.shape + (2, 2))
    for mask, form in forms:
        T[mask] = form(q0[mask], s[mask], h[mask])
    return T


def _finite(lams) -> np.ndarray:
    """lams as a float array; a lam that is not finite raises ValueError."""
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise ValueError(f"lambda must be finite, not {lams[~np.isfinite(lams)][0]}")
    return lams


def transfer_matrices(V: Potential, lams) -> np.ndarray:
    """Transfer matrices over one period of ``-u'' + V u = lam u`` for every lam.

    Returns an array of shape ``lams.shape + (2, 2)`` (columns as in
    :class:`Monodromy`).

    A piecewise-linear potential is linear on each piece of a period: each
    piece gets its exact matrix (Airy functions, their asymptotic
    expansions, or one Magnus step, picked per piece and lam, accurate to
    ~1e-13 relative), all pieces and lam in one pass of :func:`_piece`, and
    the pieces are multiplied across the period.  Cosine cells are refused:
    :func:`discriminant` serves them.  A lam that is not finite raises
    ValueError.
    """
    if V.kind == "cosine":
        raise ValueError("transfer matrices are for piecewise_linear cells; "
                         "cosine cells have discriminant()")
    lams = _finite(lams)
    v0, s, h = V._columns
    T = _piece(v0 - lams.ravel(), s, h)
    M = T[0]
    for p in range(1, len(T)):
        M = T[p] @ M
    return M.reshape(lams.shape + (2, 2))


def monodromy(V: Potential, l: float, lam: float) -> Monodromy:
    """Exact transfer matrix over ``[0, l]``, :func:`transfer_matrices` ^ round(l)."""
    return Monodromy(np.linalg.matrix_power(transfer_matrices(V, [lam])[0], _periods(l)), l, lam)


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


# Accuracy in lam of refined band edges and dispersion points.
_EDGE_TOL = 1e-10
# Accuracy of the exact transfer matrices' entries relative to max |M|
# (transfer_matrices), behind the rounding bound of the gap function.
_ROUNDING = 1e-13
# Fourier modes kept past those that carry the eigenfunctions below lam_top:
# mode j couples in through (|A|/2) / ((q + 2 pi j)^2 - lam_top), so a few
# past sqrt(lam_top + |A|) + sqrt(|A|) decide every eigenvalue below lam_top
# (within 5.7e-14 of 40 digits for A <= 200, lam <= 300).  The chains are
# bisected to the last bit (_TINY): LAPACK's default, held to eps (2 pi n)^2,
# was 2e-11 off with 40 modes of margin.
_FOURIER_MARGIN = 8


def _level_roots(V: Potential, lo, hi, levels):
    """lam in each bracket [lo, hi] with Delta_1(lam) = level, in one batched
    root solve; NaN where a bracket does not straddle its level."""
    return find_roots(
        lambda x, level: discriminant(V, 1.0, x) - level, lo, hi, _EDGE_TOL, args=(levels,)
    )


def _chain_size(V: Potential, lam_top: float) -> int:
    """n, the modes a side of a cosine cell's Fourier-Hill chains whose
    eigenvalues below lam_top are exact to rounding."""
    (amp,) = V.params
    reach = math.sqrt(max(lam_top, 0.0) + abs(amp)) + math.sqrt(abs(amp))
    return int(reach / TWO_PI) + _FOURIER_MARGIN


def _hill_chains(V: Potential, qs, n: int) -> np.ndarray:
    """The eigenvalues of the Fourier-Hill chain at each quasi-momentum in
    qs, one row each (Deconinck & Kutz, J. Comput. Phys. 219, 2006):
    ``A cos(2 pi x)`` couples the Bloch modes exp(i (q + 2 pi j) x) of one q
    only to j +- 1, with A/2.  Chain q holds the modes j = -n..n about q
    centred to |q| <= pi."""
    off = np.full(2 * n, 0.5 * V.params[0])
    qs = qs - TWO_PI * np.round(qs / TWO_PI)
    return np.array([eigvalsh_tridiagonal(
        (q + TWO_PI * np.arange(-n, n + 1)) ** 2, off, lapack_driver="stebz", tol=_TINY)
        for q in qs])


# A cosine chain's couplings past n modes a side, taken to first order, leave
# out ~(A / 8 pi^2)^4 / n^7: ~1e-15 at n^7 = _COUPLED (A / 8 pi^2)^4, within
# 2.7e-14 of 300 modes for |A| <= 20, |lam| <= 150.  n >= sqrt|lam| / pi + 8
# shrinks the tails' zeta series 4-fold a term, past eps / 4 at _TAIL_TERMS.
_COUPLED = 1e15
_TAIL_TERMS = 27


def discriminant(V: Potential, l: float, lams):
    """Delta_l(lam), the trace of the transfer matrix over ``[0, l]``, for
    an array of lam (same shape out).  Over c = round(l) periods it is
    f_c(Delta_1) (:func:`trace_poly`).

    The exact kinds take Delta_1 as the trace of :func:`transfer_matrices`,
    cosine cells from Hill's determinant (Magnus & Winkler, 1966, ch. 2), to
    ~1e-13 in |2 - Delta_1|: with the rows of the chain at q = 0 divided by
    d_j = (2 pi j)^2 (but the zero mode's), Delta_1 - 2 = P, the chain's
    determinant, as both sides are entire of order 1/2 with the same zeros
    and agree at A = 0.  P is the continuant of the modes |j| <= n times,
    over the tails, prod (1 - lam / d_j) and, to first order in the
    couplings, exp(-sum e_k), e_k = (A/2)^2 / ((d_k - lam)(d_(k+1) - lam)).
    """
    c = _periods(l)
    if V.kind != "cosine":
        return trace_poly(c, _trace(transfer_matrices(V, lams)))
    shape, lams = np.shape(lams), np.ravel(_finite(lams))
    a = abs(V.params[0]) / (8.0 * math.pi**2)  # A/2 in units of (2 pi)^2
    top = float(np.max(np.abs(lams), initial=0.0))
    n = max(math.ceil(math.sqrt(top) / math.pi) + _FOURIER_MARGIN,
            math.ceil((_COUPLED * a**4) ** (1 / 7)))
    d = (TWO_PI * np.arange(-n, n + 1)) ** 2
    scale = np.where(d == 0.0, 1.0, d)
    rows = (d[:, None] - lams) / scale[:, None]
    links = (TWO_PI**2 * a) ** 2 / (scale[:-1] * scale[1:])
    prev, det = 1.0, rows[0]
    for k in range(1, 2 * n + 1):
        prev, det = det, rows[k] * det - links[k - 1] * prev
    # Both tails sum to Hurwitz zetas in mu = lam / (2 pi)^2: with t = k + 1/2,
    # e_k = a^2 / (t^4 - beta t^2 + gamma) = a^2 sum_m h_m t^(-4-2m).
    mu, p = lams / TWO_PI**2, np.arange(1, _TAIL_TERMS + 1)[:, None]
    free, coupled = 2.0 * zeta(2 * p, n + 1.0), 2.0 * zeta(2 * p + 2, n + 0.5)
    beta, gamma = 2.0 * mu + 0.5, (mu - 0.25) ** 2
    h = [np.ones_like(mu), beta]
    while len(h) < _TAIL_TERMS:
        h.append(beta * h[-1] - gamma * h[-2])
    log_tails = -free.T @ (mu**p / p) - a * a * (coupled.T @ np.array(h))
    return trace_poly(c, (2.0 + det * np.exp(log_tails[0])).reshape(shape))


def _gap_function(M):
    """G = (a - d)^2 + 4bc = Delta^2 - 4 (ad - bc = 1) of matrices M = [[a, b],
    [c, d]], and its rounding bound.  Beside a touch or a gap of width w,
    a - d, b and c are small and G cancels nothing, where Delta -+ 2 moves by
    ~w^2 and rounds like Delta.  Entries within e = _ROUNDING max |M| put G
    within 4 e (|a - d| + |b| + |c| + 2 e).  Where that reaches 4, G's depth
    in a band (|M| past ~3e6, tunnelling), G is (Delta - 2)(Delta + 2) instead,
    within 4 e (|Delta| + e)."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    e = _ROUNDING * np.abs(M).max(axis=(-2, -1))
    amd = a - d
    G, err = amd**2 + 4.0 * b * c, 4.0 * e * (abs(amd) + abs(b) + abs(c) + 2.0 * e)
    deep = err >= 4.0
    if not np.count_nonzero(deep):
        return G, err
    return (np.where(deep, (a + d - 2.0) * (a + d + 2.0), G),
            np.where(deep, 4.0 * e * (abs(a + d) + e), err))


# (sub-piece, lam) pairs per pass of _edge_count: its matrices hold one entry
# per pair, and both counts grow with a deep cell's bands
_COUNT_PAIRS = 2**16


def _edge_count(V: Potential, lams):
    """E(lam), the number of band edges at or below each lam (one period of a
    piecewise-linear cell); G = Delta^2 - 4 there (:func:`_gap_function`);
    and where |G| is past its rounding bound, as E may be off elsewhere.
    The n zeros in (0, 1) of the Dirichlet solution u = M_12, one per
    Dirichlet eigenvalue below lam and so one per closed gap (Eastham, 1973,
    ch. 2), lie pi / sqrt(lam - min V) apart at least (compare with min V):
    n sign changes of u at the ends of sub-pieces half that long.  Q = 2n +
    [sign Delta != (-1)^n] steps at Delta's zero in band m and at gap m's
    Dirichlet eigenvalue, never at an edge; E = 2m - 1 in band m (G <= 0),
    2m in gap m.  Every lam runs on the sub-pieces of the largest, in passes
    of at most _COUNT_PAIRS (sub-piece, lam) pairs."""
    lams = np.asarray(lams, dtype=float)
    _, s, h = V._columns[..., 0]
    k = 1 + (2.0 / math.pi * math.sqrt(max(np.max(lams) - V.min_value(), 0.0)) * h).astype(int)
    s, h = np.repeat(s, k), np.repeat(h / k, k)
    q0, width = V(np.cumsum(h) - h)[:, None], max(1, _COUNT_PAIRS // h.size)
    n, M = [], []
    for i in range(0, lams.size, width):
        T = _piece(q0 - lams[i:i + width], s[:, None], h[:, None])
        Mi, u = np.eye(2), []
        for Tj in T:
            Mi = Tj @ Mi
            u.append(Mi[..., 0, 1])
        u = np.array(u) > 0.0  # u'(0) = 1
        n.append(np.count_nonzero(np.diff(u, axis=0, prepend=True), axis=0))
        M.append(Mi)
    n, M = np.concatenate(n), np.concatenate(M)
    Q = 2 * n + ((_trace(M) > 0.0) != (n % 2 == 0))
    G, err = _gap_function(M)
    return Q + ((G <= 0.0) == (Q % 2 == 0)), G, np.abs(G) > err


def _exact_edges(V: Potential, lambda_max: float):
    """Band edges at or below lambda_max of a piecewise-linear cell of one
    period, in order, with lambda_max closing a band it cuts; and the
    warnings.  Edge j = 1 .. J = E(lambda_max) is min {lam : E(lam) >= j}
    (:func:`_edge_count`), in e_j + [min V, max V] by comparison with
    constant potentials, e_j = (floor(j / 2) pi)^2 the free cell's.  E at
    those brackets' ends and at lambda_max, then at the middle of each
    bracket still holding more than one edge, isolates every edge (E is
    monotone, so every lam narrows every bracket); one root solve of G
    then places them all, from the values of G the counts took at the
    brackets' ends.

    Only a lam where |G| is past its rounding bound ends a bracket: deep in
    a well (|M| past 1e100) Delta's sign and the Dirichlet count are
    rounding within ~1e-7 of a level, so a bracket with such lam inside is
    split halfway between each end and the nearest of them, and the level
    is listed as the bracket about that zone.  A bracket holding more than
    one edge at the root solve's tolerance lists a band bottom (odd j) at
    its lower end, a band top (even j) at its upper end, and a touch, a top
    with the bottom above it, twice at its middle.  An isolated edge that G
    cannot place (one sign at both ends), and a band whose two edges G puts
    at one lam, are bisected on E to that tolerance; the first with a
    warning that names the bracket."""
    v_min = V.min_value()
    # the brackets of every j whose bracket starts at or below lambda_max
    e = (np.arange(1, 2 * math.floor(math.sqrt(lambda_max - v_min) / math.pi) + 2) // 2
         * math.pi) ** 2
    lams = np.unique(np.minimum(np.concatenate(
        [e + v_min, e + V.max_value(), [lambda_max]]), lambda_max))
    E, G, sure = _edge_count(V, lams)
    sure[-1] = True  # lambda_max: J follows the sign of G there
    j = np.arange(1, E[-1] + 1)

    def bisect(more):
        """Split, in one pass per step, every bracket of j that holds
        more(count) edges, until its parts beside its ends are below
        find_roots' tolerance; the indices in lams of each bracket's ends
        and E's running max at them."""
        nonlocal lams, E, G, sure
        while True:
            k = np.flatnonzero(sure)
            Em = np.maximum.accumulate(E[k])
            i = np.searchsorted(Em, j) - 1  # lams[k[i]] and lams[k[i + 1]] hold edge j
            lo, hi = k[i], k[i + 1]
            tol = np.abs(lams[lo] + lams[hi]) * (0.5 * ROOT_XRTOL) + _EDGE_TOL
            parts = np.array([lams[lo], lams[lo + 1], lams[hi - 1], lams[hi]])
            wide = more(Em[i + 1] - Em[i]) & (parts[1::2] - parts[0::2] >= tol)
            mid = np.unique(0.5 * (parts[0::2] + parts[1::2])[wide])
            if mid.size == 0:
                return lo, hi, Em[i], Em[i + 1]
            order = np.argsort(np.concatenate([lams, mid]))
            lams, E, G, sure = (np.concatenate(pair)[order]
                                for pair in zip((lams, E, G, sure), (mid, *_edge_count(V, mid))))

    lo, hi, below, above = bisect(lambda count: count > 1)
    one = above - below == 1
    roots = np.full(j.size, np.nan)
    if one.any():
        roots[one] = _chandrupatla(lambda x: _gap_function(transfer_matrices(V, x))[0],
                                   lams[lo[one]], lams[hi[one]], G[lo[one]], G[hi[one]],
                                   _EDGE_TOL)
    lost = one & np.isnan(roots)
    warnings = [f"G has one sign at both ends of [{a!r}, {b!r}], which holds band edge {n} "
                "by the edge count: placed by bisection on the count"
                for a, b, n in zip(lams[lo[lost]].tolist(), lams[hi[lost]].tolist(),
                                   j[lost].tolist())]
    # a band narrower than the tolerance, its edges solved on either side of
    # a lam inside it, can have both at that lam: bisect them on E instead
    thin = roots[0:-1:2] >= roots[1::2]
    lost[:2 * thin.size] |= np.repeat(thin, 2)
    if lost.any():
        lo, hi, below, above = bisect(lambda count: (count > 1) | lost)
    a, b = lams[lo], lams[hi]
    placed = np.where(j % 2 == 1, np.where(j == below + 1, a, 0.5 * (a + b)),
                      np.where(j == above, b, 0.5 * (a + b)))
    events = np.where(one & ~lost, roots, placed).tolist()
    if len(events) % 2 == 1:
        events.append(float(lambda_max))  # last band clipped at lambda_max
    return events, warnings


# A cell asks for about l sqrt(lam - min V) / pi bands below lam and l (max V
# - min V) / pi^2 more edges in the overlap of their comparison brackets, and
# a cosine chain for about as many Fourier modes; the band list, the brackets
# and the chains are sized by that count.  Near 1e6 the free cell's bands
# took 0.8 s and 180 MB, a cosine cell of A = 4.8e6 1.2 s; amplitudes of 1e12
# ask for 1e11.
_MAX_BANDS = 1e6


def _check_size(V: Potential, l: float, lam: float) -> None:
    """Refuse a cell and spectral bound that ask for more than _MAX_BANDS
    bands, naming the input that asks for most."""
    bands = l * math.sqrt(max(lam - V.min_value(), 0.0)) / math.pi
    deep = l * (V.max_value() - V.min_value()) / math.pi**2
    if not bands + deep <= _MAX_BANDS:
        name = (f"the potential's range {V.max_value() - V.min_value():.6g}" if deep > bands
                else f"lambda {lam:.6g}")
        raise ValueError(f"{name} on cells of length {l:g} asks for about {bands + deep:.3g} "
                         f"bands, more than the {_MAX_BANDS:.0e} computed with")


def spectrum_bands(V: Potential, l: float, lambda_max: float) -> BandList:
    """The bands [a_i, b_i] of ``-u'' + V u`` on cells of length ``l`` that
    start at or below ``lambda_max``, the last one clipped there.  Bands that
    touch are listed apart, ``b_i = a_(i+1)``.  Three routes, none with a
    threshold on Delta:

    * Flat cells v, for any real l, and cells flat to within _EDGE_TOL at
      their mid-value v: lam_0 = v and touches v + (n pi/l)^2.
    * Cosine cells: the eigenvalues of the Fourier-Hill matrices at k = 0
      and k = pi/l (periodic and antiperiodic), sorted and paired.
    * Piecewise-linear cells: one period.  The band edges are the periodic
      and antiperiodic eigenvalues, and E(lam), the number of them at or
      below lam, is a Sturm count (:func:`_edge_count`): edge j is
      min {lam : E(lam) >= j}.  They grow with V by min-max, so comparison
      with constant potentials (Magnus & Winkler, *Hill's Equation*, 1966,
      ch. 2) puts each within [min V, max V] of the free cell's.  Bisection
      on E isolates every edge in that bracket, and one root solve of G =
      (a - d)^2 + 4bc, Delta^2 - 4 without its cancellation, places them
      all (:func:`_exact_edges`).  On c = round(l) > 1 periods
      Delta_c = 2 T_c(Delta_1 / 2): each one-period band splits into c bands
      touching where Delta_1 = 2 cos(j pi / c), j = 1 .. c - 1.

    A cell and ``lambda_max`` that ask for more than _MAX_BANDS bands raise
    ValueError.
    """
    _periods(l, V.max_value() == V.min_value())
    if not math.isfinite(lambda_max):
        raise ValueError(f"lambda_max must be finite, not {lambda_max}")
    if lambda_max <= V.min_value():
        raise ValueError("lambda_max must exceed the spectral floor")
    _check_size(V, l, lambda_max)
    warnings = []
    if V.max_value() - V.min_value() <= _EDGE_TOL:
        # flat, or within the root tolerance of it: every edge lies in its
        # window, so v at the windows' middle is exact to that tolerance
        v = 0.5 * (V.min_value() + V.max_value())
        n = np.arange(1.0, l * math.sqrt(max(lambda_max - v, 0.0)) / math.pi + 1.0)
        touches = (n * math.pi / l) ** 2 + v
        edges = [v, *np.repeat(touches[touches <= lambda_max], 2).tolist(), lambda_max]
    elif V.kind == "cosine":
        # k = 0 and pi/l: the chains at q = pi m / l, m = 0..2l-1, where q and
        # -q give one spectrum, whose doubled eigenvalues are touches
        m = np.arange(2 * round(l))
        qs = math.pi / l * np.minimum(m, m.size - m)
        edges = np.sort(_hill_chains(V, qs, _chain_size(V, lambda_max)).ravel())
    else:
        edges, warnings = _exact_edges(V, lambda_max)
        c = round(l)
        if c > 1:  # M_c = (-1)^j I where Delta_1 = 2 cos(j pi / c)
            lo, hi = (np.repeat(edges[i::2], c - 1) for i in (0, 1))
            levels = np.tile(2.0 * np.cos(math.pi * np.arange(1, c) / c), len(edges) // 2)
            splits = _level_roots(V, lo, hi, levels)  # NaN past lambda_max
            edges = sorted(edges + np.repeat(splits[~np.isnan(splits)], 2).tolist())
    bands = []
    for a, b in zip(edges[0::2], edges[1::2]):
        b = min(b, lambda_max)
        if a < b:
            bands.append((float(a), float(b)))
    return BandList(tuple(bands), tuple(warnings))


def band_function(V: Potential, l: float, bands: BandList, band_index, k):
    """Eigenvalue on band ``band_index`` (1-based) of ``bands``, the caller's
    :func:`spectrum_bands` result, at reduced quasi-momentum ``k`` in
    [0, pi/l].  An array of ``k`` gives an array of eigenvalues, a scalar
    ``k`` a float.  A 1-D sequence of band indices gives one row per band,
    shape ``(len(band_index),) + np.shape(k)``, row r exactly
    ``band_function(V, l, bands, band_index[r], k)``, from one solve: every
    row's root brackets in one batched root solve, and one Fourier-Hill
    eigensolve per theta for the rows whose chains have one size.

    At k = 0 and pi/l it is the band's edge from ``bands``, so the band
    must be whole (not clipped at ``lambda_max``).  Inside the zone every
    kind reads one period.  On c = round(l) periods band b is part of
    one-period band J = ceil(b / c), where Delta_1 = 2 cos theta with
    theta = (pi (g + g mod 2) + (-1)^g l k) / c, i = (b - 1) mod c, and
    g = i for odd J, c - 1 - i for even J.  Cosine cells take the J-th
    eigenvalue of the Fourier-Hill matrix H(theta); piecewise-linear cells
    solve Delta_1(lam) = 2 cos theta between the band's edges, all k in one
    batched root solve.  Flat cells v, at any real l, take the closed form
    v + (pi (b - b mod 2) + (-1)^(b + 1) l k)^2 / l^2.
    A band above the bound of :func:`spectrum_bands` raises ValueError.
    """
    flat = V.max_value() == V.min_value()
    c = _periods(l, flat)
    if np.ndim(band_index) > 1:
        raise ValueError("band_index must be an int or a 1-D sequence of them")
    indices = [operator.index(i) for i in np.ravel(band_index).tolist()]
    for index in indices:
        if not 1 <= index <= len(bands.bands):
            raise ValueError(f"band_index must lie in 1..{len(bands.bands)}")
    ks = np.asarray(k, dtype=float)
    if not np.all((0.0 <= ks) & (ks <= math.pi / l + 1e-12)):
        raise DomainError("k must lie in the reduced zone [0, pi/l]")
    for index in indices:
        _check_size(V, l, bands.bands[index - 1][1])

    flat_ks = ks.ravel()
    at_zero = flat_ks < 1e-12
    at_pi = ~at_zero & (flat_ks > math.pi / l - 1e-12)
    inside = ~(at_zero | at_pi)
    lam = np.empty((len(indices), flat_ks.size))
    chains = {}  # chain size n: (row, J, theta) of the cosine rows it serves
    brackets = []  # (row, band, a, b, levels 2 cos theta) of the piecewise-linear rows
    for r, index in enumerate(indices):
        a, b = bands.bands[index - 1]
        # On odd bands Delta runs +2 -> -2, on even bands -2 -> +2.
        lam[r] = np.where(at_zero, a if index % 2 == 1 else b, b if index % 2 == 1 else a)
        if not inside.any():
            continue
        if flat:
            theta = math.pi * (index - index % 2) + (-1) ** (index + 1) * l * flat_ks[inside]
            lam[r, inside] = V.min_value() + (theta / l) ** 2
            continue
        J, i = divmod(index - 1, c)  # J counts one-period bands from 0
        g = i if J % 2 == 0 else c - 1 - i
        theta = (math.pi * (g + g % 2) + (-1) ** g * l * flat_ks[inside]) / c
        if V.kind == "cosine":
            # a larger chain moves the eigenvalues in their last bits
            chains.setdefault(_chain_size(V, b), []).append((r, J, theta))
        else:
            brackets.append((r, index, a, b, 2.0 * np.cos(theta)))
    for n, group in chains.items():
        thetas, at = np.unique(np.concatenate([theta for _, _, theta in group]),
                               return_inverse=True)
        eigs = np.sort(_hill_chains(V, thetas, n), axis=1)
        for (r, J, _), at_r in zip(group, np.split(at, len(group))):
            lam[r, inside] = eigs[at_r, J]
    if brackets:
        rows, numbers, los, his, levels = zip(*brackets)
        m = np.count_nonzero(inside)
        roots = _level_roots(V, np.repeat(los, m), np.repeat(his, m), np.concatenate(levels))
        for r, band, a, b, row in zip(rows, numbers, los, his, np.split(roots, len(rows))):
            if np.isnan(row).any():
                raise NonConvergenceError(
                    f"dispersion target not bracketed in band {band} "
                    f"[{a:.6g}, {b:.6g}]; is it clipped at lambda_max?"
                )
            lam[r, inside] = row
    lam = lam.reshape((len(indices),) + ks.shape)
    if np.ndim(band_index):
        return lam
    return float(lam[0]) if ks.ndim == 0 else lam[0]


def free_discriminant(l: float, lam: float) -> float:
    """Closed form 2 cos(l sqrt(lam)) of the free operator, for validation."""
    if lam >= 0:
        return 2.0 * math.cos(l * math.sqrt(lam))
    return 2.0 * math.cosh(l * math.sqrt(-lam))
