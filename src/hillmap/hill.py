"""Periodic Hill operators -d^2/dx^2 + V(x): potentials, monodromy matrices,
discriminants, spectral bands and band functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import airy, zeta

from .errors import DomainError, NonConvergenceError
# find_root and integrate_ivp are not called here: perfbench/tracing.py
# counts root and ODE solves under hill.find_root and hill.integrate_ivp.
from .numerics import find_root, find_roots, integrate_ivp, trace_poly  # noqa: F401

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
        # (nodes, values) over one period, and the (v0, slope, length) of the
        # linear pieces of [0, 1] in order, one exact matrix each in the
        # closed-form kernel.  Not fields, so equality and the hash see only
        # the defining data.
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_pieces", None)
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
    c = np.cbrt(s)
    z0 = q0 / (c * c)
    z1 = z0 + c * h
    a0, ap0, b0, bp0 = airy(z0)
    a1, ap1, b1, bp1 = airy(z1)
    # T = Phi(h) Phi(0)^-1 with Phi = [[Ai, Bi], [c Ai', c Bi']], det c / pi
    inv0 = _matrices(c * bp0, -b0, -c * ap0, a0) * (math.pi / c)[:, None, None]
    phi1 = _matrices(a1, b1, c * ap1, c * bp1)
    T = phi1 @ inv0
    if not derivative:
        return T, None
    dz = -1.0 / (c * c)  # dz/dlam; Ai'' = z Ai
    dinv0 = _matrices(c * z0 * b0, -bp0, -c * z0 * a0, ap0) * (dz * math.pi / c)[:, None, None]
    dphi1 = _matrices(ap1, bp1, c * z1 * a1, c * z1 * b1) * dz[:, None, None]
    return T, dphi1 @ inv0 + phi1 @ dinv0


def _asymptotic_piece(q0, s, h):
    q1 = q0 + s * h
    nu = np.where(q0.real < 0.0, 1.0, -1.0)  # 1 oscillatory, -1 forbidden
    p0, p1 = -nu * q0, -nu * q1
    r0, r1 = np.sqrt(p0), np.sqrt(p1)
    f0, f1 = np.sqrt(r0), np.sqrt(r1)
    sg = np.copysign(1.0, s)
    # zeta(h) - zeta(0), with zeta = (2/3) p^(3/2) / |s|, times the direction
    phase = (2.0 / 3.0) * sg * h * (p0 + r0 * r1 + p1) / (r0 + r1)
    osc = nu > 0
    cd, sd = np.empty_like(phase), np.empty_like(phase)
    cd[osc], sd[osc] = np.cos(phase[osc]), np.sin(phase[osc])
    cd[~osc], sd[~osc] = np.cosh(phase[~osc]), np.sinh(phase[~osc])

    def series(p, r):
        w = 1.5 * np.abs(s) / (p * r)
        y = -nu * w * w
        return (_horner(_U_EVEN, y), w * _horner(_U_ODD, y),
                _horner(_V_EVEN, y), w * _horner(_V_ODD, y))

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
    C, S = _horner(_COSH_SQRT, w), _horner(_SINHC_SQRT, w)
    return _matrices(C + S * d, S * h, S * low, C - S * d)


def _piece(q0: np.ndarray, s: np.ndarray, h: np.ndarray, derivative: bool):
    """Exact transfer matrices of all linear pieces for every q0 = v0 - lam,
    in one pass: q0 has one row per piece, s and h are the pieces' (P, 1)
    columns of slopes and lengths.  Each form runs once, on the (piece, lam)
    pairs it serves.  With ``derivative`` also their lam-derivatives, else
    None."""
    q1 = q0 + s * h
    p = np.minimum(np.abs(q0), np.abs(q1))
    asymptotic = (q0 * q1 > 0) & (p * h * h >= _FLAT) & (p**1.5 >= 1.5 * _ZETA * np.abs(s))
    magnus = ~asymptotic & (np.abs(s) ** (1.0 / 3.0) * h <= _CORNER)
    rest = ~(asymptotic | magnus)
    s, h = np.broadcast_to(s, q0.shape), np.broadcast_to(h, q0.shape)
    T = np.empty(q0.shape + (2, 2))
    dT = np.empty_like(T) if derivative else None
    for mask, form in ((asymptotic, _asymptotic_piece), (magnus, _magnus_piece)):
        if not mask.any():
            continue
        if derivative:
            Tc = form(q0[mask] - 1j * _STEP, s[mask], h[mask])
            T[mask], dT[mask] = Tc.real, Tc.imag / _STEP
        else:
            T[mask] = form(q0[mask], s[mask], h[mask])
    if rest.any():
        T[rest], dTr = _airy_piece(q0[rest], s[rest], h[rest], derivative)
        if derivative:
            dT[rest] = dTr
    return T, dT


def transfer_matrices(V: Potential, lams, derivative: bool = False):
    """Transfer matrices over one period of ``-u'' + V u = lam u`` for every lam.

    Returns an array of shape ``lams.shape + (2, 2)`` (columns as in
    :class:`Monodromy`); with ``derivative``, the pair (M, dM/dlam).

    A piecewise-linear potential is linear on each piece of a period: each
    piece gets its exact matrix (Airy functions, their asymptotic
    expansions, or one Magnus step, picked per piece and lam, accurate to
    ~1e-13 relative), all pieces and lam in one pass of :func:`_piece`, and
    the pieces are multiplied across the period.  Cosine cells are refused:
    :func:`discriminant` serves them.
    """
    if V.kind == "cosine":
        raise ValueError("transfer matrices and derivatives are for piecewise_linear cells; "
                         "cosine cells have discriminant()")
    pieces = V._pieces
    lams = np.asarray(lams, dtype=float)
    M = np.tile(np.eye(2), (lams.size, 1, 1))
    dM = np.zeros_like(M) if derivative else None
    v0, s, h = np.array(pieces).T[..., None]
    T, dT = _piece(v0 - lams.ravel(), s, h, derivative)
    for p in range(len(pieces)):
        if derivative:
            dM = dT[p] @ M + T[p] @ dM
        M = T[p] @ M
    shape = lams.shape + (2, 2)
    return (M.reshape(shape), dM.reshape(shape)) if derivative else M.reshape(shape)


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


# Accuracy in lam of refined band edges, turning points and dispersion points.
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


def _hill_eigenvalues(V: Potential, qs, lam_top: float) -> np.ndarray:
    """Sorted eigenvalues, exact to rounding below lam_top, of the
    Fourier-Hill chains at the quasi-momenta qs (Deconinck & Kutz, J. Comput.
    Phys. 219, 2006): ``A cos(2 pi x)`` couples the Bloch modes
    exp(i (q + 2 pi j) x) of one q only to j +- 1, with A/2.  Chain q holds
    the modes j = -n..n about q centred to |q| <= pi."""
    (amp,) = V.params
    reach = math.sqrt(max(lam_top, 0.0) + abs(amp)) + math.sqrt(abs(amp))
    n = int(reach / TWO_PI) + _FOURIER_MARGIN
    off = np.full(2 * n, 0.5 * amp)
    qs = qs - TWO_PI * np.round(qs / TWO_PI)
    return np.sort(np.concatenate([eigvalsh_tridiagonal(
        (q + TWO_PI * np.arange(-n, n + 1)) ** 2, off, lapack_driver="stebz", tol=_TINY)
        for q in qs]))


# A cosine chain's couplings past n modes a side, taken to first order, leave
# out ~(A / 8 pi^2)^4 / n^7: ~1e-15 at n^7 = _COUPLED (A / 8 pi^2)^4, within
# 2.7e-14 of 300 modes for |A| <= 20, |lam| <= 150.  n >= sqrt|lam| / pi + 8
# shrinks the tails' zeta series 4-fold a term, past eps / 4 at _TAIL_TERMS.
_COUPLED = 1e15
_TAIL_TERMS = 27


def discriminant(V: Potential, l: float, lams, derivative: bool = False):
    """Delta_l(lam), the trace of the transfer matrix over ``[0, l]``, for
    an array of lam (same shape out); with ``derivative``, the pair (Delta,
    dDelta/dlam), of the exact kinds only.  Over c = round(l) periods it is
    f_c(Delta_1) (:func:`trace_poly`), the derivative f_c'(Delta_1) dDelta_1.

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
    if V.kind != "cosine" or derivative:
        got = transfer_matrices(V, lams, derivative=derivative)
        if derivative:
            delta = _trace(got[0])
            return trace_poly(c, delta), trace_poly(c, delta, derivative=True) * _trace(got[1])
        return trace_poly(c, _trace(got))
    shape, lams = np.shape(lams), np.ravel(lams).astype(float)
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
    e = _ROUNDING * np.max(np.abs(M), axis=(-2, -1))
    G, err = (a - d) ** 2 + 4.0 * b * c, 4.0 * e * (abs(a - d) + abs(b) + abs(c) + 2.0 * e)
    deep = err >= 4.0
    return (np.where(deep, (a + d - 2.0) * (a + d + 2.0), G),
            np.where(deep, 4.0 * e * (abs(a + d) + e), err))


def _turning_edges(V: Potential, lo, hi):
    """Which windows [lo, hi], whose ends lie in bands, hold a turning point
    lam* of Delta, all in one batched root solve of dDelta/dlam; of those,
    the touches (twice each), and the brackets (lo, hi) of the edges of the
    open gaps, across which G changes sign.  lam* lies in a closed gap, where
    G >= 0, so G above its rounding there is a gap and anything else a touch."""
    lam_stars = find_roots(
        lambda x: discriminant(V, 1.0, x, derivative=True)[1], lo, hi, _EDGE_TOL)
    found = ~np.isnan(lam_stars)
    lo, hi, lam_stars = lo[found], hi[found], lam_stars[found]
    G, err = _gap_function(transfer_matrices(V, lam_stars))
    gap = G > err
    brackets = (np.concatenate([lo[gap], lam_stars[gap]]),
                np.concatenate([lam_stars[gap], hi[gap]]))
    return found, np.repeat(lam_stars[~gap], 2).tolist(), brackets


# (sub-piece, lam) pairs per pass of _edge_count: its matrices hold one entry
# per pair, and both counts grow with a deep cell's bands
_COUNT_PAIRS = 2**16


def _edge_count(V: Potential, lams):
    """E(lam), the number of band edges at or below each lam (one period of a
    piecewise-linear cell); Q(lam) = 2n + [sign Delta != (-1)^n]; and where G
    is below minus its rounding, inside a band.  The n zeros in (0, 1) of the
    Dirichlet solution u = M_12, one per Dirichlet eigenvalue below lam and so
    one per closed gap (Eastham, 1973, ch. 2), lie pi / sqrt(lam - min V)
    apart at least (compare with min V): n sign changes of u at the ends of
    sub-pieces half that long.  Q steps at Delta's zero in band m and at gap
    m's Dirichlet eigenvalue, never at an edge; E = 2m - 1 in band m, 2m in gap m.
    Every lam runs on the sub-pieces of the largest, in passes of at most
    _COUNT_PAIRS (sub-piece, lam) pairs."""
    lams = np.asarray(lams, dtype=float)
    _, s, h = np.array(V._pieces).T
    k = 1 + (2.0 / math.pi * math.sqrt(max(np.max(lams) - V.min_value(), 0.0)) * h).astype(int)
    s, h = np.repeat(s, k), np.repeat(h / k, k)
    q0, width = V(np.cumsum(h) - h)[:, None], max(1, _COUNT_PAIRS // h.size)
    n, M = [], []
    for i in range(0, lams.size, width):
        T, _ = _piece(q0 - lams[i:i + width], s[:, None], h[:, None], False)
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
    return Q + ((G <= err) == (Q % 2 == 0)), Q, G < -err


def _band_points(V: Potential, bands: int, ceiling: float):
    """A point inside each band m = 1 .. bands below ceiling: bisection on Q
    toward Delta's zero in band m from [(m - 1)^2 pi^2 + min V, m^2 pi^2 + max
    V], where comparison puts it.  Every Q narrows every bracket."""
    m2 = np.arange(bands + 1.0) ** 2 * math.pi**2
    lo, hi = m2[:-1] + V.min_value(), np.minimum(m2[1:] + V.max_value(), ceiling)
    while True:
        mids = 0.5 * (lo + hi)
        lams = mids[(lo < mids) & (mids < hi)]
        if lams.size == 0:
            return mids
        _, Q, inside = _edge_count(V, lams)
        # lam raises the bracket of band j + 1 for every j >= j_lo (Q <= 2j,
        # or inside that band) and lowers it for every j <= j_hi (Q > 2j, or
        # inside): a running max and min over j, linear in the bands
        half, odd = Q // 2, Q % 2 == 1
        j_lo = half + (odd & ~inside)
        j_hi = np.minimum(half - 1 + (odd | inside), bands - 1)
        up, down = np.full(bands, -np.inf), np.full(bands, np.inf)
        np.maximum.at(up, j_lo[j_lo < bands], lams[j_lo < bands])
        np.minimum.at(down, j_hi[j_hi >= 0], lams[j_hi >= 0])
        lo = np.maximum(lo, np.maximum.accumulate(up))
        hi = np.minimum(hi, np.minimum.accumulate(down[::-1])[::-1])


def _exact_edges(V: Potential, lambda_max: float):
    """Band edges at or below lambda_max of a piecewise-linear cell of one
    period, in order, with lambda_max closing a band it cuts; and the
    warnings.  Gap n's window is W_n from n0 on and, below W_n0, runs between
    points of bands n and n + 1 (see :func:`spectrum_bands`).  The edges of
    the gaps, and lam_0 on [min V - 1, a point of band 1], are roots of G."""
    v_min, v_max, step = V.min_value(), V.max_value(), math.pi**2
    n0 = math.floor(((v_max - v_min) / step + 1.0) / 2.0) + 1
    # gaps n0 .. the last whose window starts at or below lambda_max, and W_1
    last = max(1, math.floor(math.sqrt((lambda_max - v_min) / step)))
    ns = np.arange(n0, last + 1, dtype=float)
    lo, hi = ns * ns * step + v_min, ns * ns * step + v_max
    ends = np.array([n0 * n0 * step + v_min])  # in band n0
    if n0 > 1:  # gaps 1 .. n0 - 1 up to lambda_max's own, or the one above its band
        gaps = min(n0 - 1, int(_edge_count(V, [min(lambda_max, ends[0])])[0][0] + 1) // 2)
        ends = np.concatenate([_band_points(V, min(gaps + 1, n0 - 1), ends[0]), ends])
        ns = np.concatenate([np.arange(1.0, gaps + 1), ns])
        lo, hi = np.concatenate([ends[:gaps], lo]), np.concatenate([ends[1:gaps + 1], hi])
    found, events, (g_lo, g_hi) = _turning_edges(V, lo, hi)
    warnings = [f"no turning point of Delta found in [{a:.6g}, {b:.6g}], the window of gap "
                f"{n:.0f}" for a, b, n in zip(lo[~found], hi[~found], ns[~found])]
    # lam_0: G >= 4 sinh(1)^2 at min V - 1, G < 0 in band 1
    g_lo, g_hi = np.append(g_lo, v_min - 1.0), np.append(g_hi, ends[0])
    roots = find_roots(lambda x: _gap_function(transfer_matrices(V, x))[0],
                       g_lo, g_hi, _EDGE_TOL)
    lost = np.isnan(roots)  # rounded to the same side of 0 at both ends
    warnings += [f"no band edge found between lambda={a:.6g} and {b:.6g}"
                 for a, b in zip(g_lo[lost], g_hi[lost])]
    events = sorted(e for e in events + roots[~lost].tolist() if e <= lambda_max)
    if len(events) % 2 == 1:
        events.append(float(lambda_max))  # last band clipped at lambda_max
    return events, warnings


# A cell asks for about l sqrt(lam - min V) / pi bands below lam and l (max V
# - min V) / pi^2 deep gaps below the comparison windows, and a cosine chain
# for about as many Fourier modes; the band list, the windows and the chains
# are sized by that count.  Near 1e6 the free cell's bands took 0.8 s and
# 180 MB, a cosine cell of A = 4.8e6 1.2 s; amplitudes of 1e12 ask for 1e11.
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
    * Piecewise-linear cells: one period, by comparison with constant
      potentials (Magnus & Winkler, *Hill's Equation*, 1966, ch. 2).  The
      periodic and antiperiodic eigenvalues grow with V by min-max, strictly
      unless V is constant, so lam_0 lies in [min V, max V], both edges of
      gap n in W_n = (n pi)^2 + [min V, max V], and dDelta/dlam has one zero
      lam*_n in each closed gap and none inside a band.  From the first n0
      with (2 n0 - 1) pi^2 > max V - min V the windows are disjoint with ends
      in bands, so each brackets its lam*_n.  Below W_n0 (deep cells) gap
      n's window runs between points of bands n and n + 1, from bisection on
      the Sturm count of the edges below lam (:func:`_edge_count`).  lam* is
      a gap iff G = (a - d)^2 + 4bc, Delta^2 - 4 without its cancellation,
      exceeds its rounding there, else a touch.  On c = round(l) > 1 periods
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
        edges = _hill_eigenvalues(V, qs, lambda_max)
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


def band_function(V: Potential, l: float, bands: BandList, band_index: int, k):
    """Eigenvalue on band ``band_index`` (1-based) of ``bands``, the caller's
    :func:`spectrum_bands` result, at reduced quasi-momentum ``k`` in
    [0, pi/l].  An array of ``k`` gives an array of eigenvalues, a scalar
    ``k`` a float.

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
    if not 1 <= band_index <= len(bands.bands):
        raise ValueError(f"band_index must lie in 1..{len(bands.bands)}")
    ks = np.asarray(k, dtype=float)
    if not np.all((0.0 <= ks) & (ks <= math.pi / l + 1e-12)):
        raise DomainError("k must lie in the reduced zone [0, pi/l]")
    a, b = bands.bands[band_index - 1]
    _check_size(V, l, b)

    # On odd bands Delta runs +2 -> -2, on even bands -2 -> +2.
    k_zero_edge = a if band_index % 2 == 1 else b
    k_pi_edge = b if band_index % 2 == 1 else a
    at_zero = ks < 1e-12
    at_pi = ~at_zero & (ks > math.pi / l - 1e-12)
    inside = ~(at_zero | at_pi)
    lam = np.where(at_zero, k_zero_edge, k_pi_edge)
    if inside.any() and flat:
        theta = math.pi * (band_index - band_index % 2) + (-1) ** (band_index + 1) * l * ks[inside]
        lam[inside] = V.min_value() + (theta / l) ** 2
    elif inside.any():
        J, i = divmod(band_index - 1, c)  # J counts one-period bands from 0
        g = i if J % 2 == 0 else c - 1 - i
        theta = (math.pi * (g + g % 2) + (-1) ** g * l * ks[inside]) / c
        if V.kind == "cosine":
            lam[inside] = [_hill_eigenvalues(V, t, b)[J] for t in theta[:, None]]
        else:
            lam[inside] = _level_roots(V, a, b, 2.0 * np.cos(theta))
            if np.isnan(lam).any():
                raise NonConvergenceError(
                    f"dispersion target not bracketed in band {band_index} "
                    f"[{a:.6g}, {b:.6g}]; is it clipped at lambda_max?"
                )
    return float(lam) if lam.ndim == 0 else lam


def free_discriminant(l: float, lam: float) -> float:
    """Closed form 2 cos(l sqrt(lam)) of the free operator, for validation."""
    if lam >= 0:
        return 2.0 * math.cos(l * math.sqrt(lam))
    return 2.0 * math.cosh(l * math.sqrt(-lam))
