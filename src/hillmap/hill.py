"""Periodic Hill operators -d^2/dx^2 + V(x): potentials, monodromy matrices,
discriminants, spectral bands, and the universal discriminant density.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import airy

from .errors import DomainError, NonConvergenceError
# find_root is not called here; it stays importable as hill.find_root, the
# name under which perfbench/tracing.py counts root solves.
from .numerics import IVP_TOL, ToleranceSpec, find_root, find_roots, integrate_ivp  # noqa: F401
from .transfer import invariant_density

TWO_PI = 2.0 * math.pi

# How close a monodromy determinant must stay to 1.
DET_TOL = 1e-8
# Bisection of the Fourier-Hill chains runs to the last bit of each eigenvalue.
_TINY = float(np.finfo(float).tiny)


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
        """Minimum over one period (lower bound of the spectrum)."""
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "cosine":
            return -abs(self.params[0])
        return float(np.min(self._table[1]))  # piecewise linear: a node value

    def max_value(self) -> float:
        """Maximum over one period."""
        if self.kind == "constant":
            return self.params[0]
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


def _integrated(V: Potential, l: float, lams: np.ndarray) -> np.ndarray:
    """One stacked DOP853 solve at ``IVP_TOL``; its step control bounds the
    error in RMS over the whole stack, not per lam."""
    n = lams.size

    def rhs(t, y):
        z = y.reshape(2, 2, n)  # basis solution, (u, u'), lam
        return np.stack([z[:, 1], (V(t) - lams) * z[:, 0]], 1).ravel()

    y0 = np.zeros((2, 2, n))
    y0[0, 0] = y0[1, 1] = 1.0
    return integrate_ivp(rhs, y0.ravel(), 0.0, l, IVP_TOL).reshape(2, 2, n).transpose(2, 1, 0)


def transfer_matrices(V: Potential, l: float, lams, derivative: bool = False):
    """Transfer matrices over ``[0, l]`` of ``-u'' + V u = lam u`` for every lam.

    Returns an array of shape ``lams.shape + (2, 2)`` (columns as in
    :class:`Monodromy`); with ``derivative``, the pair (M, dM/dlam).

    ``constant``, ``piecewise_linear`` and ``tabulated`` potentials are
    linear on each piece of a period: each piece gets its exact matrix (Airy
    functions, their asymptotic expansions, or one Magnus step, picked per
    piece and lam, accurate to ~1e-13 relative), and the pieces are
    multiplied across the cell.  ``cosine`` potentials are integrated in one
    stacked DOP853 solve held to ``IVP_TOL``, which bounds the error in RMS
    over the stack; they have no ``derivative``.
    """
    _check_cell_length(V, l)
    if derivative and V.kind == "cosine":
        raise ValueError(
            "derivative is available for the exact kinds only "
            "(constant, piecewise_linear, tabulated)"
        )
    lams = np.asarray(lams, dtype=float)
    shape = lams.shape + (2, 2)
    if lams.size == 0:
        M, dM = np.empty(shape), np.empty(shape)
    elif V.kind == "cosine":
        M, dM = _integrated(V, l, lams.ravel()), None
    else:
        M, dM = _closed_form(V, l, lams.ravel(), derivative)
    M = M.reshape(shape)
    return (M, dM.reshape(shape)) if derivative else M


def monodromy(V: Potential, l: float, lam: float) -> Monodromy:
    """Transfer matrix over ``[0, l]`` for ``-u'' + V u = lam u``: exact for
    the piecewise-linear kinds, integrated at ``IVP_TOL`` for cosine cells
    (:func:`transfer_matrices`)."""
    return Monodromy(transfer_matrices(V, l, [lam])[0], l, lam)


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


def _traces(V: Potential, l: float, lams, derivative: bool = False):
    """Delta(lam) for an array of lam; with ``derivative``, (Delta,
    dDelta/dlam).  Exact for the piecewise-linear kinds, whose edges are
    scanned and refined on it."""
    got = transfer_matrices(V, l, lams, derivative=derivative)
    return (_trace(got[0]), _trace(got[1])) if derivative else _trace(got)


# Accuracy in lam of refined band edges, turning points and dispersion points.
_EDGE_TOL = ToleranceSpec(1e-10, 0.0, 256)
# Scan points per unit of sqrt(lam - lam_floor).
_SCAN_DENSITY = 512
# Relative rounding of the exact transfer matrices, allowed on top of what
# the error of a turning point admits in the coexistence test.
_ROUNDING = 1e-12
# Fourier modes kept past those that carry the eigenfunctions below lam_top.
# Mode j couples in through (|A|/2) / ((q + omega j)^2 - lam_top), so a few
# modes past sqrt(lam_top + |A|) + sqrt(|A|) decide every eigenvalue below
# lam_top to rounding: against 40-digit eigenvalues, A = 1, 7.8326, 20, 200
# and lam <= 300, within 5.7e-14.  The chains are bisected to the last bit
# (_TINY); LAPACK's default solver is held to eps times the matrix's norm,
# ~(omega n)^2, and with 40 modes of margin was 2e-11 off.
_FOURIER_MARGIN = 8


def _level_roots(V: Potential, l: float, lo, hi, levels):
    """lam in each bracket [lo, hi] with Delta(lam) = level, all brackets in
    one batched root solve; NaN where a bracket does not straddle its level."""
    return find_roots(
        lambda x, level: _traces(V, l, x) - level, lo, hi, _EDGE_TOL, args=(levels,)
    )


def _hill_eigenvalues(V: Potential, qs, lam_top: float) -> np.ndarray:
    """Sorted eigenvalues, exact to rounding up to lam_top, of the
    Fourier-Hill chains of a cosine cell at wavenumbers ``qs`` (Deconinck &
    Kutz, J. Comput. Phys. 219, 2006).

    A Bloch wave exp(i k x) sum_n u_n exp(2 pi i n x / l) of
    ``-u'' + A cos(omega x) u`` couples u_n only to u_(n +- c), c = omega l /
    2 pi, so the matrix H(k) splits into c symmetric tridiagonal chains, one
    per q = k + 2 pi r / l, r = 0..c-1: diagonal (q + omega j)^2,
    off-diagonal A / 2.
    """
    amp, freq = V.params
    freq = abs(freq)
    reach = math.sqrt(max(lam_top, 0.0) + abs(amp)) + math.sqrt(abs(amp))
    n = int(reach / freq) + _FOURIER_MARGIN
    j = freq * np.arange(-n, n + 1)
    off = np.full(2 * n, 0.5 * amp)
    qs = np.asarray(qs)
    chains = [
        eigvalsh_tridiagonal((q + j) ** 2, off, lapack_driver="stebz", tol=_TINY)
        for q in qs - freq * np.round(qs / freq)  # centred: |q| <= omega / 2
    ]
    return np.sort(np.concatenate(chains))


def _scanned_edges(V: Potential, l: float, lambda_max: float):
    """Band edges below lambda_max of an exactly solved kind, in order, with
    lambda_max closing a band it cuts; and the warnings."""
    start = V.min_value() - 1.0
    s_max = math.sqrt(lambda_max - start)
    s = np.linspace(0.0, s_max, max(int(_SCAN_DENSITY * s_max), 64) + 1)
    lams = start + s * s
    deltas = _traces(V, l, lams)

    # simple crossings of +2 and -2
    levels = np.array([2.0, -2.0])
    g = deltas - levels[:, None]
    which, idx = np.nonzero(g[:, :-1] * g[:, 1:] < 0)
    events = _level_roots(V, l, lams[idx], lams[idx + 1], levels[which]).tolist()

    # turning points of Delta where the grid stays inside |Delta| <= 2: a
    # touch of two bands, or a gap narrower than the grid
    d = np.diff(deltas)
    turns = np.nonzero(d[:-1] * d[1:] < 0)[0] + 1
    turns = turns[np.all(np.abs(deltas[turns[:, None] + [-1, 0, 1]]) <= 2.0, axis=1)]
    lo, hi = lams[turns - 1], lams[turns + 1]
    lam_stars = find_roots(
        lambda x: _traces(V, l, x, derivative=True)[1], lo, hi, _EDGE_TOL
    )
    true_turn = ~np.isnan(lam_stars)  # else dDelta/dlam keeps its sign: a grid wiggle
    lo, hi, lam_stars = lo[true_turn], hi[true_turn], lam_stars[true_turn]
    M, dM = transfer_matrices(V, l, lam_stars, derivative=True)
    d_stars = _trace(M)
    sign = np.where(d_stars > 0.0, 1.0, -1.0)
    # Coexistence: the bands touch iff M = sign I there.  lam* is within
    # _EDGE_TOL of the touch, so M may miss sign I by |dM/dlam| times that;
    # beside a gap of width w it misses by ~|dM/dlam| w (Delta -+ 2 only by
    # ~w^2, which no fixed threshold on Delta separates from rounding).
    norm = lambda X: np.linalg.norm(X, axis=(-2, -1))
    touch = norm(M - sign[:, None, None] * np.eye(2)) <= (
        norm(dM) * _EDGE_TOL.abs_tol + _ROUNDING * norm(M)
    )
    gap = ~touch & (np.abs(d_stars) > 2.0)
    events += np.repeat(lam_stars[touch], 2).tolist()
    # the grid stepped over this gap: Delta -+ 2 changes sign on each side of lam*
    events += _level_roots(
        V, l, np.concatenate([lo[gap], lam_stars[gap]]),
        np.concatenate([lam_stars[gap], hi[gap]]), 2.0 * np.tile(sign[gap], 2),
    ).tolist()
    warnings = [
        f"turning point near lambda={lam:.6g} is neither a touch (M != +-I) "
        "nor a gap (|Delta| <= 2)"
        for lam in lam_stars[~(touch | gap)]
    ]

    events.sort()
    if abs(deltas[0]) <= 2.0:
        events.insert(0, float(lams[0]))
        warnings.append("scan started inside the spectrum")
    if len(events) % 2 == 1:
        events.append(float(lambda_max))  # last band clipped at lambda_max
    return events, warnings


def spectrum_bands(V: Potential, l: float, lambda_max: float) -> BandList:
    """The bands [a_i, b_i] of ``-u'' + V u`` on cells of length ``l`` that
    start at or below ``lambda_max``, the last one clipped there.  Bands that
    touch are listed apart, ``b_i = a_(i+1)``.

    Cosine cells: the edges are the eigenvalues of the Fourier-Hill matrices
    at k = 0 and k = pi/l (periodic and antiperiodic), sorted and paired.

    The other kinds are exact: a scan of Delta on a grid uniform in
    sqrt(lam - lam_floor) finds the crossings of +-2, refined in one batched
    root solve.  At each turning point lam* that the grid does not see
    leave [-2, 2], the bands touch iff M(lam*) = +-I to within the accuracy
    of lam* (the coexistence test); else, if |Delta(lam*)| > 2, both edges
    of the gap lie on either side of lam*.  A turning point that is neither
    is reported in ``warnings``.
    """
    _check_cell_length(V, l)
    if lambda_max <= V.min_value():
        raise ValueError("lambda_max must exceed the spectral floor")
    if V.kind == "cosine":
        # the chains of k = 0 and k = pi/l sit at q = pi m / l, m = 0..2c-1;
        # q and -q give one spectrum, whose doubled eigenvalues are touches
        c = round(l * abs(V.params[1]) / TWO_PI)
        m = np.arange(2 * c)
        qs = math.pi / l * np.minimum(m, 2 * c - m)
        edges, warnings = _hill_eigenvalues(V, qs, lambda_max), []
    else:
        edges, warnings = _scanned_edges(V, l, lambda_max)
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
    must be whole (not clipped at ``lambda_max``).  Inside the zone, cosine
    cells take the ``band_index``-th eigenvalue of the Fourier-Hill matrix
    H(k); the other kinds solve the dispersion relation
    ``Delta_l(lam) = 2 cos(l k)`` between the band's edges, all k in one
    batched root solve.
    """
    if not 1 <= band_index <= len(bands.bands):
        raise ValueError(f"band_index must lie in 1..{len(bands.bands)}")
    ks = np.asarray(k, dtype=float)
    if not np.all((0.0 <= ks) & (ks <= math.pi / l + 1e-12)):
        raise DomainError("k must lie in the reduced zone [0, pi/l]")
    a, b = bands.bands[band_index - 1]

    # On odd bands Delta runs +2 -> -2, on even bands -2 -> +2.
    k_zero_edge = a if band_index % 2 == 1 else b
    k_pi_edge = b if band_index % 2 == 1 else a
    at_zero = ks < 1e-12
    at_pi = ~at_zero & (ks > math.pi / l - 1e-12)
    inside = ~(at_zero | at_pi)
    lam = np.where(at_zero, k_zero_edge, k_pi_edge)
    if inside.any() and V.kind == "cosine":
        shifts = TWO_PI / l * np.arange(round(l * abs(V.params[1]) / TWO_PI))
        lam[inside] = [_hill_eigenvalues(V, q + shifts, b)[band_index - 1]
                       for q in ks[inside]]
    elif inside.any():
        lam[inside] = _level_roots(V, l, a, b, 2.0 * np.cos(l * ks[inside]))
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
