"""Shared numerical kernels: ODE initial-value integration, bracketed root
finding (one algorithm, Chandrupatla's, on many brackets together or on
one), the trace polynomials f_m, and tanh-sinh quadrature (one pass of
QUAD_LEVELS levels, on one interval or many together).  The quadrature
converges at declared logarithmic singularities.  At a declared power-law
end |x - e|^alpha, alpha >= -0.9, it converges if the mass within an ulp
of e, or within 1e-37 of the panel's width, is below the request (e = 0,
alpha >= -0.7), and otherwise raises with a bound that covers its error.

All routines are pure functions of their inputs and safe to call from any
number of threads.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, NonConvergenceError

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal number


# Absolute requests of the kernels, and the fixed parts of their contracts:
# find_roots' relative term and iteration budget, integrate_ivp's step budget.
ROOT_TOL = 1e-12
ROOT_XRTOL = 4 * _EPS
ROOT_STEPS = 256
QUAD_TOL = 1e-10
IVP_STEPS = 1_000_000


def integrate_ivp(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    t0: float,
    t1: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """Integrate ``y' = rhs(t, y)`` from ``t0`` to ``t1`` and return ``y(t1)``.

    Uses an adaptive Dormand-Prince 8(5,3) pair with ``tol`` as both its
    absolute and its relative tolerance (the latter at least 100 eps).
    Raises :class:`NonConvergenceError` carrying the last accepted
    ``(t, state)`` after IVP_STEPS accepted steps.
    """
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    y = np.asarray(y0, dtype=float).copy()
    if t1 == t0:
        return y

    from scipy.integrate import DOP853  # deferred: no package path integrates an ODE

    solver = DOP853(rhs, t0, y, t1, rtol=max(tol, 100 * _EPS), atol=tol)
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        if steps > IVP_STEPS:
            raise NonConvergenceError(
                f"step budget {IVP_STEPS} exhausted at t={solver.t:.6g}",
                t=solver.t,
                state=np.array(solver.y),
            )
    if solver.status == "failed":
        raise NonConvergenceError(
            f"integrator failed at t={solver.t:.6g}",
            t=solver.t,
            state=np.array(solver.y),
        )
    return solver.y


def find_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = ROOT_TOL,
) -> float:
    """Root of the scalar ``f`` in ``[a, b]``: one bracket of :func:`find_roots`.
    A bracket whose ends share a sign raises :class:`BracketError`."""
    root = find_roots(lambda xs: np.array([f(x) for x in np.ravel(xs).tolist()]), a, b, tol)
    if np.isnan(root):
        raise BracketError(f"f has the same sign at {a:.6g} and {b:.6g}")
    return float(root)


def find_roots(
    f: Callable[..., np.ndarray],
    a,
    b,
    tol: float = ROOT_TOL,
    args: Sequence = (),
) -> np.ndarray:
    """Roots of ``f`` in every bracket ``[a[i], b[i]]``, all solved together.

    ``f(x, *args)`` is elementwise: it maps an array of abscissae, with the
    matching elements of ``args`` (arrays broadcast with ``a`` and ``b``),
    to an array of values.  Every bracket runs Chandrupatla's method (*Adv.
    Eng. Softw.* 28, 1997) in the same calls of ``f``, so a batched ``f``
    pays one call for the ends of every bracket (all ``a``, then all ``b``,
    flattened) and one per iteration for all of them, and each iteration's
    call sees only the brackets still open.  The
    iterates, the stopping rule and the outcomes are SciPy's
    (``scipy.optimize.elementwise.find_root``): a bracket stops when
    ``|f| <= tiny`` at its better end ``x_min`` or when its width is below
    ``|x_min| xrtol + xatol``, with the absolute request ``xatol = tol`` and
    ``xrtol = ROOT_XRTOL = 4 eps``; ROOT_STEPS = 256 bounds the iterations.
    A request that is not > 0 raises ValueError.

    A bracket whose ends share a sign gives NaN, and the caller decides
    what that means.  A bracket still open after ROOT_STEPS iterations,
    or one that comes to have an infinite end or NaN at both ends, raises
    :class:`NonConvergenceError`.
    """
    if not tol > 0:
        raise ValueError(f"abs_tol must be positive, not {tol}")
    a, b, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, *args)))
    if a.size == 0:
        return np.empty(a.shape)
    # both ends in one call, the a's then the b's, each with its args
    ends = f(np.concatenate([a.ravel(), b.ravel()]), *(np.tile(v.ravel(), 2) for v in args))
    return _chandrupatla(f, a, b, *np.split(np.asarray(ends, dtype=float).ravel(), 2), tol, args)


def _chandrupatla(f, a, b, f1, f2, tol, args=()):
    """:func:`find_roots` on the brackets [a, b] (nonempty arrays of one
    shape, as are ``args``) from f1 and f2, the values of f at a and at b,
    flattened: a caller that holds them pays no call for the ends."""
    # |f| <= tiny stops a bracket, but not one with NaN at an end or +-inf
    # at both (SciPy adds 0 min(|f(a)|, |f(b)|) to tiny)
    ftol = _TINY + 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    # The open brackets' state, one column each, so that a stop compacts it
    # in one step: the points (x1, f1) (the newest), (x2, f2) (across the
    # root from it) and (x3, f3) (the one before, none at first: the first
    # step bisects), ftol, the bracket's index and its args.
    S = np.array([a.ravel(), f1, b.ravel(), f2, b.ravel(), f2, ftol, np.arange(a.size),
                  *(v.ravel() for v in args)])
    out = np.empty(a.size)
    # 0 converged, -1 ends of one sign, -2 step budget, -3 non-finite ends
    status = np.zeros(a.size, dtype=int)
    nit = 0
    x1, f1, x2, f2, x3, f3, ftol = S[:7]  # rows of S, which each step updates in place
    while True:
        better = np.abs(f1) < np.abs(f2)
        xmin, fmin = np.where(better, S[0:2], S[2:4])
        done = np.abs(fmin) <= ftol
        d21 = x2 - x1
        dx = np.abs(d21)
        xtol = np.abs(xmin) * ROOT_XRTOL + tol
        stop = done | (dx < xtol)
        # Only the first step can meet ends of one sign: each step keeps a
        # sign change between x1 and x2.  After it only (x1, f1) is new, and
        # a bracket turns invalid only where that is not finite.
        checked = nit == 0 or not np.isfinite(S[:2]).all()
        if checked:
            one_sign = ~done & (np.sign(f1) == np.sign(f2))
            invalid = ~(done | one_sign) & (
                ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2)))
            xmin[one_sign | invalid] = np.nan
            stop |= one_sign | invalid
        if np.count_nonzero(stop):
            index = S[7, stop].astype(int)
            out[index] = xmin[stop]
            if checked:
                status[index] = np.where(one_sign, -1, np.where(invalid, -3, 0))[stop]
            go = ~stop
            S, d21, dx, xtol = S[:, go], d21[go], dx[go], xtol[go]
            if S.shape[1] == 0:
                break
            x1, f1, x2, f2, x3, f3, ftol = S[:7]
        if nit == ROOT_STEPS:
            index = S[7].astype(int)
            out[index] = np.where(np.abs(f1) < np.abs(f2), x1, x2)
            status[index] = -2
            break
        # inverse quadratic interpolation through the last three points
        # where it is safe, else bisection; kept off the bracket's ends
        with np.errstate(divide="ignore", invalid="ignore"):
            # (x1 - x2, f1 - f2) and (x3 - x2, f3 - f2)
            D12, D32 = S[0:2] - S[2:4], S[4:6] - S[2:4]
            (xi, phi), f12, f32 = D12 / D32, D12[1], D32[1]
            alpha = (x3 - x1) / d21
            iqi = ((1 - np.sqrt(1 - xi)) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / f12 * f3 / f32 - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        tl = 0.5 * xtol / dx  # np.clip(t, tl, 1 - tl), for 0 < tl <= 1/2
        x = x1 + np.minimum(np.maximum(t, tl), 1 - tl) * d21
        fx = np.asarray(f(x, *S[8:]), dtype=float)
        # x replaces x1, else x2 becomes x1; x1 becomes x3 or x2
        keep = np.sign(fx) == np.sign(f1)
        S[2:6] = np.where(keep, S[[2, 3, 0, 1]], S[:4])
        S[0], S[1] = x, fx
        nit += 1
    stuck = (status != 0) & (status != -1)
    if stuck.any():
        raise NonConvergenceError(
            f"{int(stuck.sum())} of {a.size} brackets did not converge "
            f"(statuses {sorted(set(status[stuck].tolist()))})"
        )
    return out.reshape(a.shape)


def trace_poly(m: int, x, derivative: bool = False):
    """f_m(x), or with ``derivative`` f_m'(x) = m U_{m-1}(x/2).

    Both run the trace recursion y_{k+1} = x y_k - y_{k-1}: from f_0 = 2 and
    f_1 = x it gives f_m = 2 T_m(x/2); from U_{-1} = 0 and U_0 = 1 it gives
    the Chebyshev polynomials of the second kind at x/2.  Works elementwise on
    ndarrays and exactly on Fractions.  On [-2, 2] the rounding error grows
    like m^2 eps, where Horner on the monomial coefficients loses
    (1 + sqrt 2)^m eps.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    prev, y = (0, 1 + 0 * x) if derivative else (2, x)
    for _ in range(m - 1):
        prev, y = y, x * y - prev
    return m * y if derivative else y


# The tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974).  On a panel of
# half-width r the nodes of parameter t >= 0 lie at distance d = r delta(t)
# inside each end, delta = 1 - tanh(pi/2 sinh t) = 1 / (e^u cosh u),
# u = pi/2 sinh t, computed without cancellation, with the weight
# w = (pi/2) cosh t / cosh^2 u.  Level l adds the nodes of step 2^-l / 4 out
# to t = 4 (delta ~ 1e-37): levels 0..l hold 1 + 32 2^l nodes per panel
# (the centre, t = 0, is evaluated from both ends at half weight).  A panel
# still open after QUAD_LEVELS levels closes with its error bound.
QUAD_LEVELS = 6
# The mass of |x - e|^alpha between an end e and a node at distance d from
# it is d |f(node)| / (1 + alpha).  A declared end adds _TAIL d |f| for its
# outermost node, which covers alpha >= ALPHA_MIN.
ALPHA_MIN = -0.9
_TAIL = 1.0 / (1.0 + ALPHA_MIN)
_INTO_PANEL = np.array([[1.0], [-1.0]])  # from its left end, from its right end


def _tanh_sinh_level(level: int):
    """(delta, w, step) of the nodes ``level`` adds at each end of a panel."""
    step = 0.25 / 2**level
    if level == 0:
        t = np.arange(0.0, 4.0 + step / 2, step)
    else:
        t = np.arange(step, 4.0, 2 * step)
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    w[t == 0.0] *= 0.5  # the centre, reached from both ends
    return 1.0 / (np.exp(u) * np.cosh(u)), w, step


_LEVELS = [_tanh_sinh_level(level) for level in range(QUAD_LEVELS)]


def quad_singular(
    f: Callable[..., np.ndarray],
    a,
    b,
    singular_points: Sequence = (),
    tol: float = QUAD_TOL,
    args: Sequence = (),
):
    """Integrals of ``f`` over ``[a[i], b[i]]`` with declared singular
    points, and their achieved error bounds: ``(value, bound)``.

    ``f(x, *args)`` is elementwise, as in :func:`find_roots`: it maps an
    array of abscissae, with the matching elements of ``args`` (arrays that
    broadcast with ``a`` and ``b``), to an array of values.  Each element of
    ``singular_points`` is a point, or all are arrays that broadcast with
    ``a``; points outside an interval are ignored.  Scalar inputs give
    floats, arrays give arrays.

    Each interval is split at its interior singular points into panels, so
    that singularities sit only at panel ends, and each panel runs the
    tanh-sinh rule, whose nodes crowd doubly exponentially toward the ends.
    Every level of the rule evaluates all open panels of all intervals in
    one call of ``f``.  A panel's error at level l is E = max(|Q_l -
    Q_(l-1)|, |Q_(l-1) - Q_(l-2)|) + R + T.  Two differences, not one:
    where a kink slows the rule, one difference can fall below the error.
    R is a rounding term, eps sum |w f| plus the change of f under a
    half-spacing move of each node, relative to its distance from the
    declared points beside its panel.  T is the mass the rule leaves out
    between each declared end and its outermost node (t = 4, or the float
    beside the end): _TAIL d |f(node)| at distance d, which bounds it for
    ends like |x - e|^alpha with alpha >= ALPHA_MIN = -0.9, and for
    logarithmic ends.  At an inverse-square-root end e != 0 the mass
    within an ulp of e, ~2 sqrt(ulp(e)), lies beyond every float beside
    it: T reaches ~1e-7 there, and the call raises rather than returning
    a wrong value.  A panel stops once E meets its even share of the
    absolute request ``tol``, or after QUAD_LEVELS levels; ``bound`` is the
    sum of the panels' E.  Each node lies at the float beside its panel end
    or further inside; a panel with no float inside and a declared end is
    not evaluated, and its bound is inf.
    Every interval's value and bound depend on its own inputs only, not on
    the others evaluated with it.

    An interval whose bound exceeds ``tol`` (or whose value is not finite)
    raises :class:`NonConvergenceError` carrying ``estimate`` and
    ``error_bound``; a request that is not > 0 raises ValueError.
    """
    if not tol > 0:
        raise ValueError(f"abs_tol must be positive, not {tol}")
    a, b, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, *args)))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    args = [v.ravel() for v in args]
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("the interval ends must be finite")
    if np.any(b < a):
        raise ValueError("b must not precede a")
    n = a.size
    k = len(singular_points)
    points = np.asarray(singular_points, dtype=float).reshape(k, -1 if k else 1)
    points = np.broadcast_to(points, (k, n))

    # panels: each interval cut at its interior singular points, in order
    cuts = np.where((points > a) & (points < b), points, np.nan)
    ends = np.sort(np.vstack([a, b, cuts]), axis=0)  # NaN sorts last
    owner, j = np.nonzero((ends[1:] > ends[:-1]).T)
    lo, hi = ends[j, owner], ends[j + 1, owner]
    end = np.stack([lo, hi], axis=1)
    declared = (points[:, owner, None] == end).any(axis=0)
    share = 1.0 / np.bincount(owner, minlength=n)[owner]  # of the request
    # the float beside each panel end, inside the panel, and its distance from
    # the end; half that is the rounding of a node's position at a declared end
    inner = np.stack([np.nextafter(lo, hi), np.nextafter(hi, lo)], axis=1)
    ulp = np.abs(inner - end)
    pos = np.where(declared, 0.5 * ulp, 0.0)
    r = 0.5 * (hi - lo)
    p = {"owner": owner, "declared": declared, "share": share, "r": r, "end": end,
         "ulp": ulp, "pos": pos, "far": _EPS + pos[:, ::-1] / r[:, None],
         "S": np.zeros(r.size), "A": np.zeros(r.size), "T": np.zeros(r.size),
         "q": np.zeros(r.size), "diff": np.full(r.size, np.inf)}
    # a panel with no float inside and a declared end is not evaluated (its
    # nodes would fall on that end): it closes with value 0 and bound inf
    blind = (inner[:, 0] == hi) & declared.any(axis=1)
    done = [(owner[blind], np.zeros(blind.sum()), np.full(blind.sum(), np.inf))]
    p = {key: val[~blind] for key, val in p.items()}
    for level, (delta, w, step) in enumerate(_LEVELS):
        if not p["owner"].size:
            break
        # (panel, end, node); a node within an ulp of its end is at the float beside it
        d = p["r"][:, None, None] * delta
        ulp = p["ulp"][:, :, None]
        xs = p["end"][:, :, None] + _INTO_PANEL * np.maximum(d, ulp)
        rows = np.repeat(p["owner"], xs[0].size)
        v = np.asarray(f(xs.ravel(), *(arg[rows] for arg in args)), dtype=float).reshape(xs.shape)
        if level == 0:  # t = 4 is the outermost node
            tail = np.abs(xs[:, :, -1] - p["end"]) * np.abs(v[:, :, -1])
            p["T"] = _TAIL * np.where(p["declared"], tail, 0.0).sum(axis=1)
        wv = w * v
        # eps, and the change of f under the rounding of the node's distance
        # from the declared points on either side (none for a node an ulp
        # inside its end: it is a float, and T covers it)
        rho = p["far"][:, :, None] + np.where(d > ulp, p["pos"][:, :, None] / d, 0.0)
        p["S"] = p["S"] + wv.sum(axis=(1, 2))
        p["A"] = p["A"] + (np.abs(wv) * rho).sum(axis=(1, 2))
        q = p["r"] * step * p["S"]
        if level:
            diff = np.abs(q - p["q"])
            err = np.maximum(diff, p["diff"]) + p["r"] * step * p["A"] + p["T"]
            p["diff"] = diff
            bad = ~np.isfinite(q)
            # out of levels, a panel closes with its bound
            close = bad | (err <= tol * p["share"]) | (level == QUAD_LEVELS - 1)
            if close.any():
                done.append((p["owner"][close], q[close], np.where(bad, np.inf, err)[close]))
                p = {key: val[~close] for key, val in p.items()}
                q = q[~close]
        p["q"] = q

    owners, values, bounds = map(np.concatenate, zip(*done))
    value = np.bincount(owners, values, minlength=n).reshape(shape)
    bound = np.bincount(owners, bounds, minlength=n).reshape(shape)
    failed = ~(bound <= tol) | ~np.isfinite(value)
    if shape == ():
        value, bound = float(value), float(bound)
    if failed.any():
        worst = int(np.argmax(np.where(failed, np.nan_to_num(bound, nan=np.inf), -1.0)))
        raise NonConvergenceError(
            f"quadrature error bound {np.ravel(bound)[worst]:.3g} exceeds the request "
            f"on [{float(a[worst])!r}, {float(b[worst])!r}] ({int(failed.sum())} of {n} intervals)",
            estimate=value,
            error_bound=bound,
        )
    return value, bound
