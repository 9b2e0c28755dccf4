"""Shared numerical kernels: ODE initial-value integration, bracketed root
finding (one bracket, or many solved together), the trace polynomials f_m,
and tanh-sinh quadrature (one interval, or many integrated together) that
tolerates logarithmic / inverse-square-root singularities.

All routines are pure functions of their inputs and safe to call from any
number of threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, NonConvergenceError

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal number


@dataclass(frozen=True)
class ToleranceSpec:
    """Accuracy contract for a numerical routine.

    ``abs_tol`` and ``rel_tol`` are error targets; ``max_steps`` bounds the
    work (accepted ODE steps, root iterations, or panel halvings per
    quadrature interval).  :func:`quad_singular` accepts a result whose
    summed error bound is at most ``max(abs_tol, rel_tol * |result|)``.
    """

    abs_tol: float
    rel_tol: float = 0.0
    max_steps: int = 10_000

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be nonnegative")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


# Defaults of the kernels.  No package result depends on IVP_TOL any more.
IVP_TOL = ToleranceSpec(abs_tol=1e-10, rel_tol=1e-10, max_steps=1_000_000)
ROOT_TOL = ToleranceSpec(abs_tol=1e-12, rel_tol=0.0, max_steps=256)
QUAD_TOL = ToleranceSpec(abs_tol=1e-10, rel_tol=1e-10, max_steps=400)


def integrate_ivp(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    t0: float,
    t1: float,
    tol: ToleranceSpec = IVP_TOL,
) -> np.ndarray:
    """Integrate ``y' = rhs(t, y)`` from ``t0`` to ``t1`` and return ``y(t1)``.

    Uses an adaptive Dormand-Prince 8(5,3) pair.  Raises
    :class:`NonConvergenceError` carrying the last accepted ``(t, state)`` if
    the accepted-step budget is exhausted.
    """
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    y = np.asarray(y0, dtype=float).copy()
    if t1 == t0:
        return y

    from scipy.integrate import DOP853  # deferred: no package path integrates an ODE

    solver = DOP853(rhs, t0, y, t1, rtol=max(tol.rel_tol, 100 * _EPS), atol=tol.abs_tol)
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        if steps > tol.max_steps:
            raise NonConvergenceError(
                f"step budget {tol.max_steps} exhausted at t={solver.t:.6g}",
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
    tol: ToleranceSpec = ROOT_TOL,
) -> float:
    """Root of ``f`` inside the bracket ``[a, b]`` with ``f(a) f(b) <= 0``.

    Bracketing Brent iteration; deterministic for identical inputs.  The
    result ``x`` satisfies ``|f(x)| <= abs_tol`` or lies in a sub-bracket of
    width ``<= abs_tol``.

    A bracket whose endpoints share a sign raises :class:`BracketError`.
    """
    from scipy.optimize import brentq  # deferred: no package path calls find_root

    fa, fb = f(a), f(b)
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if fa * fb > 0:
        raise BracketError(
            f"f({a:.6g})={fa:.6g} and f({b:.6g})={fb:.6g} have the same sign"
        )
    try:
        return float(
            brentq(
                f,
                a,
                b,
                xtol=tol.abs_tol,
                rtol=max(tol.rel_tol, 4 * _EPS),
                maxiter=tol.max_steps,
            )
        )
    except RuntimeError as exc:  # scipy signals maxiter this way
        raise NonConvergenceError(str(exc)) from exc


def find_roots(
    f: Callable[..., np.ndarray],
    a,
    b,
    tol: ToleranceSpec = ROOT_TOL,
    args: Sequence = (),
) -> np.ndarray:
    """Roots of ``f`` in every bracket ``[a[i], b[i]]``, all solved together.

    The vector form of :func:`find_root`.  ``f(x, *args)`` is elementwise: it
    maps an array of abscissae, with the matching elements of ``args``
    (arrays broadcast with ``a`` and ``b``), to an array of values.  Every
    bracket runs Chandrupatla's method (*Adv. Eng. Softw.* 28, 1997) in the
    same calls of ``f``, so a batched ``f`` pays one call per iteration for
    all of them, and each call sees only the brackets still open.  The
    iterates, the stopping rule and the outcomes are SciPy's
    (``scipy.optimize.elementwise.find_root``): a bracket stops when
    ``|f| <= tiny`` at its better end ``x_min`` or when its width is below
    ``|x_min| xrtol + xatol``, with ``xatol = abs_tol``,
    ``xrtol = max(rel_tol, 4 eps)``; ``max_steps`` bounds the iterations.

    A bracket whose ends share a sign gives NaN, and the caller decides
    what that means.  A bracket still open after ``max_steps`` iterations,
    or one that comes to have an infinite end or NaN at both ends, raises
    :class:`NonConvergenceError`.
    """
    a, b, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, *args)))
    if a.size == 0:
        return np.empty(a.shape)
    xatol, xrtol = tol.abs_tol, max(tol.rel_tol, 4 * _EPS)
    f1, f2 = (np.asarray(f(x, *args), dtype=float).ravel() for x in (a, b))
    x1, x2 = a.ravel(), b.ravel()
    args = [v.ravel() for v in args]
    # |f| <= tiny stops a bracket, but not one with NaN at an end or +-inf
    # at both (SciPy adds 0 min(|f(a)|, |f(b)|) to tiny)
    ftol = _TINY + 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    out = np.empty(a.size)
    # 0 converged, -1 ends of one sign, -2 step budget, -3 non-finite ends
    status = np.zeros(a.size, dtype=int)
    active = np.arange(a.size)
    x3, f3 = x2, f2  # no third point yet: the first step bisects
    nit = 0
    while True:
        better = np.abs(f1) < np.abs(f2)
        xmin = np.where(better, x1, x2)
        done = np.abs(np.where(better, f1, f2)) <= ftol
        one_sign = ~done & (np.sign(f1) == np.sign(f2))
        invalid = ~(done | one_sign) & (
            ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2)))
        xmin[one_sign | invalid] = np.nan
        dx = np.abs(x2 - x1)
        xtol = np.abs(xmin) * xrtol + xatol
        done |= dx < xtol
        stop = done | one_sign | invalid
        if stop.any():
            out[active[stop]] = xmin[stop]
            status[active[stop]] = np.where(one_sign, -1, np.where(invalid, -3, 0))[stop]
            go = ~stop
            active, x1, f1, x2, f2, x3, f3, xmin, dx, xtol, ftol = (
                v[go] for v in (active, x1, f1, x2, f2, x3, f3, xmin, dx, xtol, ftol))
            args = [v[go] for v in args]
        if active.size == 0:
            break
        if nit == tol.max_steps:
            out[active], status[active] = xmin, -2
            break
        # inverse quadratic interpolation through the last three points
        # where it is safe, else bisection; kept off the bracket's ends
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = ((1 - np.sqrt(1 - xi)) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        tl = 0.5 * xtol / dx
        t = np.clip(t, tl, 1 - tl)
        x = x1 + t * (x2 - x1)
        fx = np.asarray(f(x, *args), dtype=float)
        keep = np.sign(fx) == np.sign(f1)  # x replaces x1, else x2 becomes x1
        x3, f3 = np.where(keep, x1, x2), np.where(keep, f1, f2)
        x2, f2 = np.where(keep, x2, x1), np.where(keep, f2, f1)
        x1, f1 = x, fx
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
# still open after QUAD_LEVELS levels is halved.
QUAD_LEVELS = 5
# Near a declared singular end e the integrand is evaluated no closer than
# s = min(2^20 ulp(e), r/16 rounded down to a power of two).  Nodes nearer e
# round onto e or beside it, and the mass within an ulp of e can lie beyond
# every float: ~5e-9 for 1/sqrt(2 - x) at 2.  Nearer nodes take their value
# from the model B + C d^alpha through f at distances s, 2s and 4s from e
# (floats exactly, where s is a multiple of ulp(e)); it is exact for power
# laws and, as alpha -> 0, for A log d + B.  For other end behaviour the
# model through 2s, 4s and 8s differs from it, and _MISFIT times the
# difference over the modelled nodes joins the error: for log^k d (k = 2,
# 3), d^alpha log d (alpha = -1/2, -0.3, 1/2), log^2 d / sqrt d, 1 / log d
# and log log d at an end of 2 the model's error over [0, s] was at most
# 2.4 times the difference.  A panel narrower than 16 ulp beside a
# declared end has no room for the fit: its bound is infinite.
_MODEL_ULPS = 2.0**20
_MISFIT = 4.0
_INTO_PANEL = np.array([[1.0], [-1.0]])  # from its left end, from its right end


def _tanh_sinh_level(level: int):
    """(delta, log2 delta, w, step) of the nodes ``level`` adds at each end
    of a panel."""
    step = 0.25 / 2**level
    if level == 0:
        t = np.arange(0.0, 4.0 + step / 2, step)
    else:
        t = np.arange(step, 4.0, 2 * step)
    u = 0.5 * np.pi * np.sinh(t)
    w = 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    w[t == 0.0] *= 0.5  # the centre, reached from both ends
    delta = 1.0 / (np.exp(u) * np.cosh(u))
    return delta, np.log2(delta), w, step


_LEVELS = [_tanh_sinh_level(level) for level in range(QUAD_LEVELS)]
_DELTA_MIN = float(_LEVELS[0][0].min())


def _end_model(fit: np.ndarray):
    """(f1, f2 - f1, log r), on the last axis, of the model through f at
    distances s, 2s, 4s (the columns of ``fit``), r = (f3 - f2) / (f2 - f1)
    = 2^alpha.  Where r is not in (1/2, inf), alpha > -1, the model is the
    constant f1."""
    f1, f2, f3 = fit.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (f3 - f2) / (f2 - f1)
        ok = (ratio > 0.5) & np.isfinite(ratio)
        return np.stack([f1, np.where(ok, f2 - f1, 0.0),
                         np.where(ok, np.log(np.where(ok, ratio, 1.0)), 0.0)], axis=-1)


def _model_values(model, u):
    """The model (f1, df, log r) at distances d = 2^u s: f1 + df (r^u - 1)
    / (r - 1), and f1 + df u where r = 1."""
    f1, df, log_r = model.T
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.where(log_r == 0.0, u, np.expm1(u * log_r) / np.expm1(log_r))
    return f1 + df * phi


def quad_singular(
    f: Callable[..., np.ndarray],
    a,
    b,
    singular_points: Sequence = (),
    tol: ToleranceSpec = QUAD_TOL,
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
    tanh-sinh rule, whose nodes crowd doubly exponentially toward the ends:
    logarithmic and x^(-1/2)-type end singularities keep full accuracy.
    Every level of the rule evaluates all open panels of all intervals in
    one call of ``f``.  A panel's error at level l is E = max(|Q_l -
    Q_(l-1)|, |Q_(l-1) - Q_(l-2)|) + R + M.  Two differences, not one:
    where a kink slows the rule, one difference can fall below the error.
    R is a rounding term, eps sum |w f| plus the change of f under a
    half-spacing move of each node, relative to its distance from the
    declared points beside its panel.  M is the end model's misfit (see
    ``_MODEL_ULPS``): a declared end is meant to behave like B + C d^alpha
    (alpha > -1) or A log d + B at distance d, up to terms smaller by a
    power of d, and M covers milder departures such as log^2 d.  A panel
    stops once E meets its share of its interval's request ``max(abs_tol,
    rel_tol |I|)`` (the request over the interval's panels, halved at each
    halving).  A panel still open after QUAD_LEVELS levels is halved, and
    ``max_steps`` bounds the halvings per interval.  ``bound`` is the sum of
    the panels' E.  ``f`` is never evaluated at a panel end.  Every
    interval's value and bound depend on its own inputs only, not on the
    others evaluated with it.

    An interval whose bound misses the request (its halvings spent, or a
    value not finite) raises :class:`NonConvergenceError` carrying
    ``estimate`` and ``error_bound``.
    """
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
    declared = np.stack([(points[:, owner] == lo).any(axis=0),
                         (points[:, owner] == hi).any(axis=0)], axis=1)
    share = 1.0 / np.bincount(owner, minlength=n)[owner]  # of the request
    # the rounding of a node's position near a declared point: half the
    # spacing of the floats beside the point, inside the panel, and the
    # distance from each panel end to the point
    pos = np.where(declared, 0.5 * np.abs(np.stack(
        [np.nextafter(lo, hi) - lo, np.nextafter(hi, lo) - hi], axis=1)), 0.0)
    gap = np.zeros(pos.shape)

    done_owner, done_value, done_bound = [], [], []
    closed_sum = np.zeros(n)  # values of the closed panels, per interval
    halvings = np.zeros(n, dtype=int)
    while owner.size:
        # one generation: every open panel runs levels 0.. in step
        r = 0.5 * (hi - lo)
        end = np.stack([lo, hi], axis=1)
        ulp = np.spacing(np.abs(end))
        s = np.minimum(_MODEL_ULPS * ulp, np.exp2(np.floor(np.log2(r / 16.0)))[:, None])
        cramped = declared & (s < ulp)
        model = declared & ~cramped & (_DELTA_MIN * r[:, None] < s)
        fit_row, fit_side = np.nonzero(model)
        fit_d = s[fit_row, fit_side, None] * [1.0, 2.0, 4.0, 8.0]
        fit_x = end[fit_row, fit_side, None] + _INTO_PANEL[fit_side] * fit_d
        # a node nearer a modelled end than s is not evaluated but takes the
        # model's value, and its rounding term is the fit's: none where the
        # fit points are floats exactly.  A node within an ulp of another end
        # is evaluated an ulp inside it, so that f never sees a panel end.
        exact = np.zeros(model.shape, dtype=bool)
        exact[fit_row, fit_side] = (np.abs(fit_x - end[fit_row, fit_side, None]) == fit_d).all(axis=1)
        p = {"owner": owner, "declared": declared, "share": share, "r": r, "end": end,
             "ulp": ulp, "model": model, "cramped": cramped.any(axis=1),
             "reach": np.where(model, s, 0.0), "log2_rs": np.log2(r)[:, None] - np.log2(s),
             "pos": pos, "gap": gap, "fit_rho": np.where(exact, 0.0, pos) / (gap + s),
             "far": _EPS + pos[:, ::-1] / (r[:, None] + gap[:, ::-1]),
             "fits": np.zeros((r.size, 2, 2, 3)), "S": np.zeros(r.size), "A": np.zeros(r.size),
             "M": np.zeros(r.size), "q": np.zeros(r.size), "diff": np.full(r.size, np.inf)}
        for level, (delta, log2_delta, w, step) in enumerate(_LEVELS):
            # (panel, end, node)
            d = p["r"][:, None, None] * delta
            live = d > p["reach"][:, :, None]
            xs = (p["end"][:, :, None]
                  + _INTO_PANEL * np.maximum(d, p["ulp"][:, :, None]))[live]
            n_live = xs.size
            rows = np.nonzero(live)[0] if args else None
            if level == 0:
                xs = np.concatenate([xs, fit_x.ravel()])
                rows = np.concatenate([rows, np.repeat(fit_row, 4)]) if args else None
            fx = np.asarray(f(xs, *(arg[p["owner"][rows]] for arg in args)), dtype=float)
            if level == 0 and fit_row.size:
                fit = fx[n_live:].reshape(-1, 4)
                p["fits"][fit_row, fit_side] = np.stack(
                    [_end_model(fit[:, :3]), _end_model(fit[:, 1:])], axis=1)
            v = np.zeros(live.shape)
            v[live] = fx[:n_live]
            near = ~live  # only beside a modelled end
            if near.any():
                # the model's values, and their distance from the model at 2s
                row, side, node = np.nonzero(near)
                u = p["log2_rs"][row, side] + log2_delta[node]
                fits = p["fits"][row, side]
                v[near] = near_v = _model_values(fits[:, 0], u)
                misfit = np.abs(w[node] * (near_v - _model_values(fits[:, 1], u - 1.0)))
                p["M"] = p["M"] + np.bincount(row, misfit, minlength=p["r"].size)
            wv = w * v
            # eps, and the change of f under the rounding of the node's
            # distance from the declared points on either side
            rho = p["far"][:, :, None] + np.where(
                live, p["pos"][:, :, None] / (p["gap"][:, :, None] + d), p["fit_rho"][:, :, None])
            p["S"] = p["S"] + wv.sum(axis=(1, 2))
            p["A"] = p["A"] + (np.abs(wv) * rho).sum(axis=(1, 2))
            q = p["r"] * step * p["S"]
            if level:
                diff = np.abs(q - p["q"])
                err = np.maximum(diff, p["diff"]) + p["r"] * step * (p["A"] + _MISFIT * p["M"])
                p["diff"] = diff
                request = np.full(q.size, tol.abs_tol)
                if tol.rel_tol:
                    estimate = closed_sum + np.bincount(p["owner"], q, minlength=n)
                    request = np.maximum(request, tol.rel_tol * np.abs(estimate[p["owner"]]))
                bad = ~np.isfinite(q) | p["cramped"]
                close = bad | (err <= request * p["share"])
                if level == QUAD_LEVELS - 1:
                    # out of levels: halve, unless that overruns the budget
                    need = np.bincount(p["owner"][~close], minlength=n)
                    over = halvings + need > tol.max_steps
                    halvings += np.where(over, 0, need)
                    close |= over[p["owner"]]
                if close.any():
                    done_owner.append(p["owner"][close])
                    done_value.append(q[close])
                    done_bound.append(np.where(bad, np.inf, err)[close])
                    closed_sum += np.bincount(p["owner"][close], q[close], minlength=n)
                    keep = ~close
                    p = {key: val[keep] for key, val in p.items()}
                    q = q[keep]
                    if not keep.any():
                        break
            p["q"] = q
        # halve what is left; the outer ends keep their declarations
        left, right = p["end"].T
        mid = 0.5 * (left + right)
        lo = np.stack([left, mid], axis=1).ravel()
        hi = np.stack([mid, right], axis=1).ravel()
        owner = np.repeat(p["owner"], 2)
        share = np.repeat(0.5 * p["share"], 2)
        declared = np.zeros((lo.size, 2), dtype=bool)
        declared[0::2, 0] = p["declared"][:, 0]
        declared[1::2, 1] = p["declared"][:, 1]
        pos = np.repeat(p["pos"], 2, axis=0)
        gap = np.repeat(p["gap"], 2, axis=0)
        gap[0::2, 1] += right - mid
        gap[1::2, 0] += mid - left

    owners = np.concatenate([np.zeros(0, dtype=int), *done_owner])
    value = np.bincount(owners, np.concatenate([np.zeros(0), *done_value]), minlength=n)
    bound = np.bincount(owners, np.concatenate([np.zeros(0), *done_bound]), minlength=n)
    failed = ~(bound <= np.maximum(tol.abs_tol, tol.rel_tol * np.abs(value)))
    if shape == ():
        value, bound = float(value[0]), float(bound[0])
    else:
        value, bound = value.reshape(shape), bound.reshape(shape)
    if failed.any():
        worst = int(np.argmax(np.where(failed, np.nan_to_num(bound, nan=np.inf), -1.0)))
        raise NonConvergenceError(
            f"quadrature error bound {np.ravel(bound)[worst]:.3g} exceeds the request "
            f"on [{a[worst]:.6g}, {b[worst]:.6g}] ({int(failed.sum())} of {n} intervals)",
            estimate=value,
            error_bound=bound,
        )
    return value, bound
