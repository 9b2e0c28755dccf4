"""Shared numerical kernels: ODE initial-value integration, bracketed root
finding (one bracket, or many solved together), and quadrature that
tolerates logarithmic / inverse-square-root singularities.

All routines are pure functions of their inputs and safe to call from any
number of threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853, quad
from scipy.optimize import brentq

from .errors import BracketError, NonConvergenceError

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal number


@dataclass(frozen=True)
class ToleranceSpec:
    """Accuracy contract for a numerical routine.

    ``abs_tol`` and ``rel_tol`` are error targets; ``max_steps`` bounds the
    work (accepted ODE steps, root iterations, or quadrature subdivisions).
    :func:`quad_singular` accepts a result whose summed error bound is at
    most ``max(abs_tol, rel_tol * |result|)``, QUADPACK's own stopping rule.
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


def quad_singular(
    f: Callable[[float], float],
    a: float,
    b: float,
    singular_points: Sequence[float] = (),
    tol: ToleranceSpec = QUAD_TOL,
) -> tuple[float, float]:
    """Integral of ``f`` over ``[a, b]`` with declared singular points, and
    the achieved error bound: ``(value, bound)``.

    The interval is split at every interior singular point, so each panel has
    singularities only at its endpoints, where the adaptive Gauss-Kronrod rule
    with extrapolation handles logarithmic and x^(-1/2)-type blow-ups.  The
    quadrature nodes are interior, so ``f`` is never evaluated exactly at a
    declared singular point.  ``bound`` is the sum of the panels' bounds.
    If every panel converged but that sum misses the request, the panels
    run once more, each asked for its share of the request in absolute
    terms.
    """
    if b < a:
        raise ValueError("b must not precede a")
    if b == a:
        return 0.0, 0.0
    singular = {float(s) for s in singular_points}
    cuts = sorted({s for s in singular if a < s < b})
    panels = list(zip([a, *cuts], [*cuts, b]))
    limit = max(tol.max_steps // len(panels), 50)

    def run(epsabs: float, epsrel: float):
        # requesting below ~1e-13 per panel just trips QUADPACK's roundoff
        # detector near singular endpoints
        epsabs = max(epsabs, 1e-13)
        total = err_bound = 0.0
        worst = None
        for lo, hi in panels:
            mid = 0.5 * (lo + hi)

            def fenced(x, _mid=mid):
                # deep subdivision can round a quadrature node onto a declared
                # singular point; step one ulp back into the panel
                if x in singular:
                    x = np.nextafter(x, _mid)
                return f(x)

            out = quad(fenced, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit,
                       full_output=1)
            total += out[0]
            err_bound += out[1]
            if len(out) > 3:
                worst = f"[{lo:.6g}, {hi:.6g}]: {out[3]}"
        return total, err_bound, worst

    target = lambda total: max(tol.abs_tol, tol.rel_tol * abs(total))
    total, err_bound, worst = run(tol.abs_tol / len(panels), tol.rel_tol)
    if err_bound > target(total) and worst is None:
        # Panels of opposite sign can each meet rel_tol times their own
        # value while their bounds sum past rel_tol |total|: ask each panel
        # once more for its share of the target, absolutely.
        total, err_bound, worst = run(target(total) / len(panels), 0.0)
    # the contract is on the achieved error bound, not per-panel grumbling
    if err_bound > target(total):
        raise NonConvergenceError(
            f"quadrature error bound {err_bound:.3g} exceeds the request"
            + (f" ({worst})" if worst else ""),
            estimate=total,
            error_bound=err_bound,
        )
    return total, err_bound
