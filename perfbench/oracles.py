"""Independent oracles for every job kind.

Each check parses the job's output file and returns an :class:`Outcome` with
the achieved error, the tolerance it was held to and, on failure, a reason
code.  No oracle calls into ``hillmap``.

Tolerances are the accuracy the program documents (``numerics.py``: band
edges and singular integrals to ~1e-9, unit-cell discriminants to ~1e-8),
the error bounds a job reports about itself, or exact equality where the
program computes in exact arithmetic.  They are never fitted to pass rates.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq, minimize_scalar
from scipy.special import airy, mathieu_a, mathieu_b

EDGE_TOL = 1e-9  # band edges and dispersion values
INTEGRAL_TOL = 1e-9  # singular integrals: I(a), the quadrature exponent
DISC_TOL = 1e-8  # discriminant of a unit cell
ORBIT_SIGMAS = 4.0  # an orbit average must land within 4 reported stderrs
W1_FLOOR_FACTOR = 3.0  # the factor the program's own region detector uses
EPS = float(np.finfo(float).eps)

# The parent commit's failures, each confined to the inputs and error sizes
# it was seen at (README.md, "Baseline failures").  Every failure counts in
# ``failed``; one outside this scope also makes ``correct`` false.
#
# A band edge may miss by a few 1e-9 anywhere.  Beside a reference gap of
# width w it may miss by more, but never by more than w: by up to w when the
# gap is narrow (merged into a touch), and by up to KNOWN_ILL_CONDITIONED / w
# when it is wider (an error in the discriminant moves an edge by that error
# over |Delta'|, and |Delta'| at an edge shrinks with w).
KNOWN_EDGE_SLACK = 3e-8
KNOWN_MERGED_GAP = 2e-2
KNOWN_ILL_CONDITIONED = 1e-7
# The quadrature exponent exits 2 for every m >= 17, with this message.
KNOWN_QUADRATURE_EXIT2_M = 17
QUAD_EXIT2_MESSAGE = "quadrature error bound"
# I(a) exits 2 where |a| lies in one of these ranges: a scan of the parent
# at a step of 2e-6 on [2, 2.45], [2.8, 2.9] and [3.7, 4.05] and of 2e-5 on
# the rest of [2, 6], each range widened by one step.
KNOWN_SWEEP_EXIT2 = ((2.20313, 2.20361), (2.20770, 2.20831), (2.28929, 2.28945),
                     (2.39606, 2.42015), (2.85463, 2.85944), (2.86985, 2.87554),
                     (3.76966, 3.99128))
# An ensemble's last W1 may land up to 6 x its noise floor 1/sqrt(n): over
# 4164 seeded 1e5-sample ensembles of the parent (m 2-3) the ratio had median
# 1.2-1.3, passed 4.1 in 15 of 3000, and peaked at 5.0.
KNOWN_W1_FACTOR = 6.0
# A float orbit can fall onto the repelling fixed point 2 or -2 and stay
# there, where log |f'| = 2 log m: the average then lands between log m and
# 2 log m, with a standard error that does not show it (check_orbit).


@dataclass
class Outcome:
    ok: bool
    err: float = 0.0
    tol: float = 0.0
    reason: str = ""
    detail: str = ""
    edges_missed: int = 0
    known: bool = False  # a failure within the parent's known defects


def fail(reason: str, detail: str = "", err: float = math.inf, tol: float = 0.0,
         **kw) -> Outcome:
    return Outcome(False, err, tol, reason, detail, **kw)


def judge(err: float, tol: float, reason: str, detail: str = "", **kw) -> Outcome:
    if err <= tol:
        return Outcome(True, err, tol, **kw)
    return Outcome(False, err, tol, reason, detail, **kw)


def _csv_rows(path: Path) -> list:
    """Data rows of a CLI CSV file: comment lines and the header dropped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


# ---------------------------------------------------------------- spectra

class CosineCell:
    """-u'' + A cos(2 pi x) u = lam u on a unit cell.  With x = z / pi this is
    Mathieu's equation with a = lam / pi^2 and q = A / (2 pi^2)."""

    def __init__(self, amplitude: float):
        self.A = amplitude
        self.q = amplitude / (2.0 * math.pi**2)

    def edges(self, lam_cap: float) -> list[float]:
        orders = int(math.sqrt(max(lam_cap, 0.0)) / math.pi) + 3
        vals = [math.pi**2 * mathieu_a(r, self.q) for r in range(orders + 1)]
        vals += [math.pi**2 * mathieu_b(r, self.q) for r in range(1, orders + 1)]
        return sorted(vals)

    def bloch(self, k: float, count: int, size: int = 40) -> np.ndarray:
        """Lowest ``count`` eigenvalues of the Fourier-Hill matrix at
        quasi-momentum k: tridiagonal, diagonal (k + 2 pi n)^2, off-diagonal A/2."""
        n = np.arange(-size, size + 1)
        diag = (k + 2.0 * math.pi * n) ** 2
        off = np.full(2 * size, self.A / 2.0)
        return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))


class FreeCell:
    """V = 0 with period l: Delta = 2 cos(l sqrt(lam)), every gap closed."""

    def __init__(self, l: float):
        self.l = l

    def edges(self, lam_cap: float) -> list[float]:
        """0, then every (j pi / l)^2 twice (the bands touch there)."""
        step = math.pi / self.l
        n = int(math.sqrt(max(lam_cap, 0.0)) / step) + 2
        return [0.0] + [(j * step) ** 2 for j in range(1, n) for _ in (0, 1)] + [(n * step) ** 2]

    def band_value(self, band: int, k: float) -> float:
        step = math.pi / self.l
        root = (band - 1) * step + k if band % 2 == 1 else band * step - k
        return root * root


class PiecewiseCell:
    """Piecewise-linear V: on each piece -u'' + (v0 + s (x - x0)) u = lam u is
    Airy's equation in z = s^(1/3) (x - x0 + (v0 - lam) / s), so the transfer
    matrix of a piece is exact in terms of Ai, Bi (Wronskian 1/pi)."""

    def __init__(self, breakpoints, values):
        xs = [float(b) for b in breakpoints] + [float(breakpoints[0]) + 1.0]
        vs = [float(v) for v in values] + [float(values[0])]
        self.pieces = list(zip(xs, xs[1:], vs, vs[1:]))
        self.floor = min(vs)

    def disc(self, lams) -> np.ndarray:
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        m11, m12 = np.ones_like(lams), np.zeros_like(lams)
        m21, m22 = np.zeros_like(lams), np.ones_like(lams)
        for x0, x1, v0, v1 in self.pieces:
            s = (v1 - v0) / (x1 - x0)
            c = np.cbrt(s)
            shift = (v0 - lams) / s
            a0, ap0, b0, bp0 = airy(c * shift)
            a1, ap1, b1, bp1 = airy(c * (x1 - x0 + shift))
            k = math.pi / c
            t11 = k * c * (a1 * bp0 - b1 * ap0)
            t12 = k * (b1 * a0 - a1 * b0)
            t21 = k * c * c * (ap1 * bp0 - bp1 * ap0)
            t22 = k * c * (bp1 * a0 - ap1 * b0)
            m11, m12, m21, m22 = (t11 * m11 + t12 * m21, t11 * m12 + t12 * m22,
                                  t21 * m11 + t22 * m21, t21 * m12 + t22 * m22)
        return m11 + m22

    def _d(self, lam: float) -> float:
        return float(self.disc(lam)[0])

    def edges(self, lam_cap: float, per_unit: int = 500) -> list[float]:
        """Every crossing of Delta = +-2 below lam_cap.  The grid is uniform in
        sqrt(lam - start); each grid extremum is refined, so gaps narrower
        than the grid are found as well."""
        start = self.floor - 1.0
        s_max = math.sqrt(lam_cap - start)
        s = np.linspace(0.0, s_max, int(per_unit * s_max))
        lams = start + s * s
        d = self.disc(lams)
        edges = []
        for level in (2.0, -2.0):
            g = d - level
            for i in np.nonzero(g[:-1] * g[1:] < 0)[0]:
                edges.append(brentq(lambda x: self._d(x) - level, lams[i], lams[i + 1],
                                     xtol=1e-14, rtol=4 * EPS))
        # grid extrema beyond +-1.5 whose neighbours all stay inside +-2
        turn = (d[1:-1] - d[:-2]) * (d[2:] - d[1:-1]) < 0
        for i in np.nonzero(turn & (np.abs(d[1:-1]) >= 1.5))[0] + 1:
            sign = 1.0 if d[i] > d[i - 1] else -1.0  # maximum or minimum
            level = 2.0 * sign
            if np.any(sign * (d[i - 1:i + 2] - level) >= 0):
                continue  # the grid itself sees this gap
            res = minimize_scalar(lambda x: -sign * self._d(x),
                                  bounds=(lams[i - 1], lams[i + 1]),
                                  method="bounded", options={"xatol": 1e-13})
            if sign * (-res.fun * sign - level) > 0:
                lo, hi, mid = lams[i - 1], lams[i + 1], float(res.x)
                f = lambda x: self._d(x) - level
                edges += [brentq(f, lo, mid, xtol=1e-14), brentq(f, mid, hi, xtol=1e-14)]
        return sorted(edges)

    def band_value(self, lo: float, hi: float, k: float) -> float:
        target = 2.0 * math.cos(k)
        return brentq(lambda x: self._d(x) - target, lo, hi, xtol=1e-14, rtol=4 * EPS)


def _cell(meta: dict):
    if meta["potential"] == "cosine":
        return CosineCell(meta["amplitude"])
    if meta["potential"] == "free":
        return FreeCell(meta["l"])
    return PiecewiseCell(meta["breakpoints"], meta["values"])


def _reference_bands(cell, lam_max: float) -> list[tuple[float, float]]:
    """Full (unclipped) bands from the bottom of the spectrum to at least
    one band past lam_max."""
    cap = (math.sqrt(max(lam_max, 0.0)) + 2.0 * math.pi) ** 2
    e = cell.edges(cap)
    return list(zip(e[0::2], e[1::2]))


def _gaps(bands) -> list[tuple[float, float]]:
    """Width of the gap below and above each band (inf past the ends)."""
    widths = [math.inf] + [b[0] - a[1] for a, b in zip(bands, bands[1:])] + [math.inf]
    return list(zip(widths, widths[1:]))


def _known_miss(err: float, gap: float) -> bool:
    """A miss of a band edge or curve the parent showed, beside a gap of
    width ``gap`` (see KNOWN_EDGE_SLACK)."""
    if err <= KNOWN_EDGE_SLACK:
        return True
    return err <= gap and (gap <= KNOWN_MERGED_GAP or err * gap <= KNOWN_ILL_CONDITIONED)


def dispersion_reference(cell, bands, band: int, k: float, l: float) -> float:
    """lambda_band(k) for a reference cell; ``bands`` as _reference_bands."""
    if isinstance(cell, CosineCell):
        return float(cell.bloch(k, band)[band - 1])
    if isinstance(cell, FreeCell):
        return cell.band_value(band, k)
    # odd bands run from Delta = 2 at k = 0 to -2 at k = pi
    lo, hi = bands[band - 1]
    if k == 0.0:
        return lo if band % 2 == 1 else hi
    if abs(k - math.pi / l) < 1e-12:
        return hi if band % 2 == 1 else lo
    return cell.band_value(lo, hi, k)


def check_bands_json(job, path: Path) -> Outcome:
    doc = json.loads(path.read_text())
    got = [tuple(b) for b in doc["bands"]]
    lam_max = job.meta["lambda_max"]
    full = _reference_bands(_cell(job.meta), lam_max)
    n = sum(1 for a, _ in full if a <= lam_max)
    ref = [(a, min(b, lam_max)) for a, b in full[:n]]
    ref_edges = [x for b in ref for x in b]
    got_edges = [x for b in got for x in b]
    missed = sum(1 for x in ref_edges if not any(abs(x - y) <= EDGE_TOL for y in got_edges))
    if len(got) != len(ref):
        return fail("band_count", f"{len(got)} bands, reference {len(ref)}",
                    tol=EDGE_TOL, edges_missed=missed)
    errs = [abs(x - y) for x, y in zip(got_edges, ref_edges)]
    gaps = [g for pair in _gaps(full)[:n] for g in pair]
    out = judge(max(errs), EDGE_TOL, "edge_error", f"worst edge error {max(errs):.3g}",
                edges_missed=missed)
    out.known = all(_known_miss(e, g) for e, g in zip(errs, gaps))
    return out


def check_bands_csv(job, path: Path) -> Outcome:
    rows = _csv_rows(path)
    meta = job.meta
    cell = _cell(meta)
    full = _reference_bands(cell, meta["lambda_max"])
    n_bands = max(int(r[0]) for r in rows)
    n_ref = sum(1 for a, _ in full if a <= meta["lambda_max"])
    if n_bands != n_ref:
        return fail("band_count", f"{n_bands} bands, reference {n_ref}", tol=EDGE_TOL)
    if len(rows) != n_bands * meta["k_points"]:
        return fail("row_count", f"{len(rows)} rows", tol=EDGE_TOL)
    gaps = [min(pair) for pair in _gaps(full)]  # the narrower gap beside each band
    err, known = 0.0, True
    for band_s, k_s, lam_s in rows:
        band, k = int(band_s), float(k_s)
        e = abs(float(lam_s) - dispersion_reference(cell, full, band, k, meta["l"]))
        err = max(err, e)
        known = known and _known_miss(e, gaps[band - 1])
    out = judge(err, EDGE_TOL, "dispersion_error", f"worst dispersion error {err:.3g}")
    out.known = known
    return out


def exact_logistic(x0: float, n: int) -> list[Fraction]:
    """Orbit of 4x(1-x) in exact rational arithmetic from the double x0."""
    x = Fraction(x0)
    out = [x]
    for _ in range(n):
        x = 4 * x * (1 - x)
        out.append(x)
    return out


def mathieu_lambda0_reference() -> float:
    """lambda0 solves Delta(-lambda0) = -2 for V = -cos(2 pi x): the lowest
    antiperiodic eigenvalue, pi^2 b_1(q) at q = 1 / (2 pi^2)."""
    return -math.pi**2 * mathieu_b(1, 1.0 / (2.0 * math.pi**2))


def check_mathieu(job, path: Path, stdout: str) -> Outcome:
    x0, n = job.meta["x0"], job.meta["n"]
    rows = _csv_rows(path)
    if len(rows) != n + 1:
        return fail("row_count", f"{len(rows)} rows for n={n}")
    exact = exact_logistic(x0, n)
    theta = math.asin(math.sqrt(x0))
    err, tol = 0.0, DISC_TOL / 4.0
    for row in rows:
        i, formula = int(row[0]), float(row[1])
        # an error DISC_TOL in the unit-cell trace moves x0 by DISC_TOL / 4;
        # the map carries that to step i with gain |dx_i / dx_0|
        gain = abs(2**i * math.sin(2 ** (i + 1) * theta) / math.sin(2 * theta))
        row_tol = DISC_TOL / 4.0 * max(1.0, gain)
        e = abs(formula - float(exact[i]))
        if e / row_tol > err / tol:
            err, tol = e, row_tol
    lam0 = [ln for ln in stdout.splitlines() if ln.startswith("lambda0 =")]
    if not lam0:
        return fail("no_lambda0", "lambda0 line missing from stdout")
    lam0_err = abs(float(lam0[0].split("=")[1]) - mathieu_lambda0_reference())
    if lam0_err > EDGE_TOL + 5e-9:  # printed with 8 decimals
        return fail("lambda0_error", f"lambda0 off by {lam0_err:.3g}", err=lam0_err,
                    tol=EDGE_TOL + 5e-9)
    return judge(err, tol, "formula_error", f"worst error {err:.3g} > {tol:.3g}")


# ------------------------------------------------------------- statistics

def initial_cdf(dist: str):
    """CDF on [-2, 2] of the ensemble's initial law: the exponential shifted
    to -2 and truncated to the domain (shape 1, scale 1), or the uniform."""
    if dist == "uniform":
        return lambda x: (x + 2.0) / 4.0
    norm = -math.expm1(-4.0)
    return lambda x: -math.expm1(-(x + 2.0)) / norm


def arcsine_cdf(x: float) -> float:
    return 0.5 + math.asin(max(-1.0, min(1.0, x / 2.0))) / math.pi


def w1_initial(dist: str) -> float:
    f0 = initial_cdf(dist)
    val, _ = quad(lambda x: abs(f0(x) - arcsine_cdf(x)), -2.0, 2.0, limit=200,
                  epsabs=1e-12, epsrel=1e-12)
    return val


def check_ensemble(job, path: Path) -> Outcome:
    report = json.loads(path.read_text())["report"]
    d = report["distances"]
    floor = report["noise_floor"]
    tol = W1_FLOOR_FACTOR * floor
    if len(d) != job.meta["iters"] + 1:
        return fail("row_count", f"{len(d)} distances")
    err0 = abs(d[0] - w1_initial(job.meta["dist"]))
    if err0 > tol:
        return fail("w1_step0", f"step-0 W1 {d[0]:.4g} off the quadrature by {err0:.3g}",
                    err=err0, tol=tol)
    out = judge(d[-1], tol, "w1_last_above_floor",
                f"last W1 {d[-1]:.3g} > {W1_FLOOR_FACTOR:g} x floor {floor:.3g}")
    out.known = d[-1] <= KNOWN_W1_FACTOR * floor
    return out


def ensemble_fingerprint(path: Path) -> str:
    """The report with the thread count removed: it must not depend on it."""
    report = json.loads(path.read_text())["report"]
    report.get("config", {}).pop("threads", None)
    return json.dumps(report, sort_keys=True)


def l1_exact(m: int, step: int) -> float:
    """||L^step p0 - 1||_1 for p0 = (pi/2) sin(pi x) and the tent map of order m.

    Writing p0 = 1 - 2 sum_k cos(2 pi k x) / (4k^2 - 1), the transfer operator
    keeps only frequencies divisible by M = m^step and divides them by M; the
    surviving series sums to K cos(w (y - c)) with w = pi / M and, for even M,
    c = 1, K = w / sin w, for odd M, c = 1/2, K = (w/2) / sin(w/2).  That
    density exceeds 1 exactly where |y - c| < d = acos(1/K) / w, and since it
    has mass 1, the L1 distance is twice the excess over that region."""
    M = m**step
    w = math.pi / M
    if M % 2 == 0:
        K, halves = w / math.sin(w), 1
    else:
        K, halves = (w / 2) / math.sin(w / 2), 2
    d = math.acos(1.0 / K) / w
    return 2.0 * halves * ((K / w) * math.sin(w * d) - d)


def projection_error(resolution: int) -> float:
    """||P_R p0 - p0||_1 for p0 = (pi/2) sin(pi x) and the R-cell average P_R.

    On each cell p0 is monotone (R is even, so no cell straddles 1/2); it meets
    its cell mean c once, at x*, and the integral of |p0 - c| splits there."""
    h = 1.0 / resolution
    a = np.arange(resolution) * h
    b = a + h

    def mass(u, v):  # integral of p0 over [u, v], free of cancellation
        return np.sin(0.5 * np.pi * (u + v)) * np.sin(0.5 * np.pi * (v - u))

    mean = mass(a, b) / h
    base = np.arcsin(np.clip(2.0 * mean / np.pi, -1.0, 1.0)) / np.pi
    xs = np.clip(np.where(b <= 0.5, base, 1.0 - base), a, b)
    left = mean * (xs - a) - mass(a, xs)
    right = mass(xs, b) - mean * (b - xs)
    return float(np.sum(np.abs(left) + np.abs(right)))


def check_density(job, path: Path) -> Outcome:
    records = json.loads(path.read_text())["report"]
    m, res = job.meta["m"], job.meta["resolution"]
    if len(records) != job.meta["steps"] + 1:
        return fail("row_count", f"{len(records)} records")
    mass_tol = res * EPS  # rounding bound of a sum of res cell masses
    eps_r = projection_error(res)  # the transfer operator is an L1 contraction
    tol = eps_r + mass_tol
    err = 0.0
    for rec in records:
        if abs(rec["mass"] - 1.0) > mass_tol:
            return fail("mass", f"step {rec['step']} mass {rec['mass']!r}",
                        err=abs(rec["mass"] - 1.0), tol=mass_tol)
        err = max(err, abs(rec["l1_to_invariant"] - l1_exact(m, rec["step"])))
    return judge(err, tol, "l1_error", f"worst L1 gap {err:.3g} > {tol:.3g}")


def mixing_exact(m: int, n: int, A, B) -> Fraction:
    """Leb(g^-n(A) & B) - |A||B| summed branch by branch over B: g^n is the
    tent map of slope M = m^n; a branch lying inside B contributes |A|/M, and
    the (at most two) branches B cuts are mapped onto [0, 1] by hand."""
    M = m**n
    a1, a2 = A
    b1, b2 = B
    total = Fraction(0)
    k_lo, k_hi = math.floor(b1 * M), math.ceil(b2 * M)
    full_lo, full_hi = math.ceil(b1 * M), math.floor(b2 * M)
    total += max(full_hi - full_lo, 0) * (a2 - a1) / M
    for k in {k_lo, k_hi - 1}:
        lo, hi = max(b1, Fraction(k, M)), min(b2, Fraction(k + 1, M))
        if hi <= lo or (lo == Fraction(k, M) and hi == Fraction(k + 1, M)):
            continue  # empty, or a full branch already counted
        if k % 2 == 0:
            y_lo, y_hi = lo * M - k, hi * M - k
        else:
            y_lo, y_hi = k + 1 - hi * M, k + 1 - lo * M
        overlap = min(y_hi, a2) - max(y_lo, a1)
        if overlap > 0:
            total += overlap / M
    return total - (a2 - a1) * (b2 - b1)


def check_mixing(job, path: Path) -> Outcome:
    rows = _csv_rows(path)
    meta = job.meta
    A = tuple(Fraction(x) for x in meta["a"])
    B = tuple(Fraction(x) for x in meta["b"])
    if len(rows) != meta["n_max"]:
        return fail("row_count", f"{len(rows)} rows")
    bad, err = [], 0.0
    for n_s, corr_s, zero_s in rows:
        exact = mixing_exact(meta["m"], int(n_s), A, B)
        if float(corr_s) != float(exact) or int(zero_s) != int(exact == 0):
            bad.append(int(n_s))
            err = max(err, abs(float(corr_s) - float(exact)))
    if bad:
        return fail("correlation_error", f"differs from the exact value at n={bad}", err=err)
    return Outcome(True)


# -------------------------------------------------------------- exponents

def check_quadrature(job, path: Path) -> Outcome:
    res = json.loads(path.read_text())["result"]
    err = abs(res["value"] - math.log(job.meta["m"]))
    if err > res["error_estimate"]:
        return fail("bound_violated", f"error {err:.3g} > reported {res['error_estimate']:.3g}",
                    err=err, tol=res["error_estimate"])
    return judge(err, INTEGRAL_TOL, "value_error", f"|value - log m| = {err:.3g}")


def check_orbit(job, path: Path) -> Outcome:
    res = json.loads(path.read_text())["result"]
    err = abs(res["value"] - math.log(job.meta["m"]))
    tol = ORBIT_SIGMAS * res["error_estimate"]
    out = judge(err, tol, "orbit_outside_stderr",
                f"|value - log m| = {err:.3g} > {ORBIT_SIGMAS:g} stderr")
    log_m = math.log(job.meta["m"])
    out.known = log_m < res["value"] <= 2.0 * log_m + tol
    return out


def log_potential(a: float) -> float:
    """I(a): zero on [-2, 2], log((|a| + sqrt(a^2 - 4)) / 2) outside."""
    if abs(a) <= 2.0:
        return 0.0
    return math.log((abs(a) + math.sqrt(a * a - 4.0)) / 2.0)


def check_sweep(job, path: Path) -> Outcome:
    rows = _csv_rows(path)
    count = job.meta["count"]
    if len(rows) != count:
        return fail("row_count", f"{len(rows)} rows for count {count}")
    err = max(abs(float(i) - log_potential(float(a))) for a, i in rows)
    return judge(err, INTEGRAL_TOL, "value_error", f"worst |I - closed form| = {err:.3g}")


_CHECKS = {
    "bands_json": check_bands_json,
    "bands_csv": check_bands_csv,
    "ensemble": check_ensemble,
    "density": check_density,
    "mixing": check_mixing,
    "lyapunov_quadrature": check_quadrature,
    "lyapunov_orbit": check_orbit,
    "sweep": check_sweep,
}


def _known_exit2(job, message: str) -> bool:
    """An exit 2 the parent showed: the quadrature's error bound above the
    request, for m >= 17 or for a sweep whose grid meets a known |a| range."""
    if QUAD_EXIT2_MESSAGE not in message:
        return False
    if job.kind == "lyapunov_quadrature":
        return job.meta["m"] >= KNOWN_QUADRATURE_EXIT2_M
    if job.kind == "sweep":
        grid = np.abs(np.linspace(job.meta["a_min"], job.meta["a_max"], job.meta["count"]))
        return any(np.any((grid >= lo) & (grid <= hi)) for lo, hi in KNOWN_SWEEP_EXIT2)
    return False


def check(job, record: dict, out_dir: Path) -> Outcome:
    """Judge one job from its run record and its output file."""
    if record["exc"]:
        return fail("raised", record["exc"][:200])
    if record["rc"] != 0:
        lines = record["stderr"].strip().splitlines()
        out = fail(f"exit{record['rc']}", lines[0][:200] if lines else "")
        out.known = record["rc"] == 2 and _known_exit2(job, out.detail)
        return out
    path = out_dir / job.out
    if not path.is_file():
        return fail("no_output", job.out)
    try:
        if job.kind == "mathieu":
            return check_mathieu(job, path, record["stdout"])
        return _CHECKS[job.kind](job, path)
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return fail("unparsable", f"{type(exc).__name__}: {exc}")
