"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the measured
quantities, then asserts.  Criteria 3 and 5 check the decay of the density
evolution against exact oracles.  Both start from densities without jumps in
the fold coordinate (the uniform density, and the truncated shifted-gamma
ensemble).  The exact transfer operator annihilates every harmonic whose
frequency is not a multiple of m and divides surviving frequencies by m.
Jump-free data has k^-2 harmonic content, so it contracts at 1/m^2 per step:
strictly inside the at-least-1/m guarantee the decay theorems give.  The
same operator measured on jump-carrying initial data (k^-1 content)
reproduces 1/m exactly; see
test_transfer.py::TestEvolution::test_jump_data_realises_generic_rate.
"""
import math
import time
from fractions import Fraction

import numpy as np

from hillmap import ensemble, hill, lyapunov, maps, transfer
from hillmap.errors import ConfigurationError


def report(num: int, ok: bool, detail: str, t0: float, limit: float) -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:5.1f}s < {limit:g}s) {detail}")
    assert ok, detail
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s"


def test_criterion_1_trace_powers_match_polynomials():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(0.4, 1.6) * rng.choice([-1.0, 1.0])
        b, c = rng.uniform(-1.5, 1.5, 2)
        M = np.array([[a, b], [c, (1.0 + b * c) / a]])
        P = np.eye(2)
        for m in range(2, 9):
            P = np.eye(2)
            for _ in range(m):
                P = P @ M  # naive repeated multiplication oracle
            predicted = maps.gen_logistic_coeffs(m)(np.trace(M))
            err = abs(np.trace(P) - predicted) / max(1.0, abs(np.trace(P)))
            worst = max(worst, err)
    report(1, worst < 1e-9, f"worst relative trace error {worst:.2e}", t0, 1.0)


def test_criterion_2_free_operator_fidelity():
    t0 = time.time()
    free = hill.Potential.free()
    worst = 0.0
    for l in (1.0, 2.0, 4.0):
        for lam in np.linspace(0.0, 100.0, 200):
            delta = hill.monodromy(free, l, float(lam)).trace
            worst = max(worst, abs(delta - hill.free_discriminant(l, float(lam))))
    edge_err = 0.0
    for l, lam_max in ((1.0, 45.0), (2.0, 12.0), (4.0, 3.0)):
        blist = hill.spectrum_bands(free, l, lam_max)
        edges = [e for band in blist.bands for e in band]
        for i, edge in enumerate(edges[:-1]):  # last edge is the lam_max clip
            expected = ((i + 1) // 2) ** 2 * (math.pi / l) ** 2
            edge_err = max(edge_err, abs(edge - expected))
    ok = worst < 1e-6 and edge_err < 1e-6
    report(2, ok, f"max |Delta - 2cos(l sqrt(lam))| {worst:.2e}, edge error {edge_err:.2e}", t0, 10.0)


def _uniform_start_l1(m: int, n: int) -> float:
    """Closed-form ||L^n p0 - 1||_1 for the uniform start, which in the fold
    coordinate is p0(x) = (pi/2) sin(pi x), under the m-piece tent map.

    p0 = 1 - 2 sum_k cos(2 pi k x) / (4k^2 - 1).  The transfer operator keeps
    the frequencies divisible by M = m^n and divides them by M; the surviving
    series sums to K cos(w (x - c)) with w = pi / M, and c = 1, K = w / sin w
    for even M, c = 1/2, K = (w/2) / sin(w/2) for odd M.  That density
    exceeds 1 exactly where |x - c| < acos(1/K) / w, and since it has mass 1
    its L1 distance to 1 is twice the excess there.
    """
    M = m**n
    w = math.pi / M
    if M % 2 == 0:
        K, halves = w / math.sin(w), 1
    else:
        K, halves = (w / 2) / math.sin(w / 2), 2
    d = math.acos(1.0 / K) / w
    return 2.0 * halves * ((K / w) * math.sin(w * d) - d)


def _uniform_projection_error(resolution: int) -> float:
    """||p_h - p0||_1 for the cell averages p_h of p0(x) = (pi/2) sin(pi x).

    With an even resolution p0 is monotone on every cell, so it meets its cell
    mean once, at x*, and the integral of |p0 - mean| splits there.
    """
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


def test_criterion_3_uniform_start_decay_ratios():
    t0 = time.time()
    resolution = 2**14
    # by L1 contraction of the exact operator, |d_n - _uniform_start_l1(m, n)|
    # never exceeds the projection error of the start
    proj = _uniform_projection_error(resolution)
    p = transfer.StepDensity.uniform(-2.0, 2.0)
    constant = 4.0 * math.pi * transfer.variation(p) + 8.0 * math.pi * float(np.max(p.values))
    lines = []
    ok = True
    for m in (2, 3, 4):
        recs, _ = transfer.evolve_genlogistic(m, 6, resolution=resolution)
        d = [r["l1_to_invariant"] for r in recs]
        ratios = [d[n + 1] / d[n] for n in range(1, 6)]
        inside = all(abs(r - 1.0 / m**2) <= 0.05 for r in ratios)
        gap = max(abs(d[n] - _uniform_start_l1(m, n)) for n in range(7))
        scaled = max(d[n] * m**n for n in range(1, 7))
        ok = ok and inside and gap <= proj and scaled <= constant
        lines.append(
            f"m={m} ratios={['%.4f' % r for r in ratios]} "
            f"closed-form gap {gap:.1e} max d_n m^n {scaled:.3f}"
        )
    detail = (
        "uniform-start ratios must lie in 1/m^2 +- 0.05, d_n within the projection "
        f"error {proj:.2e} of the closed form, d_n m^n <= {constant:.3f}; measured "
        + "; ".join(lines)
    )
    report(3, ok, detail, t0, 30.0)


def test_criterion_4_unbounded_variation_rate():
    t0 = time.time()
    p = transfer.counterexample_density(40)
    mass = p.mass()
    normalized = transfer.StepDensity(p.edges, p.values / mass)
    expected = transfer.COUNTEREXAMPLE_ERROR_CONSTANT / mass
    worst = 0.0
    for n in range(1, 13):
        img = transfer.pushforward_fold(normalized, 2**n)
        err = transfer.l1_to_uniform(img)
        worst = max(worst, abs(err * 2.0 ** (n / 2.0) / expected - 1.0))
    detail = (
        f"normalised fold error * 2^(n/2) = {expected:.6f} (error constant "
        f"(2+sqrt2)/4 over measured mass {mass:.6f}), max deviation {worst:.2%}"
    )
    report(4, worst < 0.01, detail, t0, 5.0)


def _fold_w1(pk: transfer.StepDensity) -> float:
    """W1 to the arcsine law of the density whose fold-coordinate image is pk.

    With delta = 2 cos(pi k) the distance is the integral over [0, 1] of
    |G(k) - k| 2 pi sin(pi k), G the CDF of pk.  G - k is linear on every
    cell, so each cell is split where it changes sign and integrated exactly.
    """
    e = np.union1d(pk.edges, [0.0, 1.0])
    f = pk.cdf(e) - e
    a, b, fa, fb = e[:-1], e[1:], f[:-1], f[1:]
    cross = fa * fb < 0
    c = np.where(cross, a + (b - a) * fa / np.where(cross, fa - fb, 1.0), b)
    slope = (fb - fa) / (b - a)

    def primitive(x):  # of (fa + slope (x - a)) 2 pi sin(pi x)
        return 2.0 * (slope * np.sin(np.pi * x) / np.pi - (fa + slope * (x - a)) * np.cos(np.pi * x))

    return float(np.sum(np.abs(primitive(c) - primitive(a)) + np.abs(primitive(b) - primitive(c))))


def _gamma_twin(m: int, steps: int, resolution: int) -> np.ndarray:
    """Noise-free twin of the criterion-5 ensemble: the W1 distance after each
    exact transfer step, starting from the truncated shifted gamma, whose CDF
    on [-2, 2] is (1 - exp(-(x + 2))) / (1 - exp(-4)).

    The start is projected onto a uniform grid in the fold coordinate with the
    exact mass of every cell and pushed through the m-piece tent map.
    """
    k = np.linspace(0.0, 1.0, resolution + 1)
    cum = -np.expm1(-(2.0 * np.cos(np.pi * k) + 2.0)) / -math.expm1(-4.0)
    pk = transfer.StepDensity(k, (cum[:-1] - cum[1:]) * resolution)
    out = [_fold_w1(pk)]
    for _ in range(steps):
        pk = transfer.pushforward_tent(pk, m)
        out.append(_fold_w1(pk))
    return np.array(out)


def test_criterion_5_monte_carlo_slopes():
    t0 = time.time()
    n_samples, n_iters = 10**6, 8
    # Per-step spread of the W1 estimator at 10^6 samples: over seeds 1-8 the
    # sample standard deviation of W1 at any step 0..8 is at most 2.0e-3 for
    # m = 2 and 3 (largest at m = 3, step 2), so sigma = 2 / sqrt(n).
    sigma = 2.0 / math.sqrt(n_samples)
    threshold = 3.0 * ensemble.W1_FLOOR_COEFF / math.sqrt(n_samples)
    dist = ensemble.InitialDistribution.shifted_gamma()
    rates = {}
    lines = []
    ok = True
    for m in range(2, 8):
        twin = _gamma_twin(m, n_iters, 2**16)
        fine = _gamma_twin(m, n_iters, 2**18)
        # the twin is used in relative terms only over the leading steps on
        # which the two grids agree to 1e-3; everywhere it is far inside sigma
        agree = np.abs(twin / fine - 1.0) <= 1e-3
        resolved = n_iters if agree.all() else int(np.argmin(agree)) - 1
        ok = ok and resolved >= 2 and float(np.max(np.abs(twin - fine))) < 1e-3 * sigma
        rates[m] = twin[resolved] / twin[resolved - 1]
        ok = ok and abs(rates[m] - 1.0 / m**2) <= 0.05
        try:
            rep = ensemble.convergence_experiment(m, dist, n_samples, n_iters, seed=42)
        except ConfigurationError as exc:
            # refusing is right only where the twin's step-2 distance does not
            # clear the threshold by 3 sigma; wherever it does, a fit must happen
            ok = ok and twin[2] < threshold + 3.0 * sigma
            lines.append(f"m={m} refused (twin d2 {twin[2]:.2e}: {exc})")
            continue
        dev = float(np.max(np.abs(np.asarray(rep.distances) - twin))) / sigma
        lo, hi = rep.fit_range
        ns = np.arange(lo, hi + 1)
        twin_slope = float(np.polyfit(ns, np.log(twin[ns]), 1)[0])
        # least-squares weights carry sigma into the standard error of the slope
        weights = (ns - ns.mean()) / np.sum((ns - ns.mean()) ** 2)
        se = sigma * math.sqrt(float(np.sum((weights / twin[ns]) ** 2)))
        gap = abs(rep.fitted_slope - twin_slope) / se
        ok = ok and dev <= 3.0 and gap <= 3.0 and hi <= resolved
        lines.append(
            f"m={m} max |W1 - twin| {dev:.2f} sigma, slope {rep.fitted_slope:.3f} "
            f"vs twin {twin_slope:.3f} over {rep.fit_range} ({gap:.2f} se), "
            f"twin rate {rates[m]:.4f}"
        )
    mono = all(rates[m + 1] < rates[m] for m in range(2, 7))
    ok = ok and mono
    detail = (
        "W1 within 3 sigma of the exact twin, slope within 3 se of the twin's, "
        "refusals only where the twin nears the threshold, twin rates in "
        "1/m^2 +- 0.05 and decreasing in m; measured " + "; ".join(lines)
    )
    report(5, ok, detail, t0, 300.0)


def test_criterion_6_lyapunov_quadrature():
    t0 = time.time()
    worst_val = 0.0
    worst_dec = 0.0
    for m in range(2, 8):
        lam = lyapunov.average_lyapunov_quadrature(m).value
        worst_val = max(worst_val, abs(lam - math.log(m)))
        dec = math.log(m) + sum(lyapunov.I_integral(float(a)) for a in lyapunov.roots_fm(m))
        worst_dec = max(worst_dec, abs(lam - dec))
    ok = worst_val < 1e-4 and worst_dec < 2e-4
    report(6, ok, f"max |lambda_m - log m| {worst_val:.2e}, decomposition gap {worst_dec:.2e}", t0, 30.0)


def test_criterion_7_log_potential_identities():
    t0 = time.time()
    band_worst = max(abs(lyapunov.I_integral(float(a))) for a in np.linspace(-1.9, 1.9, 41))
    at_one = max(abs(lyapunov.I_integral(1.0)), abs(lyapunov.I_integral(-1.0)))
    oracle = lyapunov.I_integral_xform(3.0, 1e-10)
    gap = abs(lyapunov.I_integral(3.0) - oracle)
    ok = band_worst < 1e-6 and at_one < 1e-6 and gap < 1e-6
    report(
        7, ok,
        f"max |I| on band {band_worst:.2e}, |I(+-1)| {at_one:.2e}, "
        f"I(3) vs oracle gap {gap:.2e}", t0, 30.0,
    )


def test_criterion_8_explicit_formulas():
    t0 = time.time()
    md = maps.MapDescriptor.logistic(4.0)
    rng = np.random.default_rng(99)
    sine_worst = 0.0
    for x0 in rng.uniform(0.0, 1.0, 50):
        orbit = maps.iterate(md, float(x0), 6).values
        for n in range(7):
            sine_worst = max(sine_worst, abs(maps.sine_formula(float(x0), n) - orbit[n]))
    lam0 = maps.mathieu_lambda0()
    mathieu_worst = 0.0
    for x0 in (0.2, 0.55, 0.83):
        orbit = maps.iterate(md, x0, 4).values
        for n in range(5):
            mathieu_worst = max(mathieu_worst, abs(maps.mathieu_formula(x0, n) - orbit[n]))
    ok = sine_worst < 1e-5 and -10.0 < lam0 < -9.0 and mathieu_worst < 1e-4
    report(
        8, ok,
        f"sine formula error {sine_worst:.2e}, lambda0 {lam0:.4f}, "
        f"cosine-cell error {mathieu_worst:.2e}", t0, 60.0,
    )


def test_criterion_9_conjugacy_suite():
    t0 = time.time()
    xs = np.linspace(0.0, 1.0, 10**4)
    ys = np.linspace(-1.0, 1.0, 10**4)
    worst = 0.0
    for m in range(1, 9):
        tent = maps.eval_map(maps.MapDescriptor.tent(m), xs)
        lhs = 2.0 * np.cos(np.pi * tent)
        rhs = maps.eval_map(maps.MapDescriptor.gen_logistic(m), 2.0 * np.cos(np.pi * xs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        resc = maps.eval_map(maps.MapDescriptor.gen_logistic(m), 2.0 * ys) - 2.0 * maps.eval_map(
            maps.MapDescriptor.chebyshev(m), ys
        )
        worst = max(worst, float(np.max(np.abs(resc))))
    report(9, worst < 1e-9, f"worst conjugacy defect {worst:.2e}", t0, 5.0)


def test_criterion_10_mixing_exactness():
    t0 = time.time()
    rng = np.random.default_rng(31)
    exact_ok = True
    for m in (2, 3, 5):
        for i in (1, 2, 3, 4):
            denom = m**i
            a1, b1 = sorted(rng.choice(denom + 1, size=2, replace=False))
            a2, b2 = sorted(rng.choice(denom + 1, size=2, replace=False))
            A = (Fraction(int(a1), denom), Fraction(int(b1), denom))
            B = (Fraction(int(a2), denom), Fraction(int(b2), denom))
            for n in (i, i + 2):
                if transfer.mixing_correlation(m, n, A, B) != 0:
                    exact_ok = False

    shift_ok = True
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 8))
        x = Fraction(int(rng.integers(0, m**k)), m**k)
        digits = maps.mary_digits(x, m, k)
        predicted = maps.digit_shift_predict(digits, m)
        value = sum(Fraction(d, m**j) for j, d in enumerate(predicted, start=1))
        image = maps.eval_map(maps.MapDescriptor.tent(m), x)
        if digits[0] % 2 == 1 and image != value:
            value += Fraction(1, m ** len(predicted))  # non-terminating twin
        if image != value:
            shift_ok = False
        checked += 1
    ok = exact_ok and shift_ok
    report(10, ok, f"rational correlations all zero: {exact_ok}; "
           f"digit-shift identity on 1000 expansions: {shift_ok}", t0, 10.0)
