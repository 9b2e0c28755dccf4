import bisect
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillmap import numerics, transfer
from hillmap.errors import DomainError
from hillmap.maps import MapDescriptor, eval_map
from hillmap.numerics import quad_singular
from hillmap.transfer import (
    _fold_grid,
    COUNTEREXAMPLE_ERROR_CONSTANT,
    COUNTEREXAMPLE_LIMIT_MASS,
    StepDensity,
    counterexample_density,
    delta_to_kappa,
    evolve_genlogistic,
    invariant_cdf,
    invariant_density,
    invariant_quantile,
    kappa_to_delta,
    l1_distance,
    l1_to_invariant,
    l1_to_uniform,
    mixing_correlation,
    preimage_intervals,
    pushforward_fold,
    pushforward_genlogistic,
    pushforward_tent,
    uniform_kappa_projection,
    variation,
)

EPS = np.finfo(float).eps


def arcsine_l1_oracle(p: StepDensity) -> float:
    """L1 distance from p to the arcsine law D by 30-digit quadrature
    (mpmath): |v - D| over each cell and D over the rest of [-2, 2], split at
    +-2 and at the points where D = v, with D taken as 0 past +-2."""
    mpmath = pytest.importorskip("mpmath")
    edges, values = list(p.edges), list(p.values)
    if edges[0] > -2.0:
        edges, values = [-2.0, *edges], [0.0, *values]
    if edges[-1] < 2.0:
        edges, values = [*edges, 2.0], [*values, 0.0]
    total = 0
    with mpmath.workdps(30):
        density = lambda x: 1 / (mpmath.pi * mpmath.sqrt(4 - x * x)) if abs(x) < 2 else 0
        for a, b, v in zip(edges[:-1], edges[1:], values):
            points = [mpmath.mpf(-2), mpmath.mpf(2)]
            if v > 0.5 / math.pi:
                c = mpmath.sqrt(4 - 1 / (mpmath.pi * v) ** 2)
                points += [-c, c]
            points = sorted({mpmath.mpf(a), mpmath.mpf(b), *(x for x in points if a < x < b)})
            total += mpmath.quad(lambda x: abs(v - density(x)), points)
    return float(total)


def arcsine_discretized(n_cells: int) -> StepDensity:
    """D represented by exact per-cell masses on its natural (cosine) grid."""
    k = np.linspace(0.0, 1.0, n_cells + 1)
    edges = -2.0 * np.cos(np.pi * k)
    masses = np.diff([invariant_cdf(x) for x in edges])
    return StepDensity(edges, masses / np.diff(edges))


class TestStepDensity:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepDensity(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            StepDensity(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_mass_and_cdf(self):
        p = StepDensity(np.array([0.0, 0.5, 1.0]), np.array([1.5, 0.5]))
        assert p.mass() == 1.0
        assert p.cdf(0.5) == 0.75
        assert p.integral(0.25, 0.75) == 1.5 * 0.25 + 0.5 * 0.25

    def test_simplify_merges(self):
        p = StepDensity(np.array([0.0, 0.3, 0.6, 1.0]), np.array([2.0, 2.0, 1.0]))
        s = p.simplify()
        assert np.array_equal(s.edges, [0.0, 0.6, 1.0])
        assert np.array_equal(s.values, [2.0, 1.0])

    def test_serialisation(self):
        import json

        p = StepDensity(np.array([0.0, 1.0]), np.array([1.0]))
        rows = p.to_csv_rows()
        assert rows == [(0.0, 1.0, 1.0)]
        assert json.loads(p.to_json())["values"] == [1.0]


class TestPushforwardTent:
    def test_uniform_is_invariant(self):
        u = StepDensity(np.linspace(0.0, 1.0, 17), np.ones(16))
        for m in (2, 3, 5, 7):
            out = pushforward_tent(u, m)
            grid = np.union1d(u.edges, out.edges)
            mids = 0.5 * (grid[:-1] + grid[1:])
            assert np.allclose(out(mids), 1.0, atol=1e-12)
        # dyadic grid under a power-of-two fold is exact arithmetic
        exact = pushforward_tent(u, 2)
        assert np.array_equal(exact.edges, [0.0, 1.0])
        assert np.array_equal(exact.values, [1.0])

    def test_half_density_hand_computation(self):
        # density 2 on [0, 1/2]: both branch preimages of every y meet it with
        # weight (2 + 0)/2 on branch images, flattening to 1 on [0, 1]
        p = StepDensity(np.array([0.0, 0.5]), np.array([2.0]))
        out = pushforward_tent(p, 2)
        assert np.array_equal(out.edges, [0.0, 1.0])
        assert np.array_equal(out.values, [1.0])

    def test_grid_aligned_cell_flattens(self):
        for m in (2, 3, 4):
            p = StepDensity(np.array([1.0 / m, 2.0 / m]), np.array([float(m)]))
            out = pushforward_tent(p, m)
            assert np.array_equal(out.edges, [0.0, 1.0])
            assert np.allclose(out.values, [1.0])

    def test_mass_conserved_bit_for_bit(self):
        rng = np.random.default_rng(5)
        edges = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 30)]))
        p = StepDensity(edges, rng.uniform(0.0, 3.0, edges.size - 1))
        out1 = pushforward_tent(p, 3)
        out2 = pushforward_tent(p, 3)
        assert np.array_equal(out1.values, out2.values)
        assert np.array_equal(out1.edges, out2.edges)
        assert abs(out1.mass() - p.mass()) < 1e-12

    def test_linearity_and_contraction(self):
        rng = np.random.default_rng(6)
        edges = np.linspace(0.0, 1.0, 33)
        p = StepDensity(edges, rng.uniform(-1.0, 2.0, 32))
        q = StepDensity(edges, rng.uniform(-1.0, 2.0, 32))
        a, b = 0.7, -1.3
        combo = StepDensity(edges, a * p.values + b * q.values)
        lhs = pushforward_tent(combo, 3)
        pa = pushforward_tent(p, 3)
        qb = pushforward_tent(q, 3)
        grid = np.union1d(pa.edges, qb.edges)
        mids = 0.5 * (grid[:-1] + grid[1:])
        assert np.allclose(lhs(mids), a * pa(mids) + b * qb(mids), atol=1e-12)
        # operator norm at most 1 on signed inputs
        assert pushforward_tent(p, 3).norm1() <= p.norm1() + 1e-12


class TestFoldGrid:
    """The uniform-grid kernel behind evolve_genlogistic and
    pushforward_genlogistic, against the transfer operator's definition and
    against the general pushforward."""

    @staticmethod
    def exact_image(v, m, cells):
        # (P v)(y) = sum over the m preimages x_j of y of v(x_j) / m, taken at
        # the output cell midpoints in rational arithmetic
        n = v.size
        out = []
        for k in range(cells):
            y = Fraction(2 * k + 1, 2 * cells)
            xs = [(j + y) / m if j % 2 == 0 else (j + 1 - y) / m for j in range(m)]
            out.append(sum(Fraction(float(v[math.floor(x * n)])) for x in xs) / m)
        return out

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 48), st.integers(0, 2**32 - 1),
           st.floats(-3.0, 3.0))
    def test_matches_the_general_pushforward(self, m, n, seed, log_scale):
        v = np.random.default_rng(seed).normal(size=n) * 10.0**log_scale  # signed
        vmax = float(np.max(np.abs(v)))
        out = _fold_grid(v, m)
        cells = n // m if n % m == 0 else n
        assert out.size == cells
        exact = self.exact_image(v, m, cells)
        assert max(abs(Fraction(float(x)) - e) for x, e in zip(out, exact)) <= m * EPS * vmax
        # the general path sums its levels along an event sweep over at most
        # 2 (n + m) branch-piece ends, each addition rounding by eps/2 |level|
        ref = pushforward_fold(StepDensity(np.linspace(0.0, 1.0, n + 1), v), m)
        mids = (np.arange(cells) + 0.5) / cells
        tol = m * EPS * vmax + (n + m) * EPS * vmax
        assert np.max(np.abs(ref(mids) - out)) <= tol
        mass_in = sum(Fraction(float(x)) for x in v) / n
        scale = float(np.sum(np.abs(v))) / n
        assert abs(Fraction(float(np.sum(out))) / cells - mass_in) <= 2 * m * EPS * scale
        assert abs(ref.mass() - float(mass_in)) <= 2 * (n + m) * EPS * scale

    def test_divisible_grid_coarsens(self):
        v = np.arange(1.0, 7.0)  # six cells, m = 3: rows [1, 2], [3, 4], [5, 6]
        assert np.array_equal(_fold_grid(v, 3), [(1 + 4 + 5) / 3, (2 + 3 + 6) / 3])
        assert np.array_equal(_fold_grid(v, 1), v)

    def test_input_untouched(self):
        v = np.arange(8.0)
        _fold_grid(v, 2)
        _fold_grid(v, 3)
        assert np.array_equal(v, np.arange(8.0))


class TestPushforwardFold:
    def test_rational_step_flattens(self):
        for l in (2, 4, 8):
            edges = np.arange(2 * l + 1) / l  # width-1/l steps on [0, 2]
            rng = np.random.default_rng(l)
            vals = rng.uniform(0.0, 1.0, 2 * l)
            p = StepDensity(edges, vals / np.dot(vals, np.diff(edges)))
            out = pushforward_fold(p, l)
            assert np.array_equal(out.edges, [0.0, 1.0])
            assert np.allclose(out.values, [1.0], atol=1e-12)

    def test_l1_is_identity_on_unit_interval(self):
        p = StepDensity(np.array([0.0, 0.25, 1.0]), np.array([2.0, 2.0 / 3.0]))
        out = pushforward_fold(p, 1)
        grid = np.union1d(p.edges, out.edges)
        mids = 0.5 * (grid[:-1] + grid[1:])
        assert np.array_equal(out(mids), p(mids))

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_zero_density_maps_to_zero_on_the_unit_interval(self, l):
        # every image carries weight 0, so no cell of [0, 1] is covered
        out = pushforward_fold(StepDensity(np.array([0.0, 0.5, 2.0]), np.zeros(2)), l)
        assert np.array_equal(out.edges, [0.0, 1.0]) and np.array_equal(out.values, [0.0])

    def test_bounded_variation_decay_bound(self):
        p = StepDensity(np.array([0.0, 0.7, 1.3, 2.0]), np.array([0.9, 0.35, 0.25]))
        p = StepDensity(p.edges, p.values / p.mass())
        V = variation(p)
        for l in (2, 4, 8, 16, 32, 64, 128, 256):
            err = l1_to_uniform(pushforward_fold(p, l))
            assert err <= 2.0 * V / l + 1e-12

    def test_counterexample_exact_rate(self):
        p = counterexample_density(40)
        mass = p.mass()
        target = StepDensity(np.array([0.0, 1.0]), np.array([mass]))
        for n in range(1, 13):
            err = l1_distance(pushforward_fold(p, 2**n), target)
            # truncation at i_max=40 perturbs the infinite-series constant by
            # O(2^-(40-n)/2), far below the 1% assertion
            assert abs(err / (COUNTEREXAMPLE_ERROR_CONSTANT * 2.0 ** (-n / 2)) - 1.0) < 0.01


class TestCounterexampleDensity:
    def test_first_term(self):
        p = counterexample_density(1)
        assert np.array_equal(p.edges, [0.5, 1.0])
        assert np.array_equal(p.values, [1.0])
        assert p.mass() == 0.5

    def test_mass_approaches_limit(self):
        # the tail beyond i_max sums to exactly 2^(-i_max/2) times the limit
        for i_max in (10, 20, 40):
            expected_gap = COUNTEREXAMPLE_LIMIT_MASS * 2.0 ** (-i_max / 2)
            gap = COUNTEREXAMPLE_LIMIT_MASS - counterexample_density(i_max).mass()
            assert abs(gap - expected_gap) < 1e-12

    def test_unbounded_variation(self):
        assert variation(counterexample_density(30)) > 2.0**14


class TestPushforwardGenLogistic:
    def test_invariant_density_fixed(self):
        pD = arcsine_discretized(4096)
        out = pushforward_genlogistic(pD, 3)
        residual = l1_to_invariant(out)
        # the 4096-cell representation of D itself sits ~1.1e-3 from D, and
        # one exact transfer step does not increase it
        assert residual < 1.2e-3
        assert residual <= l1_to_invariant(pD) + 1e-6
        assert abs(out.mass() - 1.0) < 1e-9

    def test_even_map_forgets_sign(self):
        # the degree-2 map is even, so reflecting the input density about 0
        # cannot change its image
        rng = np.random.default_rng(9)
        edges = np.linspace(-2.0, 2.0, 9)
        vals = rng.uniform(0.0, 1.0, 8)
        p = StepDensity(edges, vals / np.dot(vals, np.diff(edges)))
        reflected = StepDensity(edges, p.values[::-1])
        out = pushforward_genlogistic(p, 2, resolution=2**12)
        out_r = pushforward_genlogistic(reflected, 2, resolution=2**12)
        for x in np.linspace(-2.0, 2.0, 23):
            assert abs(out.integral(-2.0, float(x)) - out_r.integral(-2.0, float(x))) < 1e-9

    def test_uniform_contracts_towards_invariant(self):
        u = StepDensity(np.array([-2.0, 2.0]), np.array([0.25]))
        p1 = pushforward_genlogistic(u, 2, resolution=2**12)
        d0 = l1_to_invariant(u)
        d2 = l1_to_invariant(pushforward_genlogistic(p1, 2, resolution=2**12))
        assert d2 < d0 / 3


class TestEvolution:
    def test_uniform_start_superconverges(self):
        # the uniform density is smooth in the fold coordinate, so its only
        # harmonic content decays two orders per cascade: measured ratios sit
        # at 1/m^2, inside the at-least-O(m^-n) guarantee for BV data
        for m in (2, 3, 4):
            recs, final = evolve_genlogistic(m, 6, resolution=2**14)
            d = [r["l1_to_invariant"] for r in recs]
            for n in range(2, 6):
                assert d[n + 1] <= d[n] / m  # at least the BV rate
                assert abs(d[n + 1] / d[n] - 1.0 / m**2) < 0.015
            assert abs(final.mass() - 1.0) < 1e-9

    def test_jump_data_realises_generic_rate(self):
        # a density jump at kappa = 1/3 (m = 2, 4) or 1/4 (m = 3) keeps the
        # surviving harmonic at constant amplitude, showing the 1/m contraction
        for m, k0 in ((2, 1.0 / 3.0), (3, 0.25), (4, 1.0 / 3.0)):
            pk = StepDensity(np.array([0.0, k0, 1.0]), np.array([1.5, 1.0]))
            pk = pk.normalized()
            d = [l1_to_uniform(pk)]
            for _ in range(6):
                pk = pushforward_tent(pk, m)
                d.append(l1_to_uniform(pk))
            for n in range(1, 6):
                assert abs(d[n + 1] / d[n] - 1.0 / m) < 0.01

    def test_decay_constant_bound(self):
        # the contraction constant for a BV density p on [-2, 2] is bounded by
        # 4 pi V(p) + 8 pi sup p (variation of its fold-coordinate transport)
        p = StepDensity(np.array([-2.0, -0.3, 0.8, 2.0]), np.array([0.4, 0.15, 0.2]))
        p = p.normalized()
        bound = 4.0 * math.pi * variation(p) + 8.0 * math.pi * float(np.max(p.values))
        for m in (2, 3):
            recs, _ = evolve_genlogistic(m, 6, resolution=2**14, initial=p)
            for r in recs[1:]:
                assert r["l1_to_invariant"] * m ** r["step"] <= bound

    def test_setwise_convergence_monotone(self):
        # observables of the evolved uniform density against the invariant
        # measure, in the fold coordinate where the sets are [0,1/3], [1/3,2/3]
        pk = uniform_kappa_projection(2**14)
        for ka, kb in ((0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0)):
            errs = []
            q = pk
            for _ in range(9):
                errs.append(abs(q.integral(ka, kb) - (kb - ka)))
                q = pushforward_tent(q, 2)
            for n in range(3, 8):
                assert errs[n + 1] < errs[n]

    def test_report_fields(self):
        recs, final = evolve_genlogistic(2, 3, resolution=256)
        assert [r["step"] for r in recs] == [0, 1, 2, 3]
        for r in recs:
            assert abs(r["mass"] - 1.0) < 1e-12
            assert r["resolution"] >= 1

    def test_resolution_is_the_grid_cell_count(self):
        # divided by m while m divides the grid, constant otherwise
        recs, _ = evolve_genlogistic(2, 6, resolution=2**14)
        assert [r["resolution"] for r in recs] == [2 ** (14 - n) for n in range(7)]
        recs, _ = evolve_genlogistic(3, 6, resolution=2**14)
        assert [r["resolution"] for r in recs] == [2**14] * 7
        recs, _ = evolve_genlogistic(4, 3, resolution=2**5)
        assert [r["resolution"] for r in recs] == [32, 8, 2, 2]

    def test_none_starts_from_the_uniform_density(self):
        recs, final = evolve_genlogistic(3, 2, resolution=243, initial=None)
        v = uniform_kappa_projection(243).values
        assert recs[0]["l1_to_invariant"] == float(np.sum(np.abs(v - 1.0))) / v.size
        default_recs, default_final = evolve_genlogistic(3, 2, resolution=243)
        assert recs == default_recs
        assert np.array_equal(final.edges, default_final.edges)
        assert np.array_equal(final.values, default_final.values)

    @pytest.mark.parametrize("m, steps", [(0, 3), (-2, 3), (2, -1)])
    def test_order_below_one_or_negative_steps_refused(self, m, steps):
        # m = 0 divided by zero in _fold_grid; steps = -1 gave no records
        with pytest.raises(ValueError, match="need m >= 1 and steps >= 0"):
            evolve_genlogistic(m, steps, resolution=64)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_mass_to_rounding(self, m):
        for log_n in (10, 14, 17, 20):
            recs, _ = evolve_genlogistic(m, 6, resolution=2**log_n)
            assert max(abs(r["mass"] - 1.0) for r in recs) <= 4 * EPS


class TestCoordinateChange:
    def test_round_trip_masses(self):
        p = StepDensity(np.array([-2.0, -0.5, 1.0, 2.0]), np.array([0.2, 0.3, 0.25]))
        pk = delta_to_kappa(p, 512)
        back = kappa_to_delta(pk)
        assert abs(back.mass() - p.mass()) < 1e-12
        for a, b in ((-2.0, -0.5), (-0.5, 1.0), (1.0, 2.0)):
            assert abs(back.integral(a, b) - p.integral(a, b)) < 2e-3

    def test_uniform_projection_closed_form(self):
        pk = uniform_kappa_projection(64)
        pk2 = delta_to_kappa(StepDensity(np.array([-2.0, 2.0]), np.array([0.25])), 64)
        assert np.allclose(pk.values, pk2.values, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 2**14, 2**20])
    def test_uniform_projection_is_the_two_cosine_formula(self, n):
        # one cosine per edge, differenced, has the bits of a cosine per cell
        # end: np.cos gives an element the same value at any offset
        k = np.linspace(0.0, 1.0, n + 1)
        masses = 0.5 * (np.cos(np.pi * k[:-1]) - np.cos(np.pi * k[1:]))
        assert np.array_equal(uniform_kappa_projection(n).values, masses * n)

    def test_density_off_domain_refused(self):
        # the projection onto the fold coordinate would drop the mass
        # outside [-2, 2]
        wide = StepDensity.uniform(-3.0, 3.0)
        with pytest.raises(DomainError):
            pushforward_genlogistic(wide, 2, resolution=64)
        with pytest.raises(DomainError):
            evolve_genlogistic(2, 3, resolution=64, initial=wide)


class TestL1Distance:
    def test_identical_is_zero(self):
        p = StepDensity(np.array([0.0, 1.0]), np.array([1.0]))
        assert l1_distance(p, p) == 0.0

    def test_hand_value(self):
        p = StepDensity(np.array([0.0, 1.0]), np.array([1.0]))
        q = StepDensity(np.array([0.0, 0.5]), np.array([2.0]))
        assert l1_distance(p, q) == 1.0

    def test_uniform_vs_arcsine_closed_form(self):
        # |1/4 - D| integrates to dstar - 4 asin(dstar/2)/pi for the crossing
        # point dstar = 2 sqrt(1 - 4/pi^2); the quadrature oracle agrees
        u = StepDensity(np.array([-2.0, 2.0]), np.array([0.25]))
        dstar = 2.0 * math.sqrt(1.0 - 4.0 / math.pi**2)
        closed = dstar - 4.0 * math.asin(dstar / 2.0) / math.pi
        got = l1_to_invariant(u)
        assert abs(got - closed) < 1e-12
        assert abs(got - arcsine_l1_oracle(u)) < 1e-8

    @pytest.mark.parametrize("lo, hi, at", [(0.5, 1.9, 0.37), (-1.9, -0.3, 0.6),
                                            (1.0, 1.99, 0.2), (-2.0, -1.0, 0.5)])
    def test_cell_holding_the_crossing(self, lo, hi, at):
        # v = D at a point inside the cell: |v - D| has a kink there; the
        # closed form splits at the crossing and uses the arcsine CDF
        v = invariant_density("discriminant_D", lo + at * (hi - lo))
        cross = math.copysign(math.sqrt(4.0 - 1.0 / (math.pi * v) ** 2), lo + hi)
        exact = (v * (cross - lo) - (invariant_cdf(cross) - invariant_cdf(lo))
                 + (invariant_cdf(hi) - invariant_cdf(cross)) - v * (hi - cross))
        if lo + hi < 0:  # D falls through the crossing on the left half
            exact = -exact
        tails = invariant_cdf(lo) + (1.0 - invariant_cdf(hi))
        p = StepDensity(np.array([lo, hi]), np.array([v]))
        assert abs(l1_to_invariant(p) - (exact + tails)) < 1e-12

    @pytest.mark.parametrize("lo, hi", [(0.5, 1.9), (-1.9, -0.3), (1.0, 1.99), (-2.0, 2.0)])
    def test_declared_crossings_need_few_calls(self, monkeypatch, lo, hi):
        # the crossings of D with v = 1/4 are closed forms, so the distance
        # (tails included) takes no quadrature and no root solve at all
        def refused(*args, **kwargs):
            raise AssertionError("no quadrature or root solve expected")

        for name in ("quad_singular", "find_roots"):
            monkeypatch.setattr(numerics, name, refused)
            monkeypatch.setattr(transfer, name, refused, raising=False)
        v = 0.25
        cross = math.sqrt(4.0 - 1.0 / (math.pi * v) ** 2)
        pts = [lo, *(c for c in (-cross, cross) if lo < c < hi), hi]
        exact = sum(abs(v * (b - a) - (invariant_cdf(b) - invariant_cdf(a)))
                    for a, b in zip(pts[:-1], pts[1:]))
        tails = invariant_cdf(lo) + (1.0 - invariant_cdf(hi))
        got = l1_to_invariant(StepDensity(np.array([lo, hi]), np.array([v])))
        assert abs(got - (exact + tails)) < 1e-12

    def test_many_cells_in_one_quadrature(self):
        # the cells of a step density against the cell-by-cell sum
        p = StepDensity(np.linspace(-2.0, 2.0, 9), np.linspace(0.1, 0.4, 8))
        one_by_one = sum(l1_to_invariant(StepDensity(p.edges[i:i + 2], p.values[i:i + 1]))
                         - invariant_cdf(p.edges[i]) - (1.0 - invariant_cdf(p.edges[i + 1]))
                         for i in range(8))
        assert abs(l1_to_invariant(p) - one_by_one) < 1e-10

    def test_domain_mismatch(self):
        p = StepDensity(np.array([-3.0, 0.0]), np.array([1.0]))
        with pytest.raises(DomainError):
            l1_to_invariant(p)

    def test_smooth_density_refused(self):
        p = StepDensity(np.array([-1.0, 1.0]), np.array([0.5]))
        with pytest.raises(TypeError, match="l1_to_invariant"):
            l1_distance(p, functools.partial(invariant_density, "discriminant_D"))

    @pytest.mark.parametrize("edges, values", [
        # v at D's minimum 1/(2 pi), and just above it, on a cell across 0
        ([-1.0, 1.0], [0.5 / math.pi]),
        ([-1.0, 1.0], [np.nextafter(0.5 / math.pi, 1.0)]),
        ([-1.0, 0.0, 1.0], [0.5 / math.pi * (1.0 + 1e-9), 0.5 / math.pi * (1.0 + 1e-6)]),
        # cells holding both crossings, and one holding a single crossing
        ([-1.9, 1.9], [0.2]),
        ([-2.0, 2.0], [0.9]),
        ([-2.0, -1.5, 1.99, 2.0], [0.3, 0.17, 1.5]),
        # edges within 1e-9 past +-2, where D is 0
        ([-2.0 - 9e-10, -1.0, 1.0, 2.0 + 5e-10], [0.4, 0.1, 0.6]),
        ([-2.0 - 1e-9, 2.0 + 1e-9], [-0.3]),
    ])
    def test_against_the_quadrature_oracle(self, edges, values):
        p = StepDensity(np.array(edges), np.array(values))
        assert abs(l1_to_invariant(p) - arcsine_l1_oracle(p)) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_random_signed_densities_against_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
        lo, hi = (-2.0 if seed % 2 else lo), (2.0 if seed % 3 == 0 else hi)
        edges = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, n - 1)]))
        p = StepDensity(edges, rng.uniform(-0.5, 1.0, n))
        assert abs(l1_to_invariant(p) - arcsine_l1_oracle(p)) < 1e-10


class TestVariation:
    def test_constant(self):
        assert variation(StepDensity(np.array([0.0, 1.0]), np.array([1.0]))) == 2.0

    def test_single_cell(self):
        assert variation(StepDensity(np.array([0.0, 2.0]), np.array([1.5]))) == 3.0

    def test_staircase(self):
        p = StepDensity(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 2.0, 1.0]))
        assert variation(p) == 4.0


def delta_grid(n):
    """The Delta edges of the n uniform kappa cells, increasing."""
    return -2.0 * np.cos(np.pi * np.arange(n + 1) / n)


def projected_in_delta(p, n):
    """p's cell masses on the kappa grid, as a step density in Delta."""
    return kappa_to_delta(delta_to_kappa(p, n))


def sine_mass(u, w):
    """Integral of (pi/2) sin(pi x) over [u, w], free of cancellation."""
    return np.sin(0.5 * np.pi * (u + w)) * np.sin(0.5 * np.pi * (w - u))


def l1_to_sine(values):
    """Exact L1 distance on [0, 1] from the step density with ``values`` on
    equal cells to q(x) = (pi/2) sin(pi x).  With an even cell count q is
    monotone on every cell, so it meets a cell's value v once, at x*, and
    |v - q| keeps one sign on each side of it."""
    n = values.size
    a = np.arange(n) / n
    b = np.arange(1, n + 1) / n
    base = np.arcsin(np.clip(2.0 * values / np.pi, 0.0, 1.0)) / np.pi
    xs = np.clip(np.where(b <= 0.5, base, 1.0 - base), a, b)
    left = values * (xs - a) - sine_mass(a, xs)
    right = sine_mass(xs, b) - values * (b - xs)
    return float(np.sum(np.abs(left) + np.abs(right)))


class TestCellMassProjection:
    """The step approximation of a density q is its cell masses from the CDF
    (delta_to_kappa, uniform_kappa_projection).  On cells of width at most h
    its L1 error is at most (h/2) V(q): a cell's mean lies within the cell's
    variation of every value there, and a single jump J at offset t costs
    exactly 2 t (h - t) J / h <= h J / 2.  Each oracle is computed here."""

    @pytest.mark.parametrize("cell, frac, jump", [
        (0, 0.3, 0.5), (31, 0.5, -0.15), (32, 0.5, 0.7), (40, 0.01, 1.2), (63, 0.77, -0.1),
    ])
    def test_one_jump_costs_its_exact_error(self, cell, frac, jump):
        n = 64
        edges = delta_grid(n)
        h = edges[cell + 1] - edges[cell]
        x0 = edges[cell] + frac * h
        t = x0 - edges[cell]
        p = StepDensity(np.array([-2.0, x0, 2.0]), np.array([0.2, 0.2 + jump]))
        err = l1_distance(projected_in_delta(p, n), p)
        assert abs(err - 2.0 * t * (h - t) * abs(jump) / h) < 1e-12
        assert err <= np.max(np.diff(edges)) / 2.0 * abs(jump) * (1.0 + 1e-12)

    def test_uniform_start_meets_the_closed_form(self):
        # the uniform density on [-2, 2] is (pi/2) sin(pi kappa) in kappa, of
        # variation pi (up from 0 to pi/2 and back), so the bound is pi/2^15
        n = 2**14
        exact_means = sine_mass(np.arange(n) / n, np.arange(1, n + 1) / n) * n
        oracle = l1_to_sine(exact_means)
        assert abs(oracle - 4.79e-5) < 5e-8
        for pk in (uniform_kappa_projection(n), delta_to_kappa(StepDensity.uniform(-2.0, 2.0), n)):
            # each cell mass is a difference of CDF values of size <= 1
            assert np.max(np.abs(pk.values - exact_means)) <= 2.0 * EPS * n
            err = l1_to_sine(pk.values)
            assert abs(err - oracle) < 1e-12
            assert err <= math.pi / 2**15

    @pytest.mark.parametrize("seed", range(3))
    def test_oscillating_density_within_the_bound(self, seed):
        rng = np.random.default_rng(seed)
        n, cells = 128, 3000
        p_edges = np.concatenate([[-2.0], np.sort(rng.uniform(-2.0, 2.0, cells - 1)), [2.0]])
        p_values = np.where(np.arange(cells) % 2, 0.05, 0.45) + rng.uniform(0.0, 0.1, cells)
        p = StepDensity(p_edges, p_values)
        # each grid cell's pieces of p: their values, lengths and grid cell
        edges = delta_grid(n)
        cuts = np.union1d(edges, p_edges)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        values = p_values[np.searchsorted(p_edges, mids) - 1]
        lengths = np.diff(cuts)
        owner = np.searchsorted(edges, mids) - 1
        means = np.bincount(owner, values * lengths) / np.diff(edges)
        exact = float(np.sum(np.abs(values - means[owner]) * lengths))
        err = l1_distance(projected_in_delta(p, n), p)
        assert abs(err - exact) < 1e-12
        assert err <= np.max(np.diff(edges)) / 2.0 * np.sum(np.abs(np.diff(p_values)))


class TestInvariantDensities:
    def test_values(self):
        assert abs(invariant_density("logistic_q", 0.5) - 2.0 / math.pi) < 1e-15
        assert abs(invariant_density("discriminant_D", 0.0) - 1.0 / (2 * math.pi)) < 1e-15

    def test_change_of_variables(self):
        # q(x) dx = D(delta) ddelta under delta = 2 - 4x
        delta = 1.0
        x = (2.0 - delta) / 4.0
        lhs = invariant_density("logistic_q", x) * 0.25
        rhs = invariant_density("discriminant_D", delta)
        assert abs(lhs - rhs) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            invariant_density("logistic_q", 0.0)
        with pytest.raises(DomainError):
            invariant_density("discriminant_D", 2.0)

    def test_cdf_quantile(self):
        assert invariant_cdf(0.0) == 0.5
        assert invariant_cdf(2.0) == 1.0
        assert invariant_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert abs(invariant_quantile(1.0 / 3.0) - (-1.0)) < 1e-15
        for u in np.linspace(0.0, 1.0, 101):
            assert abs(invariant_cdf(invariant_quantile(float(u))) - u) < 1e-12

    def test_quantile_of_array(self):
        u = (np.arange(7) + 0.5) / 7
        got = invariant_quantile(u)
        assert isinstance(got, np.ndarray) and got.shape == u.shape
        assert np.array_equal(got, -2.0 * np.cos(math.pi * u))
        assert np.allclose(got, [invariant_quantile(float(v)) for v in u], rtol=0, atol=1e-15)
        assert isinstance(invariant_quantile(0.25), float)
        assert invariant_quantile(np.empty(0)).shape == (0,)
        for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
            with pytest.raises(DomainError):
                invariant_quantile(np.array(bad))

    def test_cdf_of_array(self):
        x = np.array([[-2.0, -1.3, 0.0], [0.4, 1.999, 2.0]])
        got = invariant_cdf(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert np.array_equal(got, [[invariant_cdf(float(v)) for v in row] for row in x])
        assert np.allclose(got, 0.5 + np.vectorize(math.asin)(x / 2.0) / math.pi,
                           rtol=0, atol=1e-15)
        assert isinstance(invariant_cdf(np.float64(0.5)), float)
        assert invariant_cdf(np.empty(0)).shape == (0,)
        for bad in ([0.5, 2.5], [-2.0 - 1e-15, 0.5], [0.5, np.nan], 3.0):
            with pytest.raises(DomainError):
                invariant_cdf(np.array(bad))

    @pytest.mark.parametrize("kind, lo, hi", [("logistic_q", 0.0, 1.0),
                                              ("discriminant_D", -2.0, 2.0)])
    def test_array_equals_the_scalar_loop(self, kind, lo, hi):
        x = np.concatenate([np.random.default_rng(3).uniform(lo, hi, 200),
                            np.nextafter([lo, hi], [hi, lo])]).reshape(2, -1)
        got = invariant_density(kind, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert np.array_equal(got, [[invariant_density(kind, float(v)) for v in row] for row in x])
        # and the formula in scalar arithmetic (sqrt is correctly rounded in both)
        inner = (lambda v: v * (1.0 - v)) if kind == "logistic_q" else (lambda v: 4.0 - v * v)
        assert np.array_equal(got, [[1.0 / (math.pi * math.sqrt(inner(float(v)))) for v in row]
                                    for row in x])
        assert isinstance(invariant_density(kind, np.float64(0.5)), float)
        assert invariant_density(kind, np.empty(0)).shape == (0,)
        for bad in ([0.5 * (lo + hi), hi], [lo, 0.5 * (lo + hi)], [0.5, np.nan]):
            with pytest.raises(DomainError):
                invariant_density(kind, np.array(bad))

    def test_q_density_normalised(self):
        # the halves x = t^2 and x = 1 - t^2, t in [t0, sqrt(1/2)], have no
        # 1/sqrt end (dx = 2t dt); t < t0, where x rounds onto the end, holds
        # (2/pi) asin(t0) of each
        t0 = 2.0**-10
        q = functools.partial(invariant_density, "logistic_q")
        halves = quad_singular(lambda t, end, sign: q(end + sign * t * t) * 2.0 * t,
                               t0, math.sqrt(0.5), args=([0.0, 1.0], [1.0, -1.0]))[0]
        assert abs(halves.sum() + 4.0 / math.pi * math.asin(t0) - 1.0) < 1e-9


def discriminant_D(delta):
    return invariant_density("discriminant_D", delta)


class TestDiscriminantDensity:
    def test_values(self):
        assert abs(discriminant_D(0.0) - 1.0 / (2 * math.pi)) < 1e-15
        assert abs(discriminant_D(math.sqrt(3.0)) - 1.0 / math.pi) < 1e-14

    def test_domain_error(self):
        for bad in (-2.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                discriminant_D(bad)

    def test_normalisation(self):
        # the halves x = +-(2 - t^2), t in [t0, sqrt 2], have no 1/sqrt end
        # (dx = 2t dt); t < t0, where x rounds onto the end, holds
        # (2/pi) asin(t0/2) of each
        t0 = 2.0**-10
        halves = quad_singular(lambda t, sign: discriminant_D(sign * (2.0 - t * t)) * 2.0 * t,
                               t0, math.sqrt(2.0), args=([1.0, -1.0],))[0]
        assert abs(halves.sum() + 4.0 / math.pi * math.asin(t0 / 2.0) - 1.0) < 1e-10


class TestPreimages:
    def test_two_branches(self):
        got = preimage_intervals(2, 1, (Fraction(0), Fraction(1, 2)))
        assert got == [(Fraction(0), Fraction(1, 4)), (Fraction(3, 4), Fraction(1))]

    def test_full_interval(self):
        assert preimage_intervals(2, 1, (Fraction(0), Fraction(1))) == [
            (Fraction(0), Fraction(1))
        ]

    def test_three_branches_merge(self):
        got = preimage_intervals(3, 1, (Fraction(0), Fraction(1, 3)))
        assert got == [
            (Fraction(0), Fraction(1, 9)),
            (Fraction(5, 9), Fraction(7, 9)),
        ]

    def test_measure_preserved(self):
        total = sum(
            hi - lo for lo, hi in preimage_intervals(3, 4, (Fraction(1, 5), Fraction(2, 5)))
        )
        assert total == Fraction(1, 5)

    def test_count_bound(self):
        assert len(preimage_intervals(2, 5, (Fraction(1, 3), Fraction(2, 3)))) <= 2**5

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_membership_matches_the_iterated_map(self, m):
        # x lies in the preimage iff a <= g^n(x) <= b, g iterated on Fractions;
        # interval ends and points just beside them probe the boundaries
        tent = MapDescriptor.tent(m)
        rng = np.random.default_rng(m)
        eps = Fraction(1, 10**9)
        for n in range(5):
            for _ in range(4):
                den = int(rng.integers(1, 13))
                a, b = sorted(Fraction(int(i), den) for i in rng.integers(0, den + 1, 2))
                got = preimage_intervals(m, n, (a, b))
                assert all(lo <= hi for lo, hi in got)
                assert all(hi < nxt for (_, hi), (nxt, _) in zip(got, got[1:]))
                assert sum(hi - lo for lo, hi in got) == b - a
                xs = [Fraction(int(i), 10**6) for i in rng.integers(0, 10**6 + 1, 50)]
                ends = [x for iv in got[:: max(1, len(got) // 32)] for x in iv]
                xs += [x + d for x in ends for d in (-eps, 0, eps) if 0 <= x + d <= 1]
                for x in xs:
                    y = x
                    for _ in range(n):
                        y = eval_map(tent, y)
                    i = bisect.bisect_right(got, (x, 2)) - 1  # last interval with lo <= x
                    assert (i >= 0 and x <= got[i][1]) == (a <= y <= b)


def _mixing_interval(draw, den):
    i, j = sorted(draw(st.integers(0, den)) for _ in range(2))
    return Fraction(i, den), Fraction(j, den)


@st.composite
def mixing_cases(draw, max_branches=None, max_n=60):
    """(m, n, A, B) with rational intervals; A may be [0, 1] or a point, and B
    may lie on the 1/m^n grid."""
    m = draw(st.integers(1, 6))
    n_max = max_n
    if max_branches is not None and m > 1:
        n_max = max(n for n in range(max_n + 1) if m**n <= max_branches)
    n = draw(st.integers(0, n_max))
    if draw(st.booleans()):
        A = (Fraction(0), Fraction(1))
    else:
        A = _mixing_interval(draw, draw(st.integers(1, 40)))
    den = draw(st.one_of(st.integers(1, 40), st.just(m**n)))
    return m, n, A, _mixing_interval(draw, den)


def _interval_sum_correlation(m, n, A, B):
    inter = sum(
        max(min(hi, B[1]) - max(lo, B[0]), 0) for lo, hi in preimage_intervals(m, n, A)
    )
    return inter - (A[1] - A[0]) * (B[1] - B[0])


class TestMixing:
    def test_hand_case(self):
        got = mixing_correlation(2, 1, (Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1, 2)))
        assert got == 0

    def test_full_measure_set(self):
        for n in (1, 3):
            got = mixing_correlation(2, n, (Fraction(0), Fraction(1)), (Fraction(1, 8), Fraction(5, 8)))
            assert got == 0

    def test_madic_sets_decorrelate_exactly(self):
        rng = np.random.default_rng(13)
        for m in (2, 3, 5):
            for i in (1, 2, 3, 4):
                denom = m**i
                a1, b1 = sorted(rng.choice(denom + 1, size=2, replace=False))
                a2, b2 = sorted(rng.choice(denom + 1, size=2, replace=False))
                A = (Fraction(int(a1), denom), Fraction(int(b1), denom))
                B = (Fraction(int(a2), denom), Fraction(int(b2), denom))
                for n in (i, i + 1, i + 2):
                    assert mixing_correlation(m, n, A, B) == 0

    def test_correlation_nonzero_before_resolution(self):
        # at n < i the digit windows overlap, so correlations need not vanish
        A = (Fraction(0), Fraction(1, 8))
        got = mixing_correlation(2, 1, A, A)
        assert got != 0

    @settings(max_examples=150, deadline=None)
    @given(mixing_cases(max_branches=4096, max_n=12))
    def test_equals_the_interval_sum(self, case):
        m, n, A, B = case
        got = mixing_correlation(m, n, A, B)
        assert isinstance(got, Fraction)
        assert got == _interval_sum_correlation(m, n, A, B)

    @settings(max_examples=300, deadline=None)
    @given(mixing_cases())
    def test_rate_bound(self, case):
        m, n, A, B = case
        assert abs(mixing_correlation(m, n, A, B)) <= 2 * (A[1] - A[0]) / m**n

    @settings(max_examples=200, deadline=None)
    @given(mixing_cases())
    def test_float_inputs(self, case):
        # rounding the four ends moves the correlation by at most 2 |delta|
        # each, 8 * 1.1e-16 in all
        m, n, A, B = case
        got = mixing_correlation(m, n, tuple(map(float, A)), tuple(map(float, B)))
        assert isinstance(got, float)
        assert abs(got - mixing_correlation(m, n, A, B)) <= 1e-15

    def test_grid_ends_decorrelate(self):
        M = 3**5
        for i, j in ((0, M), (7, 100), (42, 42)):
            B = (Fraction(i, M), Fraction(j, M))
            assert mixing_correlation(3, 5, (Fraction(1, 7), Fraction(5, 7)), B) == 0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            mixing_correlation(0, 1, (0, 1), (0, 1))
        with pytest.raises(DomainError):
            mixing_correlation(2, 1, (Fraction(1, 2), Fraction(1, 3)), (0, 1))

    @pytest.mark.parametrize("n, B", [
        (1, (Fraction(1, 2), Fraction(1, 4))),  # reversed: gave 1/16
        (3, (-1, 3)),  # past [0, 1]: gave -3/4, beyond 2 |A| / m^n = 1/16
        (2, (Fraction(1, 2), Fraction(5, 4))),
    ], ids=["reversed", "wider-than-the-unit-interval", "past-one"])
    def test_b_outside_the_unit_interval_refused(self, n, B):
        with pytest.raises(DomainError):
            mixing_correlation(2, n, (0, Fraction(1, 4)), B)
