import math

import numpy as np
import pytest

from scipy.special import mathieu_a, mathieu_b

from hillmap.errors import DomainError
from hillmap.hill import (
    Monodromy,
    Potential,
    band_function,
    discriminant,
    discriminant_density,
    eigenvalue_class,
    free_discriminant,
    monodromy,
    monodromy_power,
    spectrum_bands,
    _EDGE_TOL,
    _level_roots,
    _refine_tol,
    _traces,
)
from hillmap.numerics import IVP_TOL, ToleranceSpec, find_root, quad_singular

FREE = Potential.free()
COS = Potential.cosine()  # cos(2 pi x), period 1

# High-precision Taylor-series reference (30 digits) for the trace of the
# cos(2 pi x) unit cell at lam = 0, frozen as a regression constant.
MATHIEU_TRACE_AT_ZERO = 1.9873355219206326


def potential_zoo():
    return [
        FREE,
        Potential.constant(1.5),
        COS,
        Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5]),
        Potential.tabulated(list(np.cos(2 * np.pi * np.arange(16) / 16))),
    ]


class TestPotential:
    def test_periodicity_on_samples(self):
        xs = np.linspace(0.0, 1.0, 37)
        for V in potential_zoo():
            assert np.allclose(V(xs), V(xs + V.period), atol=1e-12)
            assert np.allclose(V(xs), V(xs + 3 * V.period), atol=1e-12)

    def test_piecewise_linear_validation(self):
        with pytest.raises(ValueError):
            Potential.piecewise_linear([0.0, 0.5, 0.5], [1, 2, 3])

    def test_cosine_must_fit_period(self):
        with pytest.raises(ValueError):
            Potential.cosine(frequency=3.0)

    def test_breakpoints_tile(self):
        V = Potential.piecewise_linear([0.0, 0.25], [1.0, -1.0])
        pts = V.breakpoints_in(0.0, 2.0)
        assert pts == [0.25, 1.0, 1.25]


    def test_interpolation_table_is_not_a_field(self):
        import dataclasses

        a = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        b = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        assert [f.name for f in dataclasses.fields(a)] == ["period", "kind", "params"]
        assert a == b and hash(a) == hash(b)
        # nodes and values close the period: V(bp[0] + period) = V(bp[0])
        assert a(1.0) == a(0.0) == 0.0
        assert a(0.5) == pytest.approx(0.25)


class TestMonodromy:
    def test_free_at_pi_squared(self):
        M = monodromy(FREE, 1.0, math.pi**2)
        assert np.allclose(M.entries, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-8)

    def test_free_at_half_pi_squared(self):
        lam = (math.pi / 2) ** 2
        M = monodromy(FREE, 1.0, lam)
        expected = [[0.0, 2.0 / math.pi], [-math.pi / 2.0, 0.0]]
        assert np.allclose(M.entries, expected, atol=1e-8)

    def test_cosine_cell_matches_reference(self):
        M = monodromy(COS, 1.0, 0.0, ToleranceSpec(1e-12, 1e-12, 10**6))
        assert abs(M.det - 1.0) < 1e-8
        assert abs(M.trace - MATHIEU_TRACE_AT_ZERO) < 1e-9

    def test_determinant_across_kinds_lengths_and_lambdas(self):
        rng = np.random.default_rng(42)
        lams = rng.uniform(-20.0, 100.0, 12)
        for V in potential_zoo():
            for l in (1.0, 2.0, 4.0):
                for lam in lams:
                    M = monodromy(V, l, float(lam))
                    scale = np.max(np.abs(M.entries))
                    if scale < 1e3:
                        assert abs(M.det - 1.0) < 1e-8
                    else:
                        # below the spectrum the entries grow like cosh(l
                        # sqrt(-lam)) and ad - bc cannot be formed to 1e-8 in
                        # double precision; check against the conditioning.
                        assert abs(M.det - 1.0) < 64 * np.finfo(float).eps * scale**2

    def test_cocycle_products(self):
        for V in (COS, Potential.piecewise_linear([0.0, 0.4], [0.5, -0.25])):
            lam = 3.7
            M1 = monodromy(V, 1.0, lam)
            M2 = monodromy(V, 2.0, lam)
            M3 = monodromy(V, 3.0, lam)
            assert np.allclose(M3.entries, M2.entries @ M1.entries, atol=1e-7)
            assert np.allclose(M2.entries, M1.entries @ M1.entries, atol=1e-7)

    def test_tabulated_cosine_tracks_analytic(self):
        # a 256-sample table of the cosine cell reproduces its traces to the
        # linear-interpolation error of the potential
        tab = Potential.tabulated(list(np.cos(2 * np.pi * np.arange(256) / 256)))
        for lam in (-0.5, 0.0, 3.0, 11.0):
            gap = monodromy(tab, 1.0, lam).trace - monodromy(COS, 1.0, lam).trace
            assert abs(gap) < 5e-4

    def test_invalid_cell_length(self):
        with pytest.raises(ValueError):
            monodromy(COS, 1.5, 0.0)

    def test_bad_determinant_rejected(self):
        with pytest.raises(ValueError):
            Monodromy(np.array([[2.0, 0.0], [0.0, 1.0]]), 1.0, 0.0)


class TestMonodromyPower:
    def test_identity(self):
        M = Monodromy(np.eye(2), 1.0, 0.0)
        for m in (1, 2, 7):
            assert np.array_equal(monodromy_power(M, m).entries, np.eye(2))

    def test_power_one_is_unchanged(self):
        M = monodromy(COS, 1.0, 2.0)
        P = monodromy_power(M, 1)
        assert np.array_equal(P.entries, M.entries)
        assert P.cell_length == M.cell_length

    def test_rotation_fifth_power(self):
        # trace 2 cos(pi/5) and det 1; the 5th power must have trace 2 cos(pi) = -2
        theta = math.pi / 5
        M = Monodromy(
            np.array([[math.cos(theta), math.sin(theta)],
                      [-math.sin(theta), math.cos(theta)]]),
            1.0,
            0.0,
        )
        naive = np.eye(2)
        for _ in range(5):
            naive = naive @ M.entries
        P = monodromy_power(M, 5)
        assert abs(P.trace - (-2.0)) < 1e-9
        assert np.allclose(P.entries, naive, atol=1e-12)
        assert P.cell_length == 5.0

    def test_power_trace_matches_long_cell(self):
        for n in range(1, 7):
            lam = 2.3
            M1 = monodromy(COS, 1.0, lam)
            long = monodromy(COS, float(2**n), lam)
            powered = monodromy_power(M1, 2**n)
            assert abs(powered.trace - long.trace) < 1e-6


class TestDiscriminant:
    def test_identity_trace(self):
        assert discriminant(Monodromy(np.eye(2), 1.0, 0.0)) == 2.0

    def test_free_closed_forms(self):
        lam = (math.pi / 2) ** 2
        assert abs(discriminant(monodromy(FREE, 2.0, lam)) - (-2.0)) < 1e-8
        lam = (math.pi / 3) ** 2
        assert abs(discriminant(monodromy(FREE, 1.0, lam)) - 1.0) < 1e-8

    def test_free_grid(self):
        lams = np.linspace(0.0, 100.0, 200)
        for l in (1.0, 2.0, 4.0):
            for lam in lams:
                got = discriminant(monodromy(FREE, l, float(lam)))
                assert abs(got - free_discriminant(l, float(lam))) < 1e-6


class TestEigenvalueClass:
    @pytest.mark.parametrize(
        "delta,expected",
        [(0.0, "elliptic"), (2.0, "parabolic"), (-2.0, "parabolic"),
         (3.0, "hyperbolic"), (1.999999999999, "elliptic")],
    )
    def test_cases(self, delta, expected):
        assert eigenvalue_class(delta) == expected


class TestTraces:
    """The batched kernel behind edge refinement holds every lam to ``tol``."""

    A = 7.8326  # the cosine cell whose scan tolerance misses most (1.6e-8)

    @pytest.fixture(scope="class")
    def grid(self):
        V = Potential.cosine(self.A)
        lams = np.linspace(-10.0, 300.0, 200)
        tight = ToleranceSpec(1e-13, 1e-13, 1_000_000)
        ref = np.array([monodromy(V, 1.0, lam, tight).trace for lam in lams])
        return V, lams, ref

    def test_per_lambda_bound(self, grid):
        V, lams, ref = grid
        # measured 4.6e-12; without the sqrt(components) scaling of the
        # tolerances the same grid misses by 7.2e-11, and the scan kernel
        # _disc_batch, bounded only in RMS over the stack, by 1.4e-10
        tol = ToleranceSpec(1e-11, 1e-11, 1_000_000)
        assert np.max(np.abs(_traces(V, 1.0, lams, tol) - ref)) <= 2e-11
        delta, _ = _traces(V, 1.0, lams, tol, derivative=True)
        assert np.max(np.abs(delta - ref)) <= 2e-11

    def test_derivative_matches_central_difference(self):
        V = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        lams = np.array([-0.5, 3.0, 17.0, 60.0])
        tight = ToleranceSpec(1e-12, 1e-12, 1_000_000)
        _, dd = _traces(V, 1.0, lams, tight, derivative=True)
        h = 1e-5
        fd = _traces(V, 1.0, lams + h, tight) - _traces(V, 1.0, lams - h, tight)
        fd /= 2 * h
        assert np.max(np.abs(dd - fd)) < 1e-7

    def test_touch_bracket_takes_find_root(self):
        # Delta = 2 cos(sqrt(lam)) grazes +2 at 4 pi^2 without crossing: that
        # bracket goes to find_root over monodromy, its even-root branch
        # included; the crossing of 0 beside it is solved in the batch
        refine = _refine_tol(IVP_TOL)
        roots = _level_roots(FREE, 1.0, [38.0, 1.0], [41.0, 4.0], [2.0, 0.0], refine)
        touch = find_root(
            lambda lam: monodromy(FREE, 1.0, lam, refine).trace - 2.0,
            38.0, 41.0, _EDGE_TOL,
        )
        assert roots[0] == touch
        assert abs(touch - 4.0 * math.pi**2) < 1e-7
        assert abs(roots[1] - math.pi**2 / 4.0) < 1e-10

    def test_empty(self):
        tol = ToleranceSpec(1e-11, 1e-11, 1_000_000)
        assert _traces(FREE, 1.0, [], tol).shape == (0,)
        delta, ddelta = _traces(FREE, 1.0, [], tol, derivative=True)
        assert delta.shape == ddelta.shape == (0,)

    def test_shape_and_order_preserved(self):
        lams = np.array([[9.0, -1.0], [4.0, 30.0]])
        out = _traces(FREE, 1.0, lams, ToleranceSpec(1e-11, 1e-11, 1_000_000))
        assert out.shape == (2, 2)
        expected = np.vectorize(lambda lam: free_discriminant(1.0, lam))(lams)
        assert np.max(np.abs(out - expected)) < 1e-9


def mathieu_edges(amplitude: float) -> np.ndarray:
    """Band edges of the cosine cell from scipy's Mathieu characteristic
    values: lam = pi^2 a with q = A / (2 pi^2), ordered a0 < b1 < a1 < b2 ..."""
    q = amplitude / (2.0 * math.pi**2)
    vals = [mathieu_a(0, q)]
    for r in range(1, 12):
        vals += [mathieu_b(r, q), mathieu_a(r, q)]
    return math.pi**2 * np.array(vals)


class TestMathieuOracle:
    @pytest.mark.parametrize("amplitude", [1.0, 7.8326])
    def test_edges_beside_wide_gaps(self, amplitude):
        lambda_max = 200.0
        ref = mathieu_edges(amplitude)
        got = np.array(spectrum_bands(Potential.cosine(amplitude), 1.0, lambda_max).bands)
        got = got.ravel()
        checked = 0
        for j, edge in enumerate(ref):
            if edge > lambda_max - 1.0:
                break
            # ref[2i+1], ref[2i+2] bound gap i+1; ref[0] borders the spectrum floor
            lo = j if j % 2 == 1 else j - 1
            if j > 0 and ref[lo + 1] - ref[lo] <= 0.5:
                continue
            assert np.min(np.abs(got - edge)) <= 1e-9, (amplitude, edge)
            checked += 1
        assert checked >= 3


class TestSpectrumBands:
    def test_free_bands_touch_at_squares(self):
        blist = spectrum_bands(FREE, 1.0, 45.0)
        edges = [e for band in blist.bands for e in band]
        expected = [0.0, math.pi**2, math.pi**2, 4 * math.pi**2, 4 * math.pi**2, 45.0]
        assert len(edges) == len(expected)
        for got, want in zip(edges, expected):
            assert abs(got - want) < 1e-6

    def test_constant_shift(self):
        a = 2.5
        shifted = spectrum_bands(Potential.constant(a), 1.0, 45.0 + a)
        base = spectrum_bands(FREE, 1.0, 45.0)
        for (ga, gb), (ba, bb) in zip(shifted.bands, base.bands):
            assert abs(ga - (ba + a)) < 1e-6
            assert abs(gb - (bb + a)) < 1e-6

    def test_cosine_gap_opens(self):
        blist = spectrum_bands(COS, 1.0, 45.0)
        assert len(blist.bands) >= 3
        # first gap: twice the half-amplitude Fourier weight, so ~1; the floor
        # sits at the second-order shift -1/(8 pi^2) below the potential mean
        gap1 = blist.bands[1][0] - blist.bands[0][1]
        assert 0.9 < gap1 < 1.1
        assert abs(blist.bands[0][0] - (-1.0 / (8.0 * math.pi**2))) < 1e-4
        # second band is wide and ends just short of 4 pi^2
        assert blist.bands[1][1] - blist.bands[1][0] > 20.0
        gap2 = blist.bands[2][0] - blist.bands[1][1]
        assert 0.0 < gap2 < 0.1  # second-order in the amplitude, grid-rescued

    def test_single_band_without_turning_points(self):
        blist = spectrum_bands(FREE, 1.0, 5.0)
        assert len(blist.bands) == 1
        assert blist.bands[0][0] == pytest.approx(0.0, abs=1e-9)
        assert blist.bands[0][1] == 5.0

    def test_band_ordering_invariant(self):
        for V in (FREE, COS):
            blist = spectrum_bands(V, 1.0, 60.0)
            flat = [e for band in blist.bands for e in band]
            assert all(x <= y for x, y in zip(flat, flat[1:]))

    def test_band_interiors_are_spectrum(self):
        # |Delta| <= 2 at interior samples of every reported band, and > 2
        # strictly inside the first gap
        blist = spectrum_bands(COS, 1.0, 45.0)
        for a, b in blist.bands:
            for t in (0.2, 0.5, 0.8):
                lam = a + t * (b - a)
                assert abs(monodromy(COS, 1.0, lam).trace) <= 2.0 + 1e-9
        gap_mid = 0.5 * (blist.bands[0][1] + blist.bands[1][0])
        assert abs(monodromy(COS, 1.0, gap_mid).trace) > 2.0

    def test_json_roundtrip(self):
        import json

        blist = spectrum_bands(FREE, 1.0, 12.0)
        data = json.loads(blist.to_json())
        assert data["bands"][0][0] == pytest.approx(0.0, abs=1e-8)


class TestBandFunction:
    def test_free_band_one_k_zero(self):
        assert abs(band_function(FREE, 1.0, 1, 0.0)) < 1e-8

    def test_free_band_one_k_pi(self):
        lam = band_function(FREE, 1.0, 1, math.pi)
        assert abs(lam - math.pi**2) < 1e-6

    def test_free_l2_band_one(self):
        lam = band_function(FREE, 2.0, 1, math.pi / 2)
        assert abs(lam - (math.pi / 2) ** 2) < 1e-6

    def test_free_interior_matches_parabola(self):
        for k in (0.4, 1.1, 2.2):
            lam = band_function(FREE, 1.0, 1, k)
            assert abs(lam - k * k) < 1e-6
        # second band folds back: lam = (2 pi - k)^2
        lam = band_function(FREE, 1.0, 2, 1.0)
        assert abs(lam - (2 * math.pi - 1.0) ** 2) < 1e-5

    def test_bad_k_rejected(self):
        with pytest.raises(DomainError):
            band_function(FREE, 1.0, 1, 4.0)

    @pytest.mark.parametrize(
        "V",
        [
            FREE,
            Potential.cosine(7.8326),
            Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5]),
        ],
        ids=["free", "cosine", "piecewise"],
    )
    @pytest.mark.parametrize("band", [1, 2])
    def test_array_matches_scalar_loop(self, V, band):
        ks = np.linspace(0.0, math.pi, 7)
        lams = band_function(V, 1.0, band, ks)
        assert isinstance(lams, np.ndarray) and lams.shape == ks.shape
        loop = np.array([band_function(V, 1.0, band, float(k)) for k in ks])
        assert np.max(np.abs(lams - loop)) <= 1e-9
        # the zone ends are the band edges themselves
        a, b = sorted((lams[0], lams[-1]))
        assert np.all((a <= lams) & (lams <= b))

    def test_array_with_bad_k_rejected(self):
        with pytest.raises(DomainError):
            band_function(FREE, 1.0, 1, np.array([0.5, 4.0]))


class TestDiscriminantDensity:
    def test_values(self):
        assert abs(discriminant_density(0.0) - 1.0 / (2 * math.pi)) < 1e-15
        assert abs(discriminant_density(math.sqrt(3.0)) - 1.0 / math.pi) < 1e-14

    def test_domain_error(self):
        for bad in (-2.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                discriminant_density(bad)

    def test_normalisation(self):
        val = quad_singular(
            discriminant_density, -2.0, 2.0, singular_points=[-2.0, 2.0]
        )
        assert abs(val - 1.0) < 1e-10
