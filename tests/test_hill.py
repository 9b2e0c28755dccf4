import math

import numpy as np
import pytest

from scipy.special import mathieu_a, mathieu_b

from hillmap.errors import DomainError
from hillmap.hill import (
    Monodromy,
    Potential,
    band_function,
    discriminant_density,
    eigenvalue_class,
    free_discriminant,
    monodromy,
    monodromy_power,
    spectrum_bands,
    transfer_matrices,
    _traces,
)
from hillmap.numerics import ToleranceSpec, integrate_ivp, quad_singular
from hillmap.transfer import invariant_density

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
        # the linear pieces (v0, slope, length) of one period from x = 0
        V = Potential.piecewise_linear([0.0, 0.25], [1.0, -1.0])
        assert V._pieces == ((1.0, -8.0, 0.25), (-1.0, 8.0 / 3.0, 0.75))
        # breakpoints off 0 wrap: the piece through x = 0 is split there
        W = Potential.piecewise_linear([0.5, 1.25], [1.0, -1.0])
        assert [p[2] for p in W._pieces] == pytest.approx([0.25, 0.25, 0.5])
        assert [p[0] for p in W._pieces] == pytest.approx([W(0.0), -1.0, 1.0])
        assert W(0.0) == pytest.approx(-1.0 / 3.0)

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
        M = monodromy(COS, 1.0, 0.0)
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
        for V in (COS, Potential.tabulated([0.0, 1.0])):
            with pytest.raises(ValueError):
                monodromy(V, 1.5, 0.0)

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
        assert Monodromy(np.eye(2), 1.0, 0.0).trace == 2.0

    def test_free_closed_forms(self):
        lam = (math.pi / 2) ** 2
        assert abs(monodromy(FREE, 2.0, lam).trace - (-2.0)) < 1e-8
        lam = (math.pi / 3) ** 2
        assert abs(monodromy(FREE, 1.0, lam).trace - 1.0) < 1e-8

    def test_free_grid(self):
        lams = np.linspace(0.0, 100.0, 200)
        for l in (1.0, 2.0, 4.0):
            for lam in lams:
                got = monodromy(FREE, l, float(lam)).trace
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
    """The exact discriminant and its derivative behind the band scan."""

    def test_derivative_matches_central_difference(self):
        V = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        lams = np.array([-0.5, 3.0, 17.0, 60.0])
        _, dd = _traces(V, 1.0, lams, derivative=True)
        h = 1e-5
        fd = (_traces(V, 1.0, lams + h) - _traces(V, 1.0, lams - h)) / (2 * h)
        assert np.max(np.abs(dd - fd)) < 1e-7

    def test_empty(self):
        assert _traces(FREE, 1.0, []).shape == (0,)
        delta, ddelta = _traces(FREE, 1.0, [], derivative=True)
        assert delta.shape == ddelta.shape == (0,)

    def test_shape_and_order_preserved(self):
        lams = np.array([[9.0, -1.0], [4.0, 30.0]])
        out = _traces(FREE, 1.0, lams)
        assert out.shape == (2, 2)
        expected = np.vectorize(lambda lam: free_discriminant(1.0, lam))(lams)
        assert np.max(np.abs(out - expected)) < 1e-9


def ode_matrix(V, knots, l, lam):
    """Transfer matrix by one tight DOP853 solve, restarted at the knots of V:
    a reference independent of the closed forms."""

    def rhs(t, y):
        w = V(t) - lam
        return np.array([y[1], w * y[0], y[3], w * y[2]])

    cuts = [k + j for j in range(int(round(l))) for k in knots]
    tight = ToleranceSpec(1e-14, 1e-14, 1_000_000)
    y = integrate_ivp(rhs, [1.0, 0.0, 0.0, 1.0], 0.0, l, tight, cuts)
    return np.array([[y[0], y[2]], [y[1], y[3]]])


SLOPES = [0.0, 1e-12, 1e-8, 1e-4, 1e-2, 1.0, 60.0]


def sloped_cells(slope):
    """(potential, knots) of every piecewise-linear kind with pieces of slope
    ``slope`` (and 4/3 ``slope`` and 0 for piecewise_linear)."""
    return [
        (Potential.piecewise_linear([0.0, 0.3, 0.7], [1.0, 1.0 + 0.4 * slope, 1.0]),
         [0.3, 0.7]),
        (Potential.tabulated([-0.5, -0.5 + 0.5 * slope]), [0.5]),
    ]


class TestTransferMatrices:
    """The closed forms of piecewise-linear cells against a tight ODE solve."""

    @pytest.mark.parametrize("slope", SLOPES)
    @pytest.mark.parametrize("l", [1.0, 2.0])
    def test_entries_match_ode(self, slope, l):
        cells = sloped_cells(slope) + [(Potential.constant(slope - 0.5), [])]
        for V, knots in cells:
            floor = V.min_value()
            # from deep below the spectrum to high up, plus lam at a node
            # value (a turning point on a knot)
            lams = np.array([floor - 50.0, floor - 1.0, floor, 1.0, 20.0, 150.0, 400.0])
            got = transfer_matrices(V, l, lams)
            assert got.shape == (lams.size, 2, 2) and np.all(np.isfinite(got))
            for lam, M in zip(lams, got):
                ref = ode_matrix(V, knots, l, lam)
                scale = max(1.0, np.max(np.abs(ref)))
                # the bound is the reference's: on this grid the solve is off
                # by up to 4.3e-11 (slope 1e-4, l = 2), the closed forms by
                # 3e-15 against products of 50-digit Airy matrices
                assert np.max(np.abs(M - ref)) <= 2e-10 * scale, (V, lam)
                Monodromy(M, l, lam)  # the determinant contract holds

    @pytest.mark.parametrize("slope", SLOPES)
    def test_derivative_matches_central_difference(self, slope):
        for V, _ in sloped_cells(slope):
            lams = np.array([V.min_value() - 50.0, -0.5, 1.0, 7.3, 150.0, 400.0])
            for l in (1.0, 2.0):
                M, dM = transfer_matrices(V, l, lams, derivative=True)
                assert np.all(np.isfinite(dM))
                plain = transfer_matrices(V, l, lams)
                assert np.all(np.abs(M - plain) <= 1e-13 * np.maximum(1.0, np.abs(plain)))
                step = 1e-5 * np.maximum(1.0, np.abs(lams))[:, None, None]
                fd = transfer_matrices(V, l, lams + step[:, 0, 0])
                fd = (fd - transfer_matrices(V, l, lams - step[:, 0, 0])) / (2 * step)
                scale = np.maximum(1.0, np.max(np.abs(dM), axis=(1, 2)))[:, None, None]
                assert np.all(np.abs(dM - fd) <= 1e-6 * scale), (V, l)

    def test_short_nearly_flat_pieces(self):
        # slope c^3 on pieces of length 0.5, so |c| h reaches the Magnus
        # threshold 1.6e-2, with lam beside the potential: a fourth-order
        # Magnus step is off by 5.6e-11 here, the sixth-order one by 7e-14
        for c in (0.01, 0.02, 0.032):
            V = Potential.tabulated([0.0, 0.5 * c**3])
            for lam in (-0.012, -0.004, 0.0, 0.003, 0.01):
                M = transfer_matrices(V, 1.0, [lam])[0]
                assert np.max(np.abs(M - ode_matrix(V, [0.5], 1.0, lam))) < 1e-12

    def test_monodromy_takes_the_kernel(self):
        V = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        lams = np.array([[-3.0, 2.0], [40.0, 9.5]])
        got = transfer_matrices(V, 2.0, lams)
        assert got.shape == (2, 2, 2, 2)
        for idx in np.ndindex(lams.shape):
            assert np.array_equal(got[idx], monodromy(V, 2.0, lams[idx]).entries)

    def test_cosine_is_integrated(self):
        # only cosine cells take the ODE, one stacked solve for every lam
        lams = np.array([-1.0, 3.0, 30.0])
        M = transfer_matrices(COS, 1.0, lams)
        for lam, Mi in zip(lams, M):
            assert np.max(np.abs(Mi - monodromy(COS, 1.0, lam).entries)) < 1e-9
            assert np.max(np.abs(Mi - ode_matrix(COS, [], 1.0, lam))) < 1e-9

    def test_cosine_has_no_derivative(self):
        with pytest.raises(ValueError, match="constant, piecewise_linear, tabulated"):
            transfer_matrices(COS, 1.0, [0.0, 1.0], derivative=True)


def mathieu_edges(amplitude: float, lam_cap: float) -> np.ndarray:
    """Band edges of the cosine cell below lam_cap and the next one, from
    scipy's Mathieu characteristic values: lam = pi^2 a with
    q = A / (2 pi^2), ordered a0 < b1 < a1 < b2 ..."""
    q = amplitude / (2.0 * math.pi**2)
    vals = [mathieu_a(0, q)]
    for r in range(1, int(math.sqrt(lam_cap + amplitude) / math.pi) + 3):
        vals += [mathieu_b(r, q), mathieu_a(r, q)]
    vals = math.pi**2 * np.array(vals)
    return vals[: np.searchsorted(vals, lam_cap) + 1]


class TestMathieuOracle:
    @pytest.mark.parametrize("amplitude", [1.0, 7.8326, 20.0, 200.0])
    def test_every_edge_and_gap_matches_mathieu(self, amplitude):
        # the narrowest gaps, 4.5e-11 at lam ~ 279 and 4.0e-5 at lam ~ 88.8
        # for A = 1, lie where a threshold of 1e-7 on |Delta| - 2 merges them
        lambda_max = 300.0
        ref = mathieu_edges(amplitude, lambda_max)
        got = spectrum_bands(Potential.cosine(amplitude), 1.0, lambda_max).bands
        assert len(got) == (len(ref) + 1) // 2  # Mathieu's band count
        got = np.array(got).ravel()
        below = ref <= lambda_max
        assert np.max(np.abs(got[: below.sum()] - ref[below])) <= 1e-9
        # every gap stays open, however narrow
        assert np.all(np.diff(got)[1::2] > 0.0)


class TestSpectrumBands:
    def test_free_bands_touch_at_squares(self):
        blist = spectrum_bands(FREE, 1.0, 45.0)
        edges = [e for band in blist.bands for e in band]
        expected = [0.0, math.pi**2, math.pi**2, 4 * math.pi**2, 4 * math.pi**2, 45.0]
        assert len(edges) == len(expected)
        for got, want in zip(edges, expected):
            assert abs(got - want) < 1e-6

    def test_gap_narrower_than_touch_rule_of_exact_cell(self):
        # max |Delta| - 2 is ~4e-8 over this 1.27e-2-wide gap.  At its turning
        # point lam* = 246.0108, |M + I| = 9.5e-4 against the coexistence
        # bound 5.2e-11, so it is no touch; at the free cell's touches
        # (3 pi)^2, (4 pi)^2 the same norm is 1.3e-14 and 8.0e-12 against
        # 5.1e-11 (test_free_bands_touch_at_squares).
        knots = [0.38, 0.545, 0.727]
        V = Potential.piecewise_linear([0.0, *knots], [-3.365, 2.554, -2.01, 0.086])
        blist = spectrum_bands(V, 1.0, 273.742)
        assert blist.warnings == ()
        gaps = [(b, a) for (_, b), (a, _) in zip(blist.bands, blist.bands[1:])]
        inside = [(b, a) for b, a in gaps if 246.004 <= b < a <= 246.018]
        assert len(inside) == 1
        for edge in inside[0]:
            # |Delta| = 2 at both edges by an independent ODE solve
            assert abs(abs(np.trace(ode_matrix(V, knots, 1.0, edge))) - 2.0) <= 1e-8

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


def bands_of(V, l=1.0, lambda_max=45.0):
    return spectrum_bands(V, l, lambda_max)


class TestBandFunction:
    def test_free_band_one_k_zero(self):
        assert abs(band_function(FREE, 1.0, bands_of(FREE), 1, 0.0)) < 1e-8

    def test_free_band_one_k_pi(self):
        lam = band_function(FREE, 1.0, bands_of(FREE), 1, math.pi)
        assert abs(lam - math.pi**2) < 1e-6

    def test_free_l2_band_one(self):
        lam = band_function(FREE, 2.0, bands_of(FREE, 2.0), 1, math.pi / 2)
        assert abs(lam - (math.pi / 2) ** 2) < 1e-6

    def test_free_interior_matches_parabola(self):
        bands = bands_of(FREE)
        for k in (0.4, 1.1, 2.2):
            lam = band_function(FREE, 1.0, bands, 1, k)
            assert abs(lam - k * k) < 1e-6
        # second band folds back: lam = (2 pi - k)^2
        lam = band_function(FREE, 1.0, bands, 2, 1.0)
        assert abs(lam - (2 * math.pi - 1.0) ** 2) < 1e-5

    def test_bad_k_rejected(self):
        with pytest.raises(DomainError):
            band_function(FREE, 1.0, bands_of(FREE), 1, 4.0)

    def test_band_index_outside_the_list_rejected(self):
        bands = bands_of(FREE, lambda_max=5.0)  # one band
        for index in (0, 2):
            with pytest.raises(ValueError):
                band_function(FREE, 1.0, bands, index, 0.5)

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
        bands = bands_of(V)
        ks = np.linspace(0.0, math.pi, 7)
        lams = band_function(V, 1.0, bands, band, ks)
        assert isinstance(lams, np.ndarray) and lams.shape == ks.shape
        loop = np.array([band_function(V, 1.0, bands, band, float(k)) for k in ks])
        assert np.max(np.abs(lams - loop)) <= 1e-9
        # the zone ends are the band edges themselves
        a, b = bands.bands[band - 1]
        assert sorted((lams[0], lams[-1])) == pytest.approx([a, b], abs=1e-9)
        assert np.all((a <= lams) & (lams <= b))

    def test_array_with_bad_k_rejected(self):
        with pytest.raises(DomainError):
            band_function(FREE, 1.0, bands_of(FREE), 1, np.array([0.5, 4.0]))

    @pytest.mark.parametrize("l", [1.0, 2.0])
    @pytest.mark.parametrize("amplitude", [1.0, 7.8326])
    def test_cosine_dispersion_against_ode(self, amplitude, l):
        # lam(k) from the Fourier-Hill matrix meets Delta(lam) = 2 cos(l k)
        # on a tight ODE monodromy
        V = Potential.cosine(amplitude)
        bands = spectrum_bands(V, l, 60.0)
        ks = np.linspace(0.0, math.pi / l, 6)
        for band in range(1, len(bands.bands)):  # the last band is clipped
            a, b = bands.bands[band - 1]
            for k, lam in zip(ks, band_function(V, l, bands, band, ks)):
                assert a <= lam <= b
                delta = np.trace(ode_matrix(V, [], l, lam))
                assert abs(delta - 2.0 * math.cos(l * k)) <= 1e-8, (band, k)

    def test_cosine_two_cells_fold_the_same_spectrum(self):
        # over cells of two periods the bands split at new touches, but
        # their union is the spectrum of the one-period cell
        V = Potential.cosine(7.8326)

        def union(bands):
            merged = [list(bands[0])]
            for a, b in bands[1:]:
                if a - merged[-1][1] <= 1e-9:
                    merged[-1][1] = b
                else:
                    merged.append([a, b])
            return np.array(merged)

        # lambda_max in the gap [88.914, 88.933]: no band is clipped
        one = spectrum_bands(V, 1.0, 88.92).bands
        two = spectrum_bands(V, 2.0, 88.92).bands
        assert len(one) == 3 and len(two) == 6
        # the new touches are doubled eigenvalues, equal to the last bit
        assert all(two[i][1] == two[i + 1][0] for i in (0, 2, 4))
        assert np.max(np.abs(union(two) - np.array(one))) <= 1e-9


class TestDiscriminantDensity:
    def test_values(self):
        assert abs(discriminant_density(0.0) - 1.0 / (2 * math.pi)) < 1e-15
        assert abs(discriminant_density(math.sqrt(3.0)) - 1.0 / math.pi) < 1e-14

    def test_is_the_invariant_density(self):
        for delta in (-1.999, -0.3, 0.0, 1.2):
            assert discriminant_density(delta) == invariant_density("discriminant_D", delta)

    def test_domain_error(self):
        for bad in (-2.0, 2.0, 2.5):
            with pytest.raises(DomainError):
                discriminant_density(bad)

    def test_normalisation(self):
        val, _ = quad_singular(
            discriminant_density, -2.0, 2.0, singular_points=[-2.0, 2.0]
        )
        assert abs(val - 1.0) < 1e-10
