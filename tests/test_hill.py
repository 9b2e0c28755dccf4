import json
import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, elementwise
from scipy.special import mathieu_a, mathieu_b

from hillmap import hill
from hillmap.errors import DomainError, NonConvergenceError
from hillmap.hill import (
    Monodromy,
    Potential,
    band_function,
    discriminant,
    free_discriminant,
    monodromy,
    spectrum_bands,
    transfer_matrices,
)
from hillmap.numerics import ROOT_STEPS, trace_poly

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
        Potential.piecewise_linear(np.arange(16) / 16, np.cos(2 * np.pi * np.arange(16) / 16)),
    ]


class TestPotential:
    def test_periodicity_on_samples(self):
        xs = np.linspace(0.0, 1.0, 37)
        for V in potential_zoo():
            assert np.allclose(V(xs), V(xs + 1.0), atol=1e-12)
            assert np.allclose(V(xs), V(xs + 3.0), atol=1e-12)

    def test_piecewise_linear_validation(self):
        with pytest.raises(ValueError):
            Potential.piecewise_linear([0.0, 0.5, 0.5], [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_data_refused(self, bad):
        for make in (lambda: Potential.constant(bad), lambda: Potential.cosine(bad),
                     lambda: Potential.piecewise_linear([0.0, 0.5], [0.0, bad]),
                     lambda: Potential.piecewise_linear([0.0, bad], [0.0, 1.0])):
            with pytest.raises(ValueError, match="must be finite"):
                make()

    def test_breakpoints_tile(self):
        # the linear pieces (v0, slope, length) of one period from x = 0
        V = Potential.piecewise_linear([0.0, 0.25], [1.0, -1.0])
        assert V._pieces == ((1.0, -8.0, 0.25), (-1.0, 8.0 / 3.0, 0.75))
        # breakpoints off 0 wrap: the piece through x = 0 is split there
        W = Potential.piecewise_linear([0.5, 1.25], [1.0, -1.0])
        assert [p[2] for p in W._pieces] == pytest.approx([0.25, 0.25, 0.5])
        assert [p[0] for p in W._pieces] == pytest.approx([W(0.0), -1.0, 1.0])
        assert W(0.0) == pytest.approx(-1.0 / 3.0)

    @pytest.mark.parametrize("v", [0.0, 1.5, -4.0])
    def test_constant_is_the_one_node_cell(self, v):
        # two kinds only: a constant is the flat piecewise-linear cell of one
        # node, one piece of slope 0, and its matrices are that cell's bits
        V, one_node = Potential.constant(v), Potential.piecewise_linear([0.0], [v])
        assert V.kind == "piecewise_linear" and V == one_node
        assert V._pieces == ((v, 0.0, 1.0),)
        assert V.min_value() == V.max_value() == V(0.37) == v
        lams = np.linspace(v - 30.0, v + 400.0, 41)
        assert np.array_equal(transfer_matrices(V, lams), transfer_matrices(one_node, lams))

    def test_interpolation_table_is_not_a_field(self):
        import dataclasses

        a = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        b = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        assert [f.name for f in dataclasses.fields(a)] == ["kind", "params"]
        assert a == b and hash(a) == hash(b)
        # nodes and values close the period: V(bp[0] + 1) = V(bp[0])
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
        assert abs(discriminant(COS, 1.0, 0.0) - MATHIEU_TRACE_AT_ZERO) <= 4e-16

    def test_determinant_across_kinds_lengths_and_lambdas(self):
        rng = np.random.default_rng(42)
        lams = rng.uniform(-20.0, 100.0, 12)
        for V in potential_zoo():
            if V.kind == "cosine":
                continue  # no matrices: discriminant only
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
        V = Potential.piecewise_linear([0.0, 0.4], [0.5, -0.25])
        lam = 3.7
        M1 = monodromy(V, 1.0, lam)
        M2 = monodromy(V, 2.0, lam)
        M3 = monodromy(V, 3.0, lam)
        assert np.allclose(M3.entries, M2.entries @ M1.entries, atol=1e-7)
        assert np.allclose(M2.entries, M1.entries @ M1.entries, atol=1e-7)
        # cosine cells: the traces of M^2 and M^3 are f_2 and f_3 of trace M
        d1, d2, d3 = (discriminant(COS, l, lam) for l in (1.0, 2.0, 3.0))
        assert abs(d2 - (d1**2 - 2.0)) <= 1e-13
        assert abs(d3 - (d1**3 - 3.0 * d1)) <= 1e-13

    def test_tabulated_cosine_tracks_analytic(self):
        # 256 uniform samples of the cosine cell, interpolated linearly,
        # reproduce its traces to the interpolation error of the potential
        x = np.arange(256) / 256
        tab = Potential.piecewise_linear(x, np.cos(2 * np.pi * x))
        lams = np.array([-0.5, 0.0, 3.0, 11.0])
        gap = discriminant(tab, 1.0, lams) - discriminant(COS, 1.0, lams)
        assert np.max(np.abs(gap)) < 5e-4

    def test_invalid_cell_length(self):
        # whole periods for every kind, constant cells too
        for V in (COS, FREE, Potential.piecewise_linear([0.0, 0.5], [0.0, 1.0])):
            with pytest.raises(ValueError, match="multiple of the period"):
                discriminant(V, 1.5, 0.0)
        with pytest.raises(ValueError, match="multiple of the period"):
            monodromy(Potential.constant(1.0), 2.5, 0.0)

    def test_bad_determinant_rejected(self):
        with pytest.raises(ValueError):
            Monodromy(np.array([[2.0, 0.0], [0.0, 1.0]]), 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_refused(self, bad):
        # a ValueError that names lam, not NaN matrices, RuntimeWarnings or
        # an OverflowError from the cosine chain's size
        V = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        named = f"lambda must be finite, not {bad}"
        for call in (lambda: transfer_matrices(V, [1.0, bad]),
                     lambda: transfer_matrices(V, bad),
                     lambda: transfer_matrices(FREE, [[2.0], [bad]]),
                     lambda: discriminant(V, 1.0, bad),
                     lambda: discriminant(V, 2.0, [3.0, bad]),
                     lambda: discriminant(COS, 1.0, bad),
                     lambda: discriminant(COS, 3.0, [0.0, bad]),
                     lambda: monodromy(V, 1.0, bad),
                     lambda: monodromy(FREE, 2.0, bad)):
            with pytest.raises(ValueError, match=named):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_refused(self, bad):
        # the determinant check passes NaN: abs(nan - 1) > tol is False
        for entries in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [0.0, 1.0]],
                        [[bad, bad], [bad, bad]]):
            with pytest.raises(ValueError, match="entries must be finite"):
                Monodromy(np.array(entries), 1.0, 0.0)


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

    def test_power_trace_matches_long_cell(self):
        # Delta of the cell of 2^n periods is f_2 applied n times to Delta_1,
        # within the rounding of Delta_1 carried by the gain |prod 2 Delta_i|
        lam = 2.3
        d, gain = float(discriminant(COS, 1.0, lam)), 1.0
        for n in range(1, 9):
            gain *= max(1.0, abs(2.0 * d))
            d = d * d - 2.0
            assert abs(discriminant(COS, float(2**n), lam) - d) <= 1e-14 * gain, n

    def test_cosine_matches_ode(self):
        # Hill's determinant against the tight ODE monodromy, below, inside
        # and between the bands
        lams = np.array([-3.3, -1.0, 0.0, 0.7, 3.0, 10.0, 40.0, 88.9, 150.0])
        for amplitude in (1.0, 7.8326, 20.0):
            V = Potential.cosine(amplitude)
            for l in (1.0, 2.0, 4.0, 8.0):
                got = discriminant(V, l, lams)
                for lam, delta in zip(lams, got):
                    ref = np.trace(ode_matrix(V, [], l, lam))
                    assert abs(delta - ref) <= 1e-12 * max(1.0, abs(ref)), (amplitude, l, lam)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-25.0, 25.0), st.floats(-3.3, 150.0), st.sampled_from([1, 2, 4]))
    def test_cosine_doubling(self, amplitude, lam, l):
        # Delta_2l = Delta_l^2 - 2, though Delta_2l adds the chains at
        # q = 2 pi r / 2l, r odd, that Delta_l does not see
        V = Potential.cosine(amplitude)
        d1, d2 = discriminant(V, l, lam), discriminant(V, 2 * l, lam)
        assert abs(d2 - (d1 * d1 - 2.0)) <= 1e-12 * max(1.0, d1 * d1)


class TestLongCells:
    """Delta_l = f_l(Delta_1) on piecewise-linear cells of l periods against
    the trace of the product of l one-period matrices (cell_matrices)."""

    def test_trace_polynomial_matches_the_product(self):
        # Both round in proportion to the entries' size |M_1| (largest entry
        # of the one-period matrix): the product's trace carries l products
        # of such entries, and f_l multiplies the rounding of Delta_1 by up to
        # l^2 near +-2.  Over 600 cells like these (|V| <= 40, lam <= 300)
        # the values met 43 eps l^2 |M_1|^2 max(1, |Delta_l|), with |M_1| read
        # as max(1, |M_1|); relative to max(1, |Delta_l|) alone the gap
        # reached 3.1e-11, where |M_1| ~ 100 in a band.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            bps = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, n - 1))])
            V = Potential.piecewise_linear(bps, rng.uniform(-40.0, 40.0, n))
            bands = np.array(spectrum_bands(V, 1.0, 300.0).bands)
            # below the spectrum, across bands and gaps, the bands' middles
            # and their edges, where Delta_1 = +-2
            lams = np.concatenate([np.linspace(V.min_value() - 5.0, 300.0, 301),
                                   bands.mean(axis=1), bands.ravel()])
            size = np.maximum(1.0, np.max(np.abs(transfer_matrices(V, lams)), axis=(1, 2)))
            for l in (2, 3, 4, 8):
                got, want = discriminant(V, l, lams), cell_discriminant(V, l, lams)
                bound = 64 * eps * l**2 * size**2 * np.maximum(1.0, np.abs(want))
                assert np.all(np.abs(got - want) <= bound), (V, l)


class TestTraces:
    """The discriminant of every kind."""

    def test_empty(self):
        assert discriminant(FREE, 1.0, []).shape == (0,)
        assert discriminant(COS, 1.0, []).shape == (0,)

    def test_shape_and_order_preserved(self):
        lams = np.array([[9.0, -1.0], [4.0, 30.0]])
        out = discriminant(FREE, 1.0, lams)
        assert out.shape == (2, 2)
        expected = np.vectorize(lambda lam: free_discriminant(1.0, lam))(lams)
        assert np.max(np.abs(out - expected)) < 1e-9
        cos = discriminant(COS, 2.0, lams)
        assert cos.shape == (2, 2)
        assert np.array_equal(cos[1], discriminant(COS, 2.0, lams[1]))


def cell_matrices(V, l, lams, derivative=False):
    """Transfer matrices over l periods, the product of round(l) one-period
    matrices, and with ``derivative`` the pair (M, dM/dlam) by the product
    rule from the tests' own per-piece kernel and its lam-derivative
    (:func:`per_piece_transfer_matrices`): the l-cell reference, owing
    nothing to trace_poly."""
    if not derivative:
        T = M = transfer_matrices(V, lams)
        for _ in range(round(l) - 1):
            M = T @ M
        return M
    T, dT = M, dM = per_piece_transfer_matrices(V, 1.0, lams, derivative=True)
    for _ in range(round(l) - 1):
        M, dM = T @ M, dT @ M + T @ dM
    return M, dM


def cell_discriminant(V, l, lams, derivative=False):
    """The trace of :func:`cell_matrices`, and of its derivative."""
    got = cell_matrices(V, l, lams, derivative)
    trace = lambda M: M[..., 0, 0] + M[..., 1, 1]
    return (trace(got[0]), trace(got[1])) if derivative else trace(got)


def ode_matrix(V, knots, l, lam):
    """Transfer matrix by tight DOP853 solves (SciPy's), restarted at each
    knot of V so that no step straddles a kink: a reference independent of
    the closed forms and of the package's kernels."""

    def rhs(t, y):
        w = V(t) - lam
        return np.array([y[1], w * y[0], y[3], w * y[2]])

    cuts = [k + j for j in range(int(round(l))) for k in knots if 0.0 < k + j < l]
    y = [1.0, 0.0, 0.0, 1.0]
    for t0, t1 in zip([0.0, *cuts], [*cuts, l]):
        # rtol 100 eps is the least solve_ivp takes without a warning
        y = solve_ivp(rhs, (t0, t1), y, method="DOP853",
                      rtol=100 * np.finfo(float).eps, atol=1e-14).y[:, -1]
    return np.array([[y[0], y[2]], [y[1], y[3]]])


SLOPES = [0.0, 1e-12, 1e-8, 1e-4, 1e-2, 1.0, 60.0]


def sloped_cells(slope):
    """(potential, knots) of two piecewise-linear cells: pieces of slope
    4/3 ``slope``, -``slope`` and 0, and two samples with slopes +-``slope``."""
    return [
        (Potential.piecewise_linear([0.0, 0.3, 0.7], [1.0, 1.0 + 0.4 * slope, 1.0]),
         [0.3, 0.7]),
        (Potential.piecewise_linear([0.0, 0.5], [-0.5, -0.5 + 0.5 * slope]), [0.5]),
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
            got = cell_matrices(V, l, lams)
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
        # the tests' own lam-derivative, which the scan reference and the
        # edges' conditioning bound take, against central differences
        for V, _ in sloped_cells(slope):
            lams = np.array([V.min_value() - 50.0, -0.5, 1.0, 7.3, 150.0, 400.0])
            for l in (1.0, 2.0):
                M, dM = cell_matrices(V, l, lams, derivative=True)
                assert np.all(np.isfinite(dM))
                plain = cell_matrices(V, l, lams)
                assert np.all(np.abs(M - plain) <= 1e-13 * np.maximum(1.0, np.abs(plain)))
                step = 1e-5 * np.maximum(1.0, np.abs(lams))[:, None, None]
                fd = cell_matrices(V, l, lams + step[:, 0, 0])
                fd = (fd - cell_matrices(V, l, lams - step[:, 0, 0])) / (2 * step)
                scale = np.maximum(1.0, np.max(np.abs(dM), axis=(1, 2)))[:, None, None]
                assert np.all(np.abs(dM - fd) <= 1e-6 * scale), (V, l)

    def test_short_nearly_flat_pieces(self):
        # slope c^3 on pieces of length 0.5, so |c| h reaches the Magnus
        # threshold 1.6e-2, with lam beside the potential: a fourth-order
        # Magnus step is off by 5.6e-11 here, the sixth-order one by 7e-14
        for c in (0.01, 0.02, 0.032):
            V = Potential.piecewise_linear([0.0, 0.5], [0.0, 0.5 * c**3])
            for lam in (-0.012, -0.004, 0.0, 0.003, 0.01):
                M = transfer_matrices(V, [lam])[0]
                assert np.max(np.abs(M - ode_matrix(V, [0.5], 1.0, lam))) < 1e-12

    def test_monodromy_takes_the_kernel(self):
        # one period is the kernel's matrix, two periods its square
        V = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        lams = np.array([[-3.0, 2.0], [40.0, 9.5]])
        got = transfer_matrices(V, lams)
        assert got.shape == (2, 2, 2, 2)
        for idx in np.ndindex(lams.shape):
            assert np.array_equal(got[idx], monodromy(V, 1.0, lams[idx]).entries)
            assert np.array_equal(got[idx] @ got[idx], monodromy(V, 2.0, lams[idx]).entries)

    def test_cosine_is_refused(self):
        # cosine cells have a discriminant only
        for call in (lambda: transfer_matrices(COS, [-1.0, 3.0]),
                     lambda: monodromy(COS, 1.0, 0.0)):
            with pytest.raises(ValueError, match="cosine cells have discriminant"):
                call()


# The kernel as it was before all pieces went through one pass: each piece on
# its own, its slope and length Python floats.  Kept to pin the batched
# kernel to it bit for bit, and, with ``derivative``, the lam-derivative the
# references take: Airy's own, the other forms' by the complex step
# T(q - i STEP) = T(q) - i STEP dT/dq + O(STEP^2), free of cancellation.
STEP = 1e-30


def scalar_airy_piece(q0, s, h, derivative):
    c = float(np.cbrt(s))
    z0 = q0 / (c * c)
    z1 = z0 + c * h
    a0, ap0, b0, bp0 = hill.airy(z0)
    a1, ap1, b1, bp1 = hill.airy(z1)
    inv0 = hill._matrices(c * bp0, -b0, -c * ap0, a0) * (math.pi / c)
    phi1 = hill._matrices(a1, b1, c * ap1, c * bp1)
    T = phi1 @ inv0
    if not derivative:
        return T, None
    dz = -1.0 / (c * c)
    dinv0 = hill._matrices(c * z0 * b0, -bp0, -c * z0 * a0, ap0) * (dz * math.pi / c)
    dphi1 = hill._matrices(ap1, bp1, c * z1 * a1, c * z1 * b1) * dz
    return T, dphi1 @ inv0 + phi1 @ dinv0


def scalar_asymptotic_piece(q0, s, h):
    horner = hill._horner
    q1 = q0 + s * h
    nu = np.where(q0.real < 0.0, 1.0, -1.0)
    p0, p1 = -nu * q0, -nu * q1
    r0, r1 = np.sqrt(p0), np.sqrt(p1)
    f0, f1 = np.sqrt(r0), np.sqrt(r1)
    sg = math.copysign(1.0, s)
    phase = (2.0 / 3.0) * sg * h * (p0 + r0 * r1 + p1) / (r0 + r1)
    osc = nu > 0
    cd, sd = np.empty_like(phase), np.empty_like(phase)
    cd[osc], sd[osc] = np.cos(phase[osc]), np.sin(phase[osc])
    cd[~osc], sd[~osc] = np.cosh(phase[~osc]), np.sinh(phase[~osc])

    def series(p, r):
        w = 1.5 * abs(s) / (p * r)
        y = -nu * w * w
        return (horner(hill._U_EVEN, y), w * horner(hill._U_ODD, y),
                horner(hill._V_EVEN, y), w * horner(hill._V_ODD, y))

    P0, Q0, R0, S0 = series(p0, r0)
    P1, Q1, R1, S1 = series(p1, r1)
    return hill._matrices(
        f0 / f1 * ((P1 * R0 + nu * Q1 * S0) * cd + nu * (P1 * S0 - Q1 * R0) * sd),
        sg / (f0 * f1) * ((Q1 * P0 - P1 * Q0) * cd + (P1 * P0 + nu * Q1 * Q0) * sd),
        -nu * sg * f0 * f1 * ((S1 * R0 - R1 * S0) * cd + (R1 * R0 + nu * S1 * S0) * sd),
        f1 / f0 * ((R1 * P0 + nu * S1 * Q0) * cd - nu * (S1 * P0 - R1 * Q0) * sd),
    )


def scalar_magnus_piece(q0, s, h):
    qm = q0 + 0.5 * s * h
    d = s * h**3 * (qm * h * h / 180.0 - 1.0 / 12.0)
    low = h * (qm - s * s * h**4 / 120.0)
    w = d * d + h * low
    C, S = hill._horner(hill._COSH_SQRT, w), hill._horner(hill._SINHC_SQRT, w)
    return hill._matrices(C + S * d, S * h, S * low, C - S * d)


def scalar_piece(q0, s, h, derivative):
    q1 = q0 + s * h
    p = np.minimum(np.abs(q0), np.abs(q1))
    asymptotic = (q0 * q1 > 0) & (p * h * h >= hill._FLAT) & (
        p**1.5 >= 1.5 * hill._ZETA * abs(s))
    magnus = ~asymptotic & (abs(s) ** (1.0 / 3.0) * h <= hill._CORNER)
    rest = ~(asymptotic | magnus)
    T = np.empty(q0.shape + (2, 2))
    dT = np.empty_like(T) if derivative else None
    for mask, form in ((asymptotic, scalar_asymptotic_piece), (magnus, scalar_magnus_piece)):
        if not mask.any():
            continue
        if derivative:
            Tc = form(q0[mask] - 1j * STEP, s, h)
            T[mask], dT[mask] = Tc.real, Tc.imag / STEP
        else:
            T[mask] = form(q0[mask], s, h)
    if rest.any():
        T[rest], dTr = scalar_airy_piece(q0[rest], s, h, derivative)
        if derivative:
            dT[rest] = dTr
    return T, dT


def per_piece_transfer_matrices(V, l, lams, derivative=False):
    pieces = V._pieces
    lams = np.asarray(lams, dtype=float)
    M = np.zeros((lams.size, 2, 2))
    M[:, 0, 0] = M[:, 1, 1] = 1.0
    dM = np.zeros_like(M) if derivative else None
    mats = [scalar_piece(v0 - lams.ravel(), s, h, derivative) for v0, s, h in pieces]
    for _ in range(round(l)):
        for T, dT in mats:
            if derivative:
                dM = dT @ M + T @ dM
            M = T @ M
    shape = lams.shape + (2, 2)
    return (M.reshape(shape), dM.reshape(shape)) if derivative else M.reshape(shape)


# slopes 0, 1e-12, 1e-4, 60 and -60 in one cell, values 1, 1 + 2e-13,
# 1 + 2e-5 + 2e-13 and ~13 at its nodes
MIXED_CELL = Potential.piecewise_linear(
    [0.0, 0.2, 0.4, 0.6, 0.8], [1.0, 1.0, 1.0 + 2e-13, 1.0 + 2e-5 + 2e-13, 13.0 + 2e-5])


class TestOnePassKernel:
    """All pieces and lam in one pass of _piece give the matrices the pieces
    gave one at a time, to the last bit, over one period.  Over l periods,
    the product of the one-period matrices is the pieces' product across the
    cell to rounding."""

    @staticmethod
    def lams_beside_nodes(V, rng):
        nodes = np.array(V._table[1])
        near = nodes[:, None] + [-1e-3, -1e-9, 0.0, 1e-13, 1e-9, 1e-3, 0.3]
        return np.concatenate([near.ravel(), rng.uniform(nodes.min() - 60.0, 500.0, 40),
                               [-2000.0, 5000.0]])

    def assert_same(self, V, l, lams):
        got = transfer_matrices(V, lams)
        assert np.array_equal(got, per_piece_transfer_matrices(V, 1.0, lams)), V
        if l == 1.0:
            return
        # the rounding of c products of one-period matrices of largest entry
        # |M_1|: on these cells up to 1.5e-15 c |M_1|^c
        c = round(l)
        M1 = np.max(np.abs(got), axis=(1, 2))[:, None, None]
        want = per_piece_transfer_matrices(V, l, lams)
        assert np.all(np.abs(cell_matrices(V, l, lams) - want) <= 1e-14 * c * M1**c), (V, l)

    def test_mixed_forms_in_one_call(self, monkeypatch):
        calls = {}
        for name in ("_airy_piece", "_asymptotic_piece", "_magnus_piece"):
            def spy(*args, _form=getattr(hill, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _form(*args)
            monkeypatch.setattr(hill, name, spy)
        rng = np.random.default_rng(7)
        for l in (1.0, 3.0):
            lams = self.lams_beside_nodes(MIXED_CELL, rng)
            calls.clear()
            transfer_matrices(MIXED_CELL, lams)
            # each form once, on pieces of several slopes
            assert calls == {"_airy_piece": 1, "_asymptotic_piece": 1, "_magnus_piece": 1}
            self.assert_same(MIXED_CELL, l, lams)

    @pytest.mark.parametrize("slope", [0.0, 1e-12, 1e-4, 60.0])
    @pytest.mark.parametrize("l", [1.0, 3.0])
    def test_sloped_cells(self, slope, l):
        rng = np.random.default_rng(int(slope * 1e12) % 1000 + int(l))
        for V, _ in sloped_cells(slope):
            self.assert_same(V, l, self.lams_beside_nodes(V, rng))

    @pytest.mark.parametrize("l", [1.0, 3.0])
    def test_constant_cells(self, l):
        rng = np.random.default_rng(3)
        for V in (FREE, Potential.constant(1.5), Potential.constant(-4.0)):
            self.assert_same(V, l, self.lams_beside_nodes(V, rng))

    def test_random_cells(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 7))
            bps = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, n - 1))])
            vals = rng.uniform(-1.0, 1.0, n) * [0.5, 5.0, 60.0][trial % 3]
            vals[-1] = vals[0] + [0.0, 1e-6, 3.0][trial % 3]
            V = Potential.piecewise_linear(bps, vals)
            self.assert_same(V, [1.0, 3.0][trial % 2], self.lams_beside_nodes(V, rng))

    # batches that one form serves whole, which it takes without the gather
    # and scatter of a mixed batch: lam >= 200 on a sloped cell (asymptotic),
    # lam at and between the node values of a steep cell (Airy), and lam
    # within 3e-4 of a nearly flat cell's values (Magnus)
    SINGLE_FORM = {
        "_asymptotic_piece": (sloped_cells(1.0)[0][0], (200.0, 5000.0)),
        "_airy_piece": (Potential.piecewise_linear([0.0, 0.5], [-30.0, 30.0]), (-30.0, 30.0)),
        "_magnus_piece": (Potential.piecewise_linear([0.0, 0.5], [1.0, 1.0 + 1e-6]),
                          (1.0 - 3e-4, 1.0 + 3e-4)),
    }

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    @pytest.mark.parametrize("name", sorted(SINGLE_FORM))
    def test_single_form_batches(self, monkeypatch, name, n):
        calls = []
        for form in ("_airy_piece", "_asymptotic_piece", "_magnus_piece"):
            def spy(*args, _form=getattr(hill, form), _name=form):
                calls.append(_name)
                return _form(*args)
            monkeypatch.setattr(hill, form, spy)
        V, (lo, hi) = self.SINGLE_FORM[name]
        lams = np.random.default_rng(n).uniform(lo, hi, n)
        if name == "_airy_piece":
            lams[:2] = [-30.0, 30.0][:n]  # the node values
        got = transfer_matrices(V, lams)
        assert calls == ([name] if n else [])
        want = per_piece_transfer_matrices(V, 1.0, lams)
        assert got.shape == want.shape == (n, 2, 2)
        assert np.array_equal(got, want), (name, n)


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


class TestInterpolatedCosine:
    """The piecewise-linear interpolant V_k of A cos(2 pi x) on k uniform
    nodes lies within A (2 pi)^2 / (8 k^2) of the cosine, so by min-max
    every periodic and antiperiodic eigenvalue, every band edge, lies within
    that of the cosine cell's: Mathieu's characteristic values from scipy,
    an oracle that shares no code with the exact-cell kernel, here on cells
    of up to 512 pieces."""

    @pytest.mark.parametrize("amplitude", [1.0, 5.0, 25.0])
    def test_edges_within_the_interpolation_bound(self, amplitude):
        ref = mathieu_edges(amplitude, 200.0)
        ref = ref[ref <= 200.0]
        ratios = []
        for k in (8, 32, 128, 512):
            x = np.arange(k) / k
            V = Potential.piecewise_linear(x, amplitude * np.cos(2.0 * math.pi * x))
            bound = amplitude * (2.0 * math.pi) ** 2 / (8.0 * k * k)
            # past 200 by twice the bound, so no edge below 200 moves past it
            got = spectrum_bands(V, 1.0, 200.0 + 2.0 * bound)
            assert got.warnings == ()
            edges = np.array(got.bands).ravel()
            assert edges.size > ref.size
            ratios.append(np.max(np.abs(edges[:ref.size] - ref)) / bound)
        # within the bound, and at its h^2 rate: the ratio holds steady in k
        # (0.33 to 0.42 of the bound on these cells)
        assert max(ratios) <= 1.0 and max(ratios) <= 1.1 * min(ratios), ratios

    @pytest.mark.parametrize("lambda_max", [60.0, 300.0])
    def test_deep_cell_lists_every_band(self, lambda_max):
        # E = 10 edges at or below 60 and 300: five bands, three of them
        # near -1953.9, -1295.0 and -786.2 and as narrow as 3.3e-9, where
        # |M| reaches 1e20
        V = Potential.piecewise_linear([0.0, 0.3, 0.6], [1.0, -2.5e3, 3.9e3])
        (edges,), *_ = hill._edge_count(V, [lambda_max])
        blist = spectrum_bands(V, 1.0, lambda_max)
        assert edges == 10 and blist.warnings == ()
        assert len(blist.bands) == edges / 2


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
        # point lam* = 246.0108, G = (a - d)^2 + 4bc = 1.6e-7 against its
        # rounding bound 5.2e-16, so it is a gap.
        knots = [0.38, 0.545, 0.727]
        V = Potential.piecewise_linear([0.0, *knots], [-3.365, 2.554, -2.01, 0.086])
        blist = spectrum_bands(V, 1.0, 273.742)
        assert blist.warnings == ()
        # lam_0's bracket starts at min V, where V - lam >= 0, not identically
        # 0, puts Delta above 2 (compare with u'' = 0): outside the spectrum
        assert discriminant(V, 1.0, [V.min_value()])[0] > 2.0
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
                assert abs(discriminant(COS, 1.0, lam)) <= 2.0 + 1e-12
        gap_mid = 0.5 * (blist.bands[0][1] + blist.bands[1][0])
        assert abs(discriminant(COS, 1.0, gap_mid)) > 2.0

    def test_json_roundtrip(self):
        blist = spectrum_bands(FREE, 1.0, 12.0)
        data = json.loads(json.dumps(asdict(blist)))
        assert data["bands"][0][0] == pytest.approx(0.0, abs=1e-8)


# The reference's own scan density (points per unit of sqrt(lam - lam_floor))
# and relative rounding allowance of the transfer matrices in its coexistence
# test, kept here so that the reference does not move with the code it checks.
REF_SCAN_DENSITY = 512
REF_ROUNDING = 1e-12


def coexistence_allowance(M, dM):
    """How far M may miss +-I at a touch found to within the root tolerance:
    |dM/dlam| times that tolerance, plus the matrices' rounding."""
    norm = lambda X: np.linalg.norm(X, axis=(-2, -1))
    return norm(dM) * hill._EDGE_TOL + REF_ROUNDING * norm(M)


def edge_roots(f, lo, hi, args=()):
    """SciPy's batched Chandrupatla solve at the band edges' tolerance, NaN
    where a bracket's ends share a sign: a root solver for the reference
    that owes nothing to find_roots."""
    res = elementwise.find_root(
        f, (lo, hi), args=args,
        tolerances={"xatol": hill._EDGE_TOL, "xrtol": 4 * np.finfo(float).eps},
        maxiter=ROOT_STEPS)
    assert np.all((res.status == 0) | (res.status == -1)), res.status
    return np.where(res.status == 0, res.x, np.nan)


def scan_reference(V, l, lambda_max):
    """Band edges and warnings of an exact cell by a scan of Delta_l up to
    lambda_max, crossings of +-2 and turning points inside [-2, 2] refined
    by root solves, each turning point put to the coexistence test (M = +-I
    at a touch): a reference that owes nothing to the comparison windows,
    to G, or to the levels of Delta_1 that split an l-cell's bands."""
    start = V.min_value() - 1.0
    s_max = math.sqrt(lambda_max - start)
    s = np.linspace(0.0, s_max, max(int(REF_SCAN_DENSITY * s_max), 64) + 1)
    lams = start + s * s
    deltas = cell_discriminant(V, l, lams)
    level_roots = lambda lo, hi, levels: edge_roots(
        lambda x, lev: cell_discriminant(V, l, x) - lev, lo, hi, args=(levels,))
    levels = np.array([2.0, -2.0])
    g = deltas - levels[:, None]
    which, idx = np.nonzero(g[:, :-1] * g[:, 1:] < 0)
    events = level_roots(lams[idx], lams[idx + 1], levels[which]).tolist()
    d = np.diff(deltas)
    turns = np.nonzero(d[:-1] * d[1:] < 0)[0] + 1
    turns = turns[np.all(np.abs(deltas[turns[:, None] + [-1, 0, 1]]) <= 2.0, axis=1)]
    lo, hi = lams[turns - 1], lams[turns + 1]
    stars = edge_roots(lambda x: cell_discriminant(V, l, x, derivative=True)[1], lo, hi)
    real = ~np.isnan(stars)
    lo, hi, stars = lo[real], hi[real], stars[real]
    M, dM = cell_matrices(V, l, stars, derivative=True)
    trace = M[:, 0, 0] + M[:, 1, 1]
    sign = np.where(trace > 0.0, 1.0, -1.0)
    touch = np.linalg.norm(M - sign[:, None, None] * np.eye(2), axis=(-2, -1)) <= (
        coexistence_allowance(M, dM))
    gap = ~touch & (np.abs(trace) > 2.0)
    events += np.repeat(stars[touch], 2).tolist()
    events += level_roots(np.concatenate([lo[gap], stars[gap]]),
                          np.concatenate([stars[gap], hi[gap]]),
                          2.0 * np.tile(sign[gap], 2)).tolist()
    warnings = [f"turning point near lambda={lam:.6g} is neither a touch (M != +-I) "
                "nor a gap (|Delta| <= 2)" for lam in stars[~(touch | gap)]]
    events.sort()
    if len(events) % 2 == 1:
        events.append(float(lambda_max))
    bands = [(a, min(b, lambda_max)) for a, b in zip(events[0::2], events[1::2])]
    return [(a, b) for a, b in bands if a < b], warnings


def assert_edges_match(got, want, V, l):
    """Same band count and warnings; each edge within 1e-10, or within
    1e-13 / |dDelta/dlam| where Delta is flatter: the transfer matrices'
    rounding over Delta's slope, the edge's own conditioning.  Beside a gap
    of width w the slope is ~w / n^2, and two root solves of one edge from
    other brackets differ by up to 2.3e-9 (w = 4.8e-4, n = 6)."""
    bands, warnings = want
    assert len(got.bands) == len(bands) and list(got.warnings) == warnings
    edges = np.array([e for band in bands for e in band])
    slope = cell_discriminant(V, l, edges, derivative=True)[1]
    with np.errstate(divide="ignore"):
        bound = np.maximum(1e-10, 1e-13 / np.abs(slope))
    # a touch is a turning point, found by its own root solve
    touch = np.zeros(edges.size, dtype=bool)
    touch[1:-1:2] = touch[2::2] = edges[1:-1:2] == edges[2::2]
    bound[touch] = 1e-10
    got_edges = np.array([e for band in got.bands for e in band])
    assert np.all(np.abs(got_edges - edges) <= bound), (got_edges - edges, bound)


def first_clear_window(V, l):
    """n0: the first n with (2n - 1)(pi / l)^2 > max V - min V."""
    n = 1
    while (2 * n - 1) * (math.pi / l) ** 2 <= V.max_value() - V.min_value():
        n += 1
    return n


def union(bands):
    """The set covered by bands, as its disjoint intervals (lo, hi)."""
    out = []
    for a, b in bands:
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def fourier_coefficient(breakpoints, values, n):
    """int_0^1 V(x) exp(-2 pi i n x) dx of a piecewise-linear cell, exact
    per linear piece."""
    xs, vs = [*breakpoints, breakpoints[0] + 1.0], [*values, values[0]]
    k = -2j * math.pi * n
    total = 0j
    for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]):
        h = x1 - x0
        if n == 0:
            total += 0.5 * h * (v0 + v1)
            continue
        e0, e1 = np.exp(k * x0), np.exp(k * x1)
        # int (v0 + s (x - x0)) e^(kx) dx over [x0, x1], s = (v1 - v0) / h
        total += v0 * (e1 - e0) / k + (v1 - v0) / h * (h * e1 / k - (e1 - e0) / k**2)
    return total


@st.composite
def exact_cells(draw, bound):
    """Piecewise-linear cells of 2-5 pieces with |V| <= bound."""
    pieces = draw(st.integers(2, 5))
    cuts = draw(st.lists(st.floats(0.05, 0.95), min_size=pieces - 1,
                         max_size=pieces - 1, unique=True))
    bps = [0.0, *sorted(cuts)]
    assume(min(np.diff([*bps, 1.0])) > 0.02)
    values = draw(st.lists(st.floats(-bound, bound), min_size=pieces, max_size=pieces))
    # The reference fails on flat and nearly flat cells: lam_0 of a flat one
    # can be a point of its grid, where its strict sign test misses it
    # (test_constant_cell_edge_on_a_scan_point); a gap of width ~1e-7 gives
    # NaN edges from its brackets, and it drops the gap's bands.
    assume(max(values) - min(values) >= 0.1)
    return Potential.piecewise_linear(bps, values)


DEEP_DOUBLE_WELL = ([0, .2, .25, .3, .7, .75, .8], [0, 0, -1200, 0, 0, -1200.001, 0])


def assert_every_gap_listed(V, lambda_max, count):
    """count bands at l = 1 and no warning; |Delta| <= 2 in the middle of
    each band and G > 0 in the middle of each gap between them."""
    blist = spectrum_bands(V, 1.0, lambda_max)
    assert blist.warnings == () and len(blist.bands) == count
    mids = np.array([0.5 * (a + b) for a, b in blist.bands])
    assert np.all(np.abs(discriminant(V, 1.0, mids)) <= 2.0)
    gaps = np.array([0.5 * (b + a) for (_, b), (a, _) in zip(blist.bands, blist.bands[1:])])
    M = transfer_matrices(V, gaps)
    G = (M[:, 0, 0] - M[:, 1, 1]) ** 2 + 4.0 * M[:, 0, 1] * M[:, 1, 0]
    assert np.all(G > 0.0), G


class TestComparisonWindows:
    """Band edges of the exact kinds from the edge count, against the scan
    that finds them without it: on shallow cells, whose windows W_n = (n
    pi/l)^2 + [min V, max V] are disjoint from n = 1, and on deep ones,
    whose first windows overlap."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(exact_cells(4.0), st.floats(20.0, 400.0))
    def test_windows_alone_match_the_scan(self, V, lambda_max):
        # max V - min V <= 8 < pi^2: every gap has a clear window at l = 1
        assert first_clear_window(V, 1.0) == 1
        assert_edges_match(spectrum_bands(V, 1.0, lambda_max),
                           scan_reference(V, 1.0, lambda_max), V, 1.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(exact_cells(60.0), st.sampled_from([1.0, 2.0, 3.0]), st.floats(20.0, 400.0))
    def test_count_and_windows_match_the_scan(self, V, l, span):
        assume(first_clear_window(V, l) > 1)
        lambda_max = V.min_value() + span
        got = spectrum_bands(V, l, lambda_max)
        assert_edges_match(got, scan_reference(V, l, lambda_max), V, l)
        # Band i runs Delta_l from (-1)^(i-1) 2 to (-1)^i 2, so where bands i
        # and i + 1 touch, M_l = (-1)^i I: the split points of the one-period
        # bands among them
        ends = np.array([b for (_, b), (a, _) in zip(got.bands, got.bands[1:]) if a == b])
        signs = np.array([(-1.0) ** i for i, ((_, b), (a, _))
                          in enumerate(zip(got.bands, got.bands[1:]), start=1) if a == b])
        if ends.size:
            M, dM = cell_matrices(V, l, ends, derivative=True)
            miss = np.linalg.norm(M - signs[:, None, None] * np.eye(2), axis=(-2, -1))
            assert np.all(miss <= coexistence_allowance(M, dM)), (ends, miss)
        # an l-cell has the one-period spectrum
        one = union(spectrum_bands(V, 1.0, lambda_max).bands)
        assert len(union(got.bands)) == len(one)
        assert np.allclose(union(got.bands), one, rtol=0.0, atol=1e-10)

    def test_seam_between_count_and_windows(self):
        # a narrow dip to -60 in a cell at 0: the edge count brackets lam_0
        # and gaps 1-3, the windows gap 4 on; lambda_max on both sides of W_4's
        # start.
        # The mean, -3, sits near max V, so W_3 = [28.8, 88.8] holds the
        # turning points of gaps 2 and 3, and n0 = 4 is the first clear one.
        V = Potential.piecewise_linear([0.0, 0.05, 0.1], [0.0, -60.0, 0.0])
        assert first_clear_window(V, 1.0) == 4
        lo = (4.0 * math.pi) ** 2 - 60.0
        for lambda_max in (lo - 3.0, lo - 1e-9, lo, lo + 1e-9, lo + 3.0, 200.0):
            got = spectrum_bands(V, 1.0, lambda_max)
            assert got.warnings == ()
            assert_edges_match(got, scan_reference(V, 1.0, lambda_max), V, 1.0)
        assert len(spectrum_bands(V, 1.0, 200.0).bands) == 5

    def test_touch_inside_a_narrow_two_period_band(self):
        # a two-period cell whose one-period band (-35.8243, -35.7733) holds
        # Delta_1 = 0, where M_2 = M_1^2 = -I: two bands touch at -35.7988.
        # The bands come from l = 1, split where Delta_1 = 2 cos(pi / 2).
        V = Potential.piecewise_linear(
            [0.0, 0.1025997320661137, 0.5284014461276613, 0.6883543560593153],
            [96.20206897440531, -125.5394643373335, 76.18864948600466, 102.41113839432518])
        assert first_clear_window(V, 2.0) == 47
        blist = spectrum_bands(V, 2.0, 0.0)
        assert blist.warnings == ()
        (a, touch), (touch2, b) = blist.bands
        assert (a, b) == spectrum_bands(V, 1.0, 0.0).bands[0]
        assert touch == touch2
        # located to the root tolerance by a solve of Delta_1 = 0 that owes
        # nothing to find_roots
        (want,) = edge_roots(lambda x: discriminant(V, 1.0, x), np.array([a]), np.array([b]))
        assert abs(touch - want) <= 1e-10
        # |dM_2/dlam| = 4.3e5 here: one ulp of the touch moves M_2 by ~3e-9
        M, dM = cell_matrices(V, 2.0, [touch], derivative=True)
        assert np.linalg.norm(M[0] + np.eye(2)) <= coexistence_allowance(M, dM)[0]

    @pytest.mark.parametrize("lambda_max, count", [(0.0, 2), (2000.0, 15)])
    def test_deep_double_well_lists_every_gap(self, lambda_max, count):
        # wells of depth 1200 and 1200.001: the tunnelling gap between the
        # first two bands lies far below W_n0 (n0 = 62, from 36739), where
        # the edge count places a point in each band around it
        V = Potential.piecewise_linear(*DEEP_DOUBLE_WELL)
        assert first_clear_window(V, 1.0) == 62
        assert_every_gap_listed(V, lambda_max, count)

    def test_nearly_flat_cell_warns_without_raising(self):
        # max V - min V = 1.3e-8.  First-order perturbation theory puts lam_0
        # at the mean V_0 and the edges of gap n at (n pi)^2 + V_0 +- |V_n|,
        # V_n the exact Fourier coefficients; the second-order error is
        # ~|V|^2 ~ 1e-16.  Gaps 4 and 5 are 6.4e-10 and 3.2e-10 wide, where
        # Delta -+ 2 moves by ~1e-21, far below its rounding: G must call
        # them gaps.  Below 300: lam_0 and gaps 1-5, so six bands.
        bp, vals = [0.0, 0.8536636840183617], [-1.2358659614311694e-08, -2.539758593939151e-08]
        blist = spectrum_bands(Potential.piecewise_linear(bp, vals), 1.0, 300.0)
        assert blist.warnings == ()
        v0 = fourier_coefficient(bp, vals, 0).real
        want = [v0]
        for n in range(1, 6):
            half = abs(fourier_coefficient(bp, vals, n))
            want += [(n * math.pi) ** 2 + v0 - half, (n * math.pi) ** 2 + v0 + half]
        edges = [e for band in blist.bands for e in band]
        assert len(edges) == 12 and edges[-1] == 300.0
        assert np.max(np.abs(np.array(edges[:-1]) - want)) <= 1e-10
        assert want[8] - want[7] > 6e-10 and want[10] - want[9] > 3e-10

    def test_near_symmetric_double_well(self):
        # wells of depth 600 and 600.001 split each band below the barrier
        # into a pair across a tunnelling gap 1.6e-6 to 3.7e-4 wide, where
        # |Delta| - 2 at the turning points rounds to a band
        V = Potential.piecewise_linear([0, .2, .25, .3, .7, .75, .8],
                                       [0, 0, -600, 0, 0, -600.001, 0])
        assert_every_gap_listed(V, 2000.0, 15)

    @pytest.mark.parametrize("l", [0.7, 1.3, 1.9])
    def test_constant_cells_are_exact(self, l):
        v = -1.7
        blist = spectrum_bands(Potential.constant(v), l, 200.0)
        edges = [e for band in blist.bands for e in band]
        assert edges[0] == v and edges[-1] == 200.0
        want = [(n * math.pi / l) ** 2 + v for n in range(1, len(edges) // 2)]
        assert edges[1:-1:2] == edges[2:-1:2]  # touches
        for got, w in zip(edges[1:-1:2], want):
            assert abs(got - w) <= 4 * math.ulp(w)
        assert want[-1] < 200.0 < ((len(want) + 1) * math.pi / l) ** 2 + v

    def test_constant_cell_edge_on_a_scan_point(self):
        # lam_0 = -4 is a point of the scan's grid from -5 to 20, where
        # Delta - 2 is 0, not of either sign: the scan found no band at all
        for V in (Potential.constant(-4.0), Potential.piecewise_linear([0.0, 0.5], [-4.0, -4.0])):
            assert spectrum_bands(V, 1.0, 20.0).bands == (
                (-4.0, math.pi**2 - 4.0), (math.pi**2 - 4.0, 20.0))

    def test_kernel_matches_polyval_and_stack(self, monkeypatch):
        # Each row of the asymptotic form's one Horner pass over its four
        # series is np.polyval of that row's coefficients operation for
        # operation (a zero in front changes no bit): equal to the bit in the
        # shapes of a mixed batch (2, K) and of a whole one (2, P, N).
        rng = np.random.default_rng(5)
        for shape in ((2, 40), (2, 3, 5)):
            w = rng.uniform(1e-6, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
            got = hill._series(w * w)
            assert got.shape == (4,) + shape
            for row, coeffs in zip(got, (hill._U_EVEN, hill._U_ODD, hill._V_EVEN, hill._V_ODD)):
                assert np.array_equal(row, np.polyval(coeffs, w * w))
        # The Magnus form's Horner loop and filled matrices are those of
        # np.polyval and np.stack: equal to the bit on a grid that meets the
        # asymptotic, Magnus and Airy forms
        cells = [V for slope in (0.0, 1e-8, 1e-2, 1.0, 60.0) for V, _ in sloped_cells(slope)]
        lams = np.linspace(-60.0, 400.0, 157)
        new = [cell_matrices(V, l, lams) for V in cells for l in (1.0, 2.0)]
        monkeypatch.setattr(hill, "_horner", np.polyval)
        monkeypatch.setattr(hill, "_matrices", lambda a, b, c, d: np.stack(
            [np.stack([a, b], -1), np.stack([c, d], -1)], -2))
        old = [cell_matrices(V, l, lams) for V in cells for l in (1.0, 2.0)]
        for M, M0 in zip(new, old):
            assert np.array_equal(M, M0)


# |M| = 1.6e6 at the top of its band [77.2639, 77.2688], where the rounding
# bound of G reaches 1
FOUND_CELL = ([0.0, 0.17953721532583555, 0.4684493534246341, 0.6650372636439418,
               0.7757612818528002],
              [-540.8128135445592, 362.2511583415794, 262.36106062593944,
               365.5537199016634, 312.4987687442126])


class TestEdgeCount:
    """E(lam), the number of band edges at or below lam, from the sign
    changes of the Dirichlet solution and the sign of G (hill._edge_count):
    the reference for deep cells, whose narrow bands a scan can miss."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(exact_cells(600.0), st.floats(20.0, 1500.0))
    def test_count_matches_the_listed_edges(self, V, span):
        n0 = first_clear_window(V, 1.0)
        assume(n0 > 1)
        assert hill._edge_count(V, [(n0 * math.pi) ** 2 + V.min_value()])[0] == [2 * n0 - 1]
        lambda_max = V.min_value() + span
        got = spectrum_bands(V, 1.0, lambda_max)
        assert got.warnings == ()
        edges = np.array([e for band in got.bands for e in band])
        if edges.size and edges[-1] == lambda_max:
            edges = edges[:-1]  # the top of a band clipped there
        # a dense grid, and the middle of every band and gap however narrow
        lams = np.sort(np.concatenate([
            np.linspace(V.min_value() - 1.0, lambda_max, 4001),
            0.5 * (edges[1:] + edges[:-1])]))
        E = hill._edge_count(V, lams)[0]
        assert np.all(np.diff(E) >= 0)
        far = np.min(np.abs(lams[:, None] - edges), axis=1, initial=np.inf) > 1e-9
        listed = np.searchsorted(edges, lams, side="right")
        assert np.array_equal(E[far], listed[far]), lams[far][E[far] != listed[far]]

    def test_passes_change_no_bit(self, monkeypatch):
        # every lam runs on the sub-pieces of the largest: one lam a pass
        # gives the counts and flags of one pass over all of them
        V = Potential.piecewise_linear([0.0, 0.3, 0.6], [1.0, -2.5e3, 3.9e3])
        lams = np.linspace(V.min_value() - 1.0, 4e4, 301)
        whole = hill._edge_count(V, lams)
        monkeypatch.setattr(hill, "_COUNT_PAIRS", 1)
        for got, want in zip(hill._edge_count(V, lams), whole):
            assert np.array_equal(got, want)

    def test_deep_cell_memory_is_linear_in_its_bands(self):
        # E(2.5e6) = 987 edges, 494 bands, with ~1000 sub-pieces: one pass
        # over every band point held (sub-pieces x bands) matrices, a 134 MB
        # peak.  The 95 bands below the barrier top 2e5 are levels as narrow
        # as 1e-100, where |M| reaches 1e120.
        V = Potential.piecewise_linear([0.0, 0.5], [0.0, 2e5])
        tracemalloc.start()
        try:
            got = spectrum_bands(V, 1.0, 2.5e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (edges,), *_ = hill._edge_count(V, [2.5e6])
        assert edges == 987 and len(got.bands) == 494 and got.warnings == ()
        assert peak < 40e6

    def test_lambda_max_just_past_a_band_top(self):
        # G is within its rounding bound up to 1.8e-4 past the top of the
        # band [77.2639, 77.2688].  lambda_max in that zone must not clip the
        # band.
        V = Potential.piecewise_linear(*FOUND_CELL)
        (top,) = [b for a, b in spectrum_bands(V, 1.0, 100.0).bands if 77.26 < a < 77.27]
        for past in (1e-6, 1e-4):
            got = spectrum_bands(V, 1.0, top + past)
            assert got.warnings == () and abs(got.bands[-1][1] - top) <= 1e-10

    def test_spectrum_bands_evaluates_no_lambda_grid(self, monkeypatch):
        # each pass of the transfer-matrix kernel over a deep cell gets a
        # number of lam that follows the edges asked for, not a grid's: the
        # first count takes the ends of the comparison brackets and
        # lambda_max, 2 K + 3 lam for the K free gaps below lambda_max - min
        # V (edges 2k and 2k + 1 share a bracket), and every later pass one
        # lam per bracket at most.  These cells reach the bound (31 lam).
        sizes, piece = [], hill._piece

        def counted(q0, s, h):
            sizes.append(q0.shape[1])
            return piece(q0, s, h)

        monkeypatch.setattr(hill, "_piece", counted)
        cells = [Potential.piecewise_linear(*DEEP_DOUBLE_WELL),
                 Potential.piecewise_linear([0.0, 0.05, 0.1], [0.0, -60.0, 0.0])]
        for V in cells:
            for lambda_max in (0.0, 150.0, 2000.0):
                sizes.clear()
                spectrum_bands(V, 1.0, lambda_max)
                gaps = math.floor(math.sqrt(lambda_max - V.min_value()) / math.pi)
                assert sizes and max(sizes) <= 2 * gaps + 3, (gaps, max(sizes))


class TestEdgeSolve:
    """The edge solve of exact cells: bisection on the count E until each
    bracket holds one edge, then one root solve of G on all of them from the
    values of G the counts took at their ends."""

    @pytest.mark.parametrize("breakpoints, values, lambda_max", [
        # test_gap_narrower_than_touch_rule_of_exact_cell: a 1.27e-2-wide gap
        ([0.0, 0.38, 0.545, 0.727], [-3.365, 2.554, -2.01, 0.086], 273.742),
        ([0.0, 0.25, 0.5, 0.75], [-2.0, 1.5, -1.0, 3.0], 300.0),
    ])
    def test_kernel_passes_per_band_list(self, monkeypatch, breakpoints, values, lambda_max):
        # passes of the edge count and of the transfer-matrix kernel (the
        # root solve of G), as many as these cells take: 8 and 11 counts
        # (the second cell's gaps, 7e-3 and 2.9e-2 wide in brackets 5 wide,
        # take 11) and 9 solves each.  On the benchmark's band lists 5.1
        # counts and 9.1 solves on average, at most 10 and 14.
        calls, count, kernel = [], hill._edge_count, hill.transfer_matrices

        def counted(name, f):
            return lambda V, lams: calls.append(name) or f(V, lams)

        monkeypatch.setattr(hill, "_edge_count", counted("E", count))
        monkeypatch.setattr(hill, "transfer_matrices", counted("G", kernel))
        blist = spectrum_bands(Potential.piecewise_linear(breakpoints, values), 1.0, lambda_max)
        assert len(blist.bands) == 6 and blist.warnings == ()
        assert calls.count("E") <= 11 and calls.count("G") <= 9, calls

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(exact_cells(60.0))
    def test_lambda_0_lies_below_the_mean(self, V):
        # mean V, the Rayleigh quotient of u = 1, bounds lam_0 above unless
        # V is constant; min V bounds it below
        mean = fourier_coefficient(*V.params, 0).real
        E = hill._edge_count(V, [V.min_value(), mean])[0]
        assert E[0] == 0 and E[1] >= 1
        lam_0 = spectrum_bands(V, 1.0, mean + 1.0).bands[0][0]
        assert V.min_value() < lam_0 < mean

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(exact_cells(40.0), st.floats(20.0, 400.0))
    # G is within its rounding bound up to 1.8e-4 past the top of this
    # cell's band [77.2639, 77.2688]: G's root, not a count there, is the edge
    @example(Potential.piecewise_linear(*FOUND_CELL), 300.0 - min(FOUND_CELL[1]))
    @example(Potential.piecewise_linear(*FOUND_CELL), 2000.0 - min(FOUND_CELL[1]))
    def test_every_gap_edge_is_a_sign_change_of_G(self, V, span):
        # G, computed here, changes sign within 4 _EDGE_TOL of every listed
        # edge but touches and a band's top clipped at lambda_max: no
        # isolated bracket lost its root
        lambda_max = V.min_value() + span
        blist = spectrum_bands(V, 1.0, lambda_max)
        assert blist.warnings == ()
        assume(blist.bands)  # lam_0 may lie above lambda_max
        edges = [blist.bands[0][0]] + [e for (_, b), (a, _) in zip(blist.bands, blist.bands[1:])
                                       if b < a for e in (b, a)]
        if blist.bands[-1][1] < lambda_max:
            edges.append(blist.bands[-1][1])
        M = transfer_matrices(V, np.array(edges) + 4.0 * hill._EDGE_TOL * np.array([[-1.0], [1.0]]))
        a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
        # Delta^2 - 4 in the form that rounds less: (a - d)^2 + 4bc beside a
        # narrow gap, (Delta - 2)(Delta + 2) where the entries are large
        # (the first rounds to +-0.5 at the found cell's band at -269.51,
        # where |M| = 5e7)
        square = (a - d) ** 2
        G = np.where(square + 4.0 * np.abs(b * c) <= 4.0 * (np.abs(a) + np.abs(d)),
                     square + 4.0 * b * c, (a + d - 2.0) * (a + d + 2.0))
        assert np.all(G[0] * G[1] < 0.0), (edges, G)

    @pytest.mark.parametrize("lambda_max", [0.0, 1790.0])
    def test_band_narrower_than_the_tolerance_keeps_its_width(self, lambda_max):
        # band 1 of this cell, a level deep in the well at -1016.156, is far
        # narrower than the tolerance: its two edges, each solved on G beside
        # a lam inside it, come back at that lam.  Bisected on E instead, it
        # is listed as the bracket about it, between E = 0 and E = 2.
        V = Potential.piecewise_linear([0.0, 0.27], [1445.0, -1345.0])
        blist = spectrum_bands(V, 1.0, lambda_max)
        (edges,), *_ = hill._edge_count(V, [lambda_max])
        assert blist.warnings == () and len(blist.bands) == (edges + 1) // 2
        a, b = blist.bands[0]
        assert 0.0 < b - a <= 2.0 * hill._EDGE_TOL
        assert hill._edge_count(V, [a, b])[0].tolist() == [0, 2]

    def test_edge_the_root_solve_cannot_place_is_bisected_on_the_count(self, monkeypatch):
        # G of one sign at both ends of every isolated bracket (|G| from the
        # counts): the root solve places no edge, so each is bisected on E
        # to the tolerance, inside the bracket its warning names
        V = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        want = np.array(spectrum_bands(V, 1.0, 100.0).bands).ravel()[:-1]
        count = hill._edge_count

        def one_sign(V, lams):
            E, G, sure = count(V, lams)
            return E, np.abs(G), sure

        monkeypatch.setattr(hill, "_edge_count", one_sign)
        blist = spectrum_bands(V, 1.0, 100.0)
        got = np.array(blist.bands).ravel()[:-1]  # the top is lambda_max
        assert len(blist.warnings) == want.size == 7
        assert np.all(np.abs(got - want) <= 2.0 * hill._EDGE_TOL), got - want
        for warning in blist.warnings:
            lo, hi, j = re.fullmatch(r"G has one sign at both ends of \[(\S+), (\S+)\], which holds "
                                     r"band edge (\d+) by the edge count: placed by bisection "
                                     r"on the count", warning).groups()
            assert float(lo) <= got[int(j) - 1] <= float(hi)


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
        for index in (0, 2, [1, 0], [1, 2]):
            with pytest.raises(ValueError, match="band_index must lie in 1..1"):
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

    def test_band_clipped_at_lambda_max_raises(self):
        # band 2 of this cell ends near 39.6; clipped at 15, the eigenvalue at
        # k = 1 (about 25 on the whole band) is not bracketed by the clipped
        # edges. k = 3 (about 11) lies below the clip and is still found.
        V = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        clipped, whole = bands_of(V, lambda_max=15.0), bands_of(V)
        assert clipped.bands[1][1] == 15.0 < band_function(V, 1.0, whole, 2, 1.0)
        with pytest.raises(NonConvergenceError, match="clipped at lambda_max"):
            band_function(V, 1.0, clipped, 2, 1.0)
        with pytest.raises(NonConvergenceError, match="in band 2 .*clipped at lambda_max"):
            band_function(V, 1.0, clipped, [1, 2], 1.0)  # among rows, still named
        assert band_function(V, 1.0, clipped, 2, 3.0) == pytest.approx(
            band_function(V, 1.0, whole, 2, 3.0), abs=1e-9)

    @pytest.mark.parametrize("l", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("V", [
        FREE, Potential.cosine(7.8326), Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5]),
    ], ids=["free", "cosine", "piecewise"])
    def test_rows_equal_per_band_calls(self, V, l):
        bands = spectrum_bands(V, l, 60.0)
        indices = list(range(1, len(bands.bands)))  # the last band is clipped
        ks = np.linspace(0.0, math.pi / l, 9)
        rows = band_function(V, l, bands, indices, ks)
        assert rows.shape == (len(indices), ks.size)
        for row, index in zip(rows, indices):
            assert np.array_equal(row, band_function(V, l, bands, index, ks))
        at_k = band_function(V, l, bands, indices, 0.7 / l)
        assert at_k.tolist() == [band_function(V, l, bands, i, 0.7 / l) for i in indices]
        assert band_function(V, l, bands, [], ks).shape == (0, ks.size)

    def test_cosine_rows_of_two_chain_sizes(self):
        # bands up to 300 take chains of several sizes; each row keeps its own
        V = Potential.cosine(7.8326)
        bands = spectrum_bands(V, 1.0, 300.0)
        indices = list(range(1, len(bands.bands)))
        assert len({hill._chain_size(V, b) for _, b in bands.bands[:-1]}) >= 2
        ks = np.linspace(0.0, math.pi, 7)
        rows = band_function(V, 1.0, bands, indices, ks)
        for row, index in zip(rows, indices):
            assert np.array_equal(row, band_function(V, 1.0, bands, index, ks))

    def test_piecewise_rows_one_root_solve(self, monkeypatch):
        V = Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5])
        bands = bands_of(V)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return find_roots(*args, **kwargs)

        find_roots = hill.find_roots
        monkeypatch.setattr(hill, "find_roots", counting)
        rows = band_function(V, 1.0, bands, [1, 2], np.linspace(0.0, math.pi, 7))
        assert len(calls) == 1 and rows.shape == (2, 7)

    def test_array_with_bad_k_rejected(self):
        with pytest.raises(DomainError):
            band_function(FREE, 1.0, bands_of(FREE), 1, np.array([0.5, 4.0]))

    def test_cell_length_checked(self):
        # as in spectrum_bands: whole periods, but any length for constant cells
        bands = spectrum_bands(COS, 1.0, 50.0)
        for l in (1.5, 0.0, -1.0):
            with pytest.raises(ValueError, match="cell length"):
                band_function(COS, l, bands, 1, 0.5)
        with pytest.raises(ValueError, match="positive"):
            band_function(FREE, -1.3, bands_of(FREE), 1, 0.5)

    @staticmethod
    def assert_dispersion_solved(V, l, disc, lambda_max):
        """Inside the zone of every whole band, lam(k) within 1e-10 of a
        tight solve of disc(lam) = 2 cos(l k) between the band's edges."""
        bands = spectrum_bands(V, l, lambda_max)
        ks = np.linspace(0.0, math.pi / l, 11)[1:-1]
        worst = 0.0
        for band in range(1, len(bands.bands)):  # the last band is clipped
            a, b = bands.bands[band - 1]
            for k, lam in zip(ks, band_function(V, l, bands, band, ks)):
                want = brentq(lambda x: disc(x) - 2.0 * math.cos(l * k), a, b, xtol=1e-14)
                worst = max(worst, abs(lam - want))
        assert worst <= 1e-10, worst
        return worst

    @pytest.mark.parametrize("l", [2.0, 3.0, 4.0])
    def test_piecewise_long_cells(self, l):
        # against the trace of the product of l one-period matrices
        for V in (Potential.piecewise_linear([0.0, 0.3, 0.7], [0.0, 1.0, -0.5]),
                  Potential.piecewise_linear([0.0, 0.2, 0.45], [-20.0, 15.0, 3.0])):
            self.assert_dispersion_solved(
                V, l, lambda x: float(cell_discriminant(V, l, x)), 120.0)

    @pytest.mark.parametrize("kind, c", [("piecewise", c) for c in (2, 3, 4, 8)]
                             + [("cosine", c) for c in (2, 3, 4)])
    def test_long_cells_read_one_period(self, kind, c):
        # band b of c periods is one-period band ceil(b / c) at Delta_1 =
        # 2 cos theta; against a tight solve of f_c(Delta_1) = 2 cos(c k)
        V = (Potential.piecewise_linear([0.0, 0.3, 0.6], [1.0, -2.5, 3.9]) if kind == "piecewise"
             else Potential.cosine(7.0))
        worst = self.assert_dispersion_solved(
            V, float(c), lambda x: float(trace_poly(c, discriminant(V, 1.0, x))), 120.0)
        assert worst <= hill._EDGE_TOL

    @pytest.mark.parametrize("l", [0.7, 1.0, 1.3, 1.9, 2.0, 3.0])
    def test_constant_cells_of_any_length(self, l):
        # against the free discriminant 2 cos(l sqrt(lam - v)); every flat
        # cell takes any real l > 0, and one off flat by 1e-12 takes only
        # whole numbers of periods
        v = -1.7
        for V in (Potential.constant(v), Potential.piecewise_linear([0.0, 0.5], [v, v]),
                  Potential.cosine(0.0)):
            w = V.min_value()
            self.assert_dispersion_solved(V, l, lambda x: free_discriminant(l, x - w), 200.0)
        if l != round(l):
            with pytest.raises(ValueError, match="multiple of the period"):
                spectrum_bands(Potential.piecewise_linear([0.0, 0.5], [v, v + 1e-12]), l, 200.0)

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


class TestSizeGuard:
    """Cells and bounds that would ask for more than _MAX_BANDS bands are
    refused before any array is sized, naming the input."""

    @pytest.mark.parametrize("big", [1e14, 1e300])
    def test_huge_potentials_refused(self, big):
        for V in (Potential.cosine(big), Potential.piecewise_linear([0.0, 0.5], [0.0, big])):
            with pytest.raises(ValueError, match="the potential's range"):
                spectrum_bands(V, 1.0, 25.0)
            with pytest.raises(ValueError, match="the potential's range"):
                band_function(V, 1.0, hill.BandList(((0.0, 25.0),)), 1, 0.5)

    @pytest.mark.parametrize("big", [1e14, 1e300])
    def test_huge_lambda_refused(self, big):
        for V in (FREE, COS, Potential.piecewise_linear([0.0, 0.5], [0.0, 1.0])):
            with pytest.raises(ValueError, match="lambda"):
                spectrum_bands(V, 1.0, big)
        with pytest.raises(ValueError, match="lambda"):
            band_function(FREE, 1.0, hill.BandList(((0.0, big),)), 1, 0.5)
        with pytest.raises(ValueError, match="lambda"):
            band_function(FREE, 1.0, hill.BandList(((0.0, 25.0), (30.0, big))), [1, 2], 0.5)

    def test_long_cells_count(self):
        # c periods hold c times the bands: refused at c = 1e6 where one
        # period passes
        assert len(spectrum_bands(FREE, 1.0, 25.0).bands) == 2
        with pytest.raises(ValueError, match="length 1e\\+06"):
            spectrum_bands(FREE, 1e6, 25.0)
        with pytest.raises(ValueError, match="length 1e\\+06"):
            band_function(FREE, 1e6, hill.BandList(((0.0, 25.0),)), 1, 0.0)
