"""Density evolution under the piecewise-linear fold maps and their polynomial
conjugates: exact pushforwards of step densities, L1 distances, the
arcsine-type invariant densities, and exact mixing checks in rational
arithmetic.  A density q enters as its step approximation, the cell masses
from its CDF (:func:`delta_to_kappa`), within (h/2) V(q) in L1 on cells of
width h; :func:`variation` gives V of a step density, and
:func:`counterexample_density` shows the decay rate needs V(q) finite.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
# quad_singular is not called here: perfbench/tracing.py counts quadratures
# under transfer.quad_singular.
from .numerics import quad_singular  # noqa: F401


@dataclass(frozen=True)
class StepDensity:
    """A piecewise-constant function on [edges[0], edges[-1]].

    Densities are nonnegative; signed step functions (differences of
    densities) are allowed so the pushforward can be tested for linearity.
    Outside its edge span a step density is understood as zero.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or v.ndim != 1 or e.size != v.size + 1 or v.size < 1:
            raise ValueError("need n+1 edges for n cell values")
        if not np.all(np.diff(e) > 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "StepDensity":
        return cls(np.array([lo, hi]), np.array([1.0 / (hi - lo)]))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def mass(self) -> float:
        return float(np.dot(self.values, self.widths))

    def norm1(self) -> float:
        return float(np.dot(np.abs(self.values), self.widths))

    def normalized(self) -> "StepDensity":
        if np.any(self.values < 0):
            raise ValueError("cannot normalise a signed step function")
        return StepDensity(self.edges, self.values / self.mass())

    def cdf(self, x):
        """Integral over (-inf, x] (zero extension outside the span).

        The CDF of a step density is piecewise linear, so interpolation over
        the cumulative cell masses is exact.  Accepts scalars or arrays.
        """
        cum = np.concatenate([[0.0], np.cumsum(self.values * self.widths)])
        out = np.interp(x, self.edges, cum)
        return out if isinstance(x, np.ndarray) else float(out)

    def integral(self, a: float, b: float) -> float:
        return self.cdf(b) - self.cdf(a)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, xs, side="right") - 1, 0, len(self.values) - 1)
        out = np.where((xs >= self.edges[0]) & (xs <= self.edges[-1]), self.values[idx], 0.0)
        return out if isinstance(x, np.ndarray) else float(out)

    def simplify(self) -> "StepDensity":
        """Merge adjacent cells with identical values."""
        keep = np.concatenate([[True], self.values[1:] != self.values[:-1]])
        starts = np.nonzero(keep)[0]
        edges = np.concatenate([self.edges[starts], [self.edges[-1]]])
        return StepDensity(edges, self.values[starts])

    def to_csv_rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), float(v))
            for i, v in enumerate(self.values)
        ]

    def to_json(self) -> str:
        return json.dumps({"edges": self.edges.tolist(), "values": self.values.tolist()})


# Invariant densities ---------------------------------------------------------

def invariant_density(kind: str, x: float | np.ndarray) -> float | np.ndarray:
    """The arcsine-type invariant densities.

    ``logistic_q``: 1 / (pi sqrt(x (1 - x))) on (0, 1);
    ``discriminant_D``: 1 / (pi sqrt(4 - x^2)) on (-2, 2).

    A scalar gives a float; an array gives an array, elementwise, and any
    element outside the open domain raises.
    """
    if kind == "logistic_q":
        lo, hi = 0.0, 1.0
    elif kind == "discriminant_D":
        lo, hi = -2.0, 2.0
    else:
        raise ValueError(f"unknown invariant density {kind!r}")
    x = np.asarray(x, dtype=float)
    if x.size and not (x.min() > lo and x.max() < hi):
        name = "q" if kind == "logistic_q" else "D"
        raise DomainError(f"{name} is defined on the open ({lo:g}, {hi:g})")
    inner = x * (1.0 - x) if kind == "logistic_q" else 4.0 - x * x
    out = 1.0 / (math.pi * np.sqrt(inner))
    return float(out) if out.ndim == 0 else out


def invariant_cdf(delta: float | np.ndarray) -> float | np.ndarray:
    """CDF of the discriminant invariant density: 1/2 + asin(delta/2)/pi.

    A scalar gives a float; an array gives an array, elementwise, and any
    element outside [-2, 2] raises.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.size and not (delta.min() >= -2.0 and delta.max() <= 2.0):
        raise DomainError("delta must lie in [-2, 2]")
    out = 0.5 + np.arcsin(delta / 2.0) / math.pi
    return float(out) if out.ndim == 0 else out


def invariant_quantile(u: float | np.ndarray) -> float | np.ndarray:
    """Quantile of the discriminant invariant density: -2 cos(pi u).

    A scalar gives a float; an array gives an array, elementwise, and any
    element outside [0, 1] raises.
    """
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise DomainError("u must lie in [0, 1]")
    out = -2.0 * np.cos(math.pi * u)
    return float(out) if out.ndim == 0 else out


# Exact pushforward under the piecewise-linear folds ---------------------------

def pushforward_fold(p: StepDensity, l: int) -> StepDensity:
    """Exact image on [0, 1], under the fold of slope +-``l``, of a compactly
    supported density on [0, inf).

    Every source cell is split at the fold breakpoints j/l, mapped through its
    (single) linear branch onto [0, 1] with weight value/l, and the
    overlapping images are summed by an event sweep over their endpoints.
    """
    lo, hi = p.domain
    if lo < -1e-12:
        raise DomainError("fold input must live on [0, inf)")
    j0 = int(math.floor(lo * l))
    j1 = int(math.ceil(hi * l))
    grid = np.arange(j0, j1 + 1) / l
    edges = np.union1d(p.edges, grid[(grid > lo) & (grid < hi)])
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = p(mids)

    branch = np.floor(mids * l).astype(int)
    up = branch % 2 == 0
    e_lo, e_hi = edges[:-1], edges[1:]
    ya = np.where(up, e_lo * l - branch, -e_hi * l + branch + 1)
    yb = np.where(up, e_hi * l - branch, -e_lo * l + branch + 1)
    weights = vals / l

    nz = weights != 0.0
    ya, yb, weights = ya[nz], yb[nz], weights[nz]
    out_edges, inverse = np.unique(np.concatenate([ya, yb]), return_inverse=True)
    deltas = np.zeros(out_edges.size)
    np.add.at(deltas, inverse[: ya.size], weights)
    np.add.at(deltas, inverse[ya.size :], -weights)
    levels = np.cumsum(deltas)[:-1]
    # The running sum rounds at every event, so a cell covered by one image
    # takes that image's weight as it is, and a cell covered by none 0: the
    # count of covering images and the sum of their indices are exact.
    image = np.stack([np.ones(ya.size, dtype=np.int64), np.arange(ya.size)])
    cover = np.zeros((2, out_edges.size), dtype=np.int64)
    np.add.at(cover, (slice(None), inverse[: ya.size]), image)
    np.add.at(cover, (slice(None), inverse[ya.size :]), -image)
    count, index = np.cumsum(cover, axis=1)[:, :-1]
    levels[count == 0] = 0.0
    levels[count == 1] = weights[index[count == 1]]
    if out_edges.size < 2:
        return StepDensity(np.array([0.0, 1.0]), np.array([0.0]))
    return StepDensity(out_edges, levels).simplify()


def pushforward_tent(p: StepDensity, m: int) -> StepDensity:
    """Exact transfer-operator image of ``p`` under the m-piece tent map."""
    lo, hi = p.domain
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise DomainError("tent pushforward expects a density on [0, 1]")
    return pushforward_fold(p, m)


# Conjugate route for the polynomial maps --------------------------------------

def delta_to_kappa(p: StepDensity, resolution: int) -> StepDensity:
    """Project a density on [-2, 2] onto a uniform grid in the fold coordinate.

    kappa = arccos(delta/2)/pi; each kappa cell receives exactly the mass of
    its delta image, so the projection error is pure within-cell averaging.
    A density reaching outside [-2, 2] raises :class:`DomainError` rather
    than losing the mass there.
    """
    lo, hi = p.domain
    if lo < -2.0 - 1e-12 or hi > 2.0 + 1e-12:
        raise DomainError("expected a density on [-2, 2]")
    k_edges = np.linspace(0.0, 1.0, resolution + 1)
    cum = p.cdf(2.0 * np.cos(np.pi * k_edges))
    masses = cum[:-1] - cum[1:]
    return StepDensity(k_edges, masses * resolution)


def kappa_to_delta(pk: StepDensity) -> StepDensity:
    """Inverse coordinate change of :func:`delta_to_kappa` (mass preserving)."""
    d_edges = 2.0 * np.cos(np.pi * pk.edges)[::-1]
    masses = (pk.values * pk.widths)[::-1]
    return StepDensity(d_edges, masses / np.diff(d_edges))


def pushforward_genlogistic(
    p: StepDensity, m: int, resolution: int = 2**14
) -> StepDensity:
    """Transfer-operator image under the degree-m trace polynomial.

    Works through the conjugacy delta = 2 cos(pi kappa): project onto a
    uniform kappa grid, push exactly through the m-piece tent map on that
    grid (:func:`_fold_grid`), and map back.  Mass is preserved to rounding.
    """
    return _grid_to_delta(_fold_grid(delta_to_kappa(p, resolution).values, m))


def _fold_grid(v: np.ndarray, m: int) -> np.ndarray:
    """The m-piece tent image of the density with values ``v`` on the uniform
    grid of N = v.size cells of [0, 1], as values on a uniform grid again.

    Branch j maps the edge i/N to +-(m i/N - j), another grid point.  If m
    divides N, branch j carries the N/m source cells of row j of
    ``v.reshape(m, N // m)`` onto the N/m output cells, odd rows in reverse.
    Otherwise the image lives on N cells: fine cell jN + k of the m-fold
    refinement lies in source cell (jN + k) // m and maps onto output cell k,
    or N - 1 - k for odd j.  Each image density is the source value over m.
    """
    rows = (v if v.size % m == 0 else np.repeat(v, m)).reshape(m, -1)
    return (rows[0::2].sum(axis=0) + rows[1::2, ::-1].sum(axis=0)) / m


def _grid_to_delta(v: np.ndarray) -> StepDensity:
    """The uniform kappa-grid density with values ``v``, cells of equal value
    merged, mapped back to [-2, 2]."""
    pk = StepDensity(np.linspace(0.0, 1.0, v.size + 1), v)
    return kappa_to_delta(pk.simplify())


def l1_to_uniform(pk: StepDensity) -> float:
    """Exact L1 distance on [0, 1] between a step density and the constant 1."""
    lo, hi = pk.domain
    d = float(np.dot(np.abs(pk.values - 1.0), pk.widths))
    return d + max(lo - 0.0, 0.0) + max(1.0 - hi, 0.0)


def uniform_kappa_projection(resolution: int) -> StepDensity:
    """Exact kappa projection of the uniform density on [-2, 2].

    The mass of the uniform density between the delta images of a kappa cell
    has the closed form (cos(pi a) - cos(pi b)) / 2, from one cosine per
    edge.
    """
    k = np.linspace(0.0, 1.0, resolution + 1)
    c = np.cos(np.pi * k)
    masses = 0.5 * (c[:-1] - c[1:])
    return StepDensity(k, masses * resolution)


def evolve_genlogistic(
    m: int,
    steps: int,
    resolution: int = 2**14,
    initial: StepDensity | None = None,
) -> tuple[list[dict], StepDensity]:
    """Iterate the exact transfer operator and record convergence.

    The evolution runs in the fold coordinate, where the invariant density is
    the constant 1 and the recorded ``l1_to_invariant`` is exact; it equals
    the L1 distance of the transported density to the arcsine density through
    the (measure-preserving) coordinate change.  The density stays on a
    uniform kappa grid (:func:`_fold_grid`), and ``resolution`` in each record
    is that grid's cell count: ``resolution`` at step 0, divided by m at each
    step while m divides it, unchanged otherwise.  ``mass`` and
    ``l1_to_invariant`` are sums over the grid's values.  Returns the
    per-step records and the final density, cells of equal value merged,
    mapped back to [-2, 2].  ``initial`` is a step density on [-2, 2], or
    None for the uniform density there.
    """
    if m < 1 or steps < 0 or resolution < 1:
        raise ValueError("need m >= 1 and steps >= 0 and a resolution >= 1")
    if initial is None:
        v = uniform_kappa_projection(resolution).values
    else:
        v = delta_to_kappa(initial, resolution).values
    records = []
    for n in range(steps + 1):
        records.append(
            {
                "step": n,
                "l1_to_invariant": float(np.sum(np.abs(v - 1.0))) / v.size,
                "mass": float(np.sum(v)) / v.size,
                "resolution": int(v.size),
            }
        )
        if n < steps:
            v = _fold_grid(v, m)
    return records, _grid_to_delta(v)


# Distances and variation -------------------------------------------------------

def l1_distance(p: StepDensity, q: StepDensity) -> float:
    """Exact L1 distance between two step densities, each zero-extended to
    their common span.  The distance to the arcsine law is
    :func:`l1_to_invariant`."""
    if not isinstance(q, StepDensity):
        raise TypeError("l1_distance takes two step densities; "
                        "the distance to the arcsine law is l1_to_invariant")
    edges = np.union1d(p.edges, q.edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.dot(np.abs(p(mids) - q(mids)), np.diff(edges)))


def l1_to_invariant(p: StepDensity) -> float:
    """Exact L1 distance from a step density to the arcsine law
    D(delta) = 1/(pi sqrt(4 - delta^2)) on [-2, 2], in closed form.

    D = v > 1/(2 pi) at +-c(v) = +-sqrt(4 - 1/(pi v)^2), and D >= v
    everywhere for v <= 1/(2 pi) (c = 0).  Cut at +-c(v) and +-2, each piece
    of a cell of value v adds |v dx - dF|, F = :func:`invariant_cdf`, which
    is flat past +-2 where D is 0; the rest of [-2, 2] adds its mass under
    D.  A density reaching more than 1e-9 past +-2 raises DomainError.
    """
    lo, hi = p.domain
    if lo < -2.0 - 1e-9 or hi > 2.0 + 1e-9:
        raise DomainError("step density exceeds [-2, 2]")
    a, b, v = p.edges[:-1, None], p.edges[1:, None], p.values[:, None]
    c = np.sqrt(np.maximum(4.0 - (math.pi * np.maximum(v, 0.5 / math.pi)) ** -2, 0.0))
    cuts = np.clip(np.hstack(np.broadcast_arrays(a, -2.0, -c, c, 2.0, b)), a, b)
    dF = np.diff(invariant_cdf(np.clip(cuts, -2.0, 2.0)), axis=1)
    cells = np.abs(v * np.diff(cuts, axis=1) - dF)
    tails = invariant_cdf(max(lo, -2.0)) + 1.0 - invariant_cdf(min(hi, 2.0))
    return float(np.sum(cells) + tails)


def variation(p: StepDensity) -> float:
    """Total variation of the zero-extended step function: both boundary
    values plus all interior jumps."""
    v = p.values
    return float(abs(v[0]) + np.sum(np.abs(np.diff(v))) + abs(v[-1]))


def counterexample_density(i_max: int) -> StepDensity:
    """Truncation of the unbounded-variation density sum 2^(i/2) on the dyadic
    cells (2^-(i+1), 2^-i], i = 0..i_max-1.

    Its fold images lose only O(2^(-n/2)) per doubling instead of O(2^-n),
    which shows the bounded-variation decay rate is sharp about its
    hypothesis.  The truncated mass is (1 - 2^(-i_max/2)) (2 + sqrt(2)) / 2.
    """
    if i_max < 1:
        raise ValueError("i_max must be a positive integer")
    edges = [2.0 ** (-(i + 1)) for i in range(i_max)][::-1] + [1.0]
    values = [2.0 ** (i / 2.0) for i in range(i_max)][::-1]
    return StepDensity(np.array(edges), np.array(values))


COUNTEREXAMPLE_LIMIT_MASS = (2.0 + math.sqrt(2.0)) / 2.0
COUNTEREXAMPLE_ERROR_CONSTANT = (2.0 + math.sqrt(2.0)) / 4.0


# Exact preimages and mixing ----------------------------------------------------

def _exactish(x):
    return Fraction(x) if isinstance(x, (int, Fraction)) else x


def _check_preimage_args(m: int, n: int, *intervals) -> None:
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    for a, b in intervals:
        if a > b or a < 0 or b > 1:
            raise DomainError(f"[{a}, {b}] is not a subinterval of [0, 1]")


def _branch_preimage(j: int, M: int, a, b) -> tuple:
    """The part of [a, b]'s preimage in branch j of the fold of slope M."""
    lo, hi = (j + a, j + b) if j % 2 == 0 else (j + 1 - b, j + 1 - a)
    return lo / M, hi / M


def preimage_intervals(m: int, n: int, target: tuple) -> list[tuple]:
    """The n-fold tent-map preimage of an interval, as disjoint intervals.

    n steps of the m-piece fold are the single fold of slope M = m^n
    (g_m^n = g_{m^n}), so the target is pulled back once through its M
    branches: branch j holds one interval, in order of j, and intervals that
    touch at a branch end are merged.  Integer or Fraction inputs are
    processed in exact rational arithmetic.
    """
    a, b = (_exactish(v) for v in target)
    _check_preimage_args(m, n, (a, b))
    M = m**n
    intervals = []
    for j in range(M):
        lo, hi = _branch_preimage(j, M, a, b)
        if intervals and lo <= intervals[-1][1]:
            intervals[-1] = (intervals[-1][0], hi)
        else:
            intervals.append((lo, hi))
    return intervals


def mixing_correlation(m: int, n: int, A: tuple, B: tuple):
    """Lebesgue(g_m^-n(A) intersect B) - |A| |B|, by counting branches.

    g_m^n is the fold of slope M = m^n, and each of its M branches, of width
    1/M, holds one copy of A's preimage, of length |A|/M.  The branches
    strictly inside B add their count c times |A|/M; the at most two branches
    that B cuts, floor(b1 M) and ceil(b2 M) - 1, add their exact overlap with
    B.  So the cost is O(1) operations per call, whatever n.

    Both Lebesgue(g_m^-n(A) & B) and |A| |B| lie in [c |A|/M, (c + 2) |A|/M],
    so |correlation| <= 2 |A| / m^n: an explicit mixing rate.  It vanishes
    when both ends of B lie on the 1/M grid, so for m-adic intervals A and B
    once n reaches their digit resolution, which is the strong-mixing
    mechanism of the tent maps.

    A and B must be subintervals of [0, 1] (DomainError).  Integer and
    Fraction inputs give an exact Fraction.  Float inputs are taken exactly
    as Fractions and the result is rounded to a float.
    """
    ends = (*A, *B)
    exact = all(isinstance(v, (int, Fraction)) for v in ends)
    a1, a2, b1, b2 = (Fraction(v) for v in ends)
    _check_preimage_args(m, n, (a1, a2), (b1, b2))
    M = m**n
    first, stop = math.ceil(b1 * M), math.floor(b2 * M)
    inter = max(stop - first, 0) * (a2 - a1) / M
    for j in {math.floor(b1 * M), math.ceil(b2 * M) - 1}:
        if 0 <= j < M and not first <= j < stop:
            lo, hi = _branch_preimage(j, M, a1, a2)
            inter += max(min(hi, b2) - max(lo, b1), 0)
    corr = inter - (a2 - a1) * (b2 - b1)
    return corr if exact else float(corr)
