import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hillmap import cli, ensemble
from hillmap.ensemble import (
    BLOCK,
    CHUNK,
    InitialDistribution,
    W1_FLOOR_COEFF,
    convergence_experiment,
    detect_linear_region,
    sample_initial,
    wasserstein1,
)
from hillmap.errors import ConfigurationError
from hillmap.maps import trace_poly
from hillmap.transfer import StepDensity, invariant_quantile, pushforward_genlogistic

# convergence_experiment(2, shifted_gamma(), 50_000, 4, seed=123).distances as
# the monomial (Horner) evaluation of f_2 gave them.
PINNED_M2_DISTANCES = [
    "0x1.14c9930b810e0p+0",
    "0x1.75934ca57b91ap-3",
    "0x1.97c3379a756c9p-2",
    "0x1.47e83bef10298p-4",
    "0x1.b6811cbd3c8f1p-7",
]

# Frozen output of the Philox-keyed sampler: uniform(-2, 2), n=4, seed 20240601.
GOLDEN_UNIFORM_4 = [
    0.214930286418622,
    -1.4771562099021858,
    -1.1788526745693555,
    1.8772768318398576,
]


class TestSampleInitial:
    def test_golden_uniform(self):
        got, rejections = sample_initial(InitialDistribution.uniform(), 4, 20240601)
        assert got.tolist() == GOLDEN_UNIFORM_4
        assert rejections == 0

    def test_single_sample_in_domain(self):
        # seed 32 draws a shifted-gamma value above 2 first, so the one-sample
        # chunk rejects all of its first draws and must redraw
        for dist in (InitialDistribution.uniform(), InitialDistribution.shifted_gamma()):
            for seed in (99, 32):
                v, _ = sample_initial(dist, 1, seed)
                assert v.shape == (1,)
                assert -2.0 <= v[0] <= 2.0

    def test_gamma_rejection_fraction(self):
        n = 200_000
        samples, rejections = sample_initial(InitialDistribution.shifted_gamma(), n, 7)
        assert np.all(samples >= -2.0) and np.all(samples <= 2.0)
        # repeated redraws make the expected count n p/(1-p) with p = e^-4
        p = math.exp(-4.0)
        expected = n * p / (1.0 - p)
        assert abs(rejections - expected) < 5.0 * math.sqrt(expected)

    def test_deterministic_across_chunk_boundaries(self):
        dist = InitialDistribution.shifted_gamma()
        big, _ = sample_initial(dist, 70_000, 3)
        again, _ = sample_initial(dist, 70_000, 3)
        assert np.array_equal(big, again)
        # without rejection redraws, a shorter request is a verbatim prefix
        plain = InitialDistribution.uniform()
        assert np.array_equal(
            sample_initial(plain, 70_000, 3)[0][:1_000], sample_initial(plain, 1_000, 3)[0]
        )

    @staticmethod
    def _draws_good_at(monkeypatch, good_round):
        """Patch ``_draw``: the first draw has one value out of the domain, and
        every redraw stays out of it until round ``good_round``."""
        calls = []

        def fake(dist, rng, size, out=None):
            calls.append(size)
            if len(calls) == 1:
                vals = np.zeros(size) if out is None else out
                vals[...] = 0.0
                vals[0] = 5.0
                return vals
            return np.array([0.5 if len(calls) - 1 == good_round else 5.0])

        monkeypatch.setattr(ensemble, "_draw", fake)
        return calls

    def test_redraw_succeeding_on_last_round(self, monkeypatch):
        calls = self._draws_good_at(monkeypatch, 64)
        samples, rejections = sample_initial(InitialDistribution.shifted_gamma(), 10, 1)
        assert len(calls) == 65
        assert samples[0] == 0.5 and np.all(samples[1:] == 0.0)
        assert rejections == 64

    def test_redraw_still_bad_after_last_round(self, monkeypatch):
        calls = self._draws_good_at(monkeypatch, 65)
        with pytest.raises(ConfigurationError, match="did not terminate"):
            sample_initial(InitialDistribution.shifted_gamma(), 10, 1)
        assert len(calls) == 65

    def test_clamp_alternative(self):
        dist = InitialDistribution.shifted_gamma(clamp_to_domain=True)
        samples, rejections = sample_initial(dist, 50_000, 3)
        assert np.all(samples >= -2.0) and np.all(samples <= 2.0)
        # clamping piles the out-of-domain tail onto the boundary
        assert np.count_nonzero(samples == 2.0) == rejections > 0

    @pytest.mark.parametrize("dist", [
        InitialDistribution.uniform(),
        InitialDistribution.shifted_gamma(),
        InitialDistribution.shifted_gamma(clamp_to_domain=True),
    ], ids=["uniform", "gamma", "gamma-clamped"])
    def test_each_chunk_is_numpys_draw_from_its_own_key(self, dist):
        # oracle: chunk i comes from Generator(Philox(key=(seed << 64) + i))
        # by NumPy's own uniform(-2, 2) or gamma(1, 1) - 2, each value out of
        # [-2, 2] redrawn from the same stream until it falls inside (or
        # clipped).  At seed 36 the gamma law rejects in every chunk, the
        # 17-value one among them, and some redraws fall outside again.
        n, seed = 2 * CHUNK + 17, 36
        expect, rejected, first_round = [], 0, []
        for i in range(-(-n // CHUNK)):
            rng = np.random.Generator(np.random.Philox(key=(seed << 64) + i))
            size = min(CHUNK, n - i * CHUNK)

            def draw(k):
                if dist.kind == "uniform":
                    return rng.uniform(-2.0, 2.0, k)
                return rng.gamma(1.0, 1.0, k) - 2.0

            vals = draw(size)
            bad = np.flatnonzero(np.abs(vals) > 2.0)
            rejected += bad.size
            first_round.append(bad.size)
            if dist.clamp_to_domain:
                vals, bad = np.clip(vals, -2.0, 2.0), bad[:0]
            while bad.size:
                redraw = draw(bad.size)
                ok = np.abs(redraw) <= 2.0
                vals[bad[ok]] = redraw[ok]
                bad = bad[~ok]
                rejected += bad.size
            expect.append(vals)
        samples, rejections = sample_initial(dist, n, seed)
        assert np.array_equal(samples, np.concatenate(expect))
        assert rejections == rejected
        if dist.kind == "shifted_gamma":
            assert min(first_round) > 0
            assert dist.clamp_to_domain or rejections > sum(first_round)
        else:
            assert rejections == 0

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1 << 128])
    def test_seed_outside_64_bits_refused_by_name(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            sample_initial(InitialDistribution.uniform(), 4, seed)

    def test_largest_seed_runs(self):
        for dist in (InitialDistribution.uniform(), InitialDistribution.shifted_gamma()):
            samples, _ = sample_initial(dist, CHUNK + 1, (1 << 64) - 1)
            assert np.all(np.abs(samples) <= 2.0)

    @pytest.mark.parametrize("kind", ["bogus", "Uniform", "shifted-gamma"])
    def test_unknown_kind_refused_when_built(self, kind):
        # refused before any experiment runs, not at the first draw
        with pytest.raises(ValueError, match="unknown distribution kind"):
            InitialDistribution(kind)


class TestWasserstein1:
    def test_quantile_matched_sample_is_zero(self):
        n = 1000
        u = (np.arange(n) + 0.5) / n
        samples = -2.0 * np.cos(np.pi * u)
        assert wasserstein1(samples) == 0.0

    def test_point_mass_at_zero(self):
        # mean |2 cos(pi u)| over midpoints -> 4/pi
        n = 10_000
        got = wasserstein1(np.zeros(n))
        assert abs(got - 4.0 / math.pi) < 1e-6

    def test_statistical_floor_of_invariant_samples(self):
        n = 10**6
        rng = np.random.Generator(np.random.Philox(key=11))
        x = -2.0 * np.cos(np.pi * rng.uniform(0.0, 1.0, n))
        val = wasserstein1(np.sort(x))
        assert val < 5e-3
        # floor coefficient calibration stays honest within a factor ~2
        assert 0.3 * W1_FLOOR_COEFF / math.sqrt(n) < val < 3.0 * W1_FLOOR_COEFF / math.sqrt(n)

    def test_rejects_unsorted_and_empty(self):
        with pytest.raises(ValueError):
            wasserstein1(np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            wasserstein1(np.array([]))


_sorted_samples = st.lists(
    st.floats(-2.0, 2.0), min_size=1, max_size=300
).map(sorted)


@given(_sorted_samples)
def test_wasserstein1_equals_reference_formula(xs):
    s = np.array(xs)
    u = (np.arange(s.size) + 0.5) / s.size
    assert wasserstein1(s) == float(np.mean(np.abs(s - (-2.0 * np.cos(math.pi * u)))))


@given(_sorted_samples, st.data())
def test_wasserstein1_rejects_any_adjacent_swap(xs, data):
    distinct = [i for i in range(len(xs) - 1) if xs[i] != xs[i + 1]]
    assume(distinct)
    i = data.draw(st.sampled_from(distinct))
    xs[i], xs[i + 1] = xs[i + 1], xs[i]
    with pytest.raises(ValueError, match="sorted"):
        wasserstein1(np.array(xs))


class TestDetectLinearRegion:
    def test_geometric_above_floor(self):
        d = [1.0 * 0.5**i for i in range(8)]
        assert detect_linear_region(d, noise_floor=1e-4) == (1, 7)

    def test_threshold_rule(self):
        d = [1.0, 0.5, 0.25, 0.12, 0.06, 2e-4, 1e-4, 9e-5]
        assert detect_linear_region(d, noise_floor=1e-4) == (1, 4)

    def test_late_spike_does_not_extend_region(self):
        # iteration 4 clears 3x the floor again, but iteration 3 already sits
        # at the floor: the region ends with the leading run
        d = [1.0, 0.5, 0.25, 2e-4, 5e-4, 1e-4]
        assert detect_linear_region(d, noise_floor=1e-4) == (1, 2)

    def test_no_region_errors(self):
        with pytest.raises(ConfigurationError):
            detect_linear_region([1.0, 1e-6, 1e-7, 1e-7], noise_floor=1e-4)

    def test_too_short(self):
        with pytest.raises(ValueError):
            detect_linear_region([1.0, 0.5], noise_floor=1e-4)


class _SortSpy(np.ndarray):
    """Counts in-place sorts of the array ``whole`` itself, not of its block
    views, so a test can see whether ``_sorted_image`` sorted its whole
    output once more (the boundary repair)."""

    whole = None
    repairs = 0

    def sort(self, *args, **kwargs):
        if self is _SortSpy.whole:
            _SortSpy.repairs += 1
        super().sort(*args, **kwargs)


def _cut_points(m, n):
    """-2, 2, the critical points and every cut preimage of an n-sample step,
    each cut also one ulp either side."""
    n_cells = m * -(-n // BLOCK)
    cuts = invariant_quantile(np.arange(1, n_cells) / n_cells)
    crit = 2.0 * np.cos(np.pi * np.arange(m + 1) / m)
    return np.concatenate(
        ([-2.0, 2.0], crit, cuts, np.nextafter(cuts, -3.0), np.nextafter(cuts, 3.0))
    )


ORDERS = [*range(2, 10), 24, 64]


class TestSortedImage:
    @staticmethod
    def _check(m, s, expect_repair=None, parts=1):
        # the step leaves |s - grid| in the source, the W1 pass's array
        source = s.copy()
        grid = ensemble._quantile_grid(s.size)
        out = np.empty_like(s).view(_SortSpy)
        _SortSpy.whole, _SortSpy.repairs = out, 0
        with ThreadPoolExecutor(parts) if parts > 1 else nullcontext() as pool:
            worst = ensemble._sorted_image(m, source, out, grid, pool, parts)
        image = trace_poly(m, s)
        assert np.array_equal(out, np.sort(np.clip(image, -2.0, 2.0)))
        assert worst == max(-image.min(), image.max())
        assert np.array_equal(source, np.abs(s - grid))
        if expect_repair is not None:
            assert _SortSpy.repairs == int(expect_repair)

    @pytest.mark.parametrize("m", ORDERS)
    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK + 1, 5 * CHUNK])
    def test_matches_sorted_clipped_map(self, m, n):
        rng = np.random.Generator(np.random.Philox(key=m * 1000 + n))
        s = np.sort(-2.0 * np.cos(np.pi * rng.uniform(0.0, 1.0, n)))
        # the cells follow the branches of f_m, so generic samples need no
        # repair; runs of blocks imaged on their own give the same output
        for parts in (1, 2, 3):
            self._check(m, s, expect_repair=False, parts=parts)

    @pytest.mark.parametrize("m", ORDERS)
    def test_samples_on_ends_critical_points_and_cuts(self, m):
        n = 5 * BLOCK
        special = _cut_points(m, n)
        rng = np.random.Generator(np.random.Philox(key=m))
        s = np.sort(np.concatenate((special, rng.uniform(-2.0, 2.0, n - special.size))))
        for parts in (1, 2):
            self._check(m, s, parts=parts)

    @pytest.mark.parametrize("m", [2, 3, 24])
    def test_one_value_filling_many_blocks(self, m):
        # every sample in one cell: one block holds all of them, more than
        # its map's temporaries, and the rest are empty
        for value in (-2.0, 2.0, 0.3, _cut_points(m, 3 * BLOCK)[-1]):
            for parts in (1, 2):
                self._check(m, np.full(3 * BLOCK, value), expect_repair=False, parts=parts)

    @pytest.mark.parametrize("m", [2, 3])
    def test_each_misplaced_cut_forces_the_repair(self, monkeypatch, m):
        # one cut moved a third of a cell up puts the samples just past it
        # into the neighbouring block; that one boundary comes out of order
        # and the whole output is sorted once more.  A cut on a critical
        # point joins two cells of the same block and is left out.
        n = 4 * BLOCK + 3
        n_cells = m * -(-n // BLOCK)
        rng = np.random.Generator(np.random.Philox(key=5))
        s = np.sort(rng.uniform(-2.0, 2.0, n))
        for i in range(1, n_cells):
            if i % (n_cells // m) == 0:
                continue

            def moved(u, i=i):
                u = u.copy()
                u[i - 1] += 1.0 / (3.0 * n_cells)
                return invariant_quantile(u)

            monkeypatch.setattr(ensemble, "invariant_quantile", moved)
            for parts in (1, 2):
                self._check(m, s, expect_repair=True, parts=parts)


@pytest.mark.parametrize("n", [1, 3, BLOCK - 1, BLOCK + 1, 5 * CHUNK + 3])
def test_quantile_grid_is_invariant_quantile_of_the_midpoints(n):
    # written in place block by block, with the bits of the public quantile
    expect = invariant_quantile((np.arange(n) + 0.5) / n)
    for parts in (1, 2, 3):
        with ThreadPoolExecutor(parts) if parts > 1 else nullcontext() as pool:
            assert np.array_equal(ensemble._quantile_grid(n, pool, parts), expect)


def _report_or_error(*args, **kwargs):
    try:
        return json.dumps(asdict(convergence_experiment(*args, **kwargs)))
    except ConfigurationError as e:
        return repr(e)


class TestThreads:
    DISTS = [
        InitialDistribution.uniform(),
        InitialDistribution.shifted_gamma(),
        InitialDistribution.shifted_gamma(clamp_to_domain=True),
    ]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK + 1, 4 * CHUNK + 7])
    def test_reports_identical_at_every_thread_count(self, monkeypatch, m, n):
        # eight CPUs as seen by the experiment, so that three threads make
        # three parts here too; a worker that cannot move to its CPU stays put
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        baseline = threading.active_count()
        for dist in self.DISTS:
            want = _report_or_error(m, dist, n, 3, 11)
            for threads in (2, 3):
                assert _report_or_error(m, dist, n, 3, 11, threads=threads) == want
                assert threading.active_count() == baseline

    def test_workers_capped_at_available_cpus(self, monkeypatch, tmp_path):
        # a huge --threads asks for no more workers than the CPUs this
        # process may use; the pool is recorded, never oversized
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(ensemble, "ThreadPoolExecutor", Recording)
        docs = []
        for threads in ("1", str(10**9)):
            out = tmp_path / f"t{threads}.json"
            assert cli.run(["ensemble", "--m", "2", "--samples", str(4 * CHUNK + 7),
                            "--iters", "1", "--threads", threads, "--out", str(out),
                            "--no-timestamp"]) == 0
            docs.append(json.loads(out.read_text())["report"])
            if threads == "1":
                assert sizes == []  # one thread: no pool
        assert len(sizes) <= 1 and all(s <= len(ensemble._cpus()) for s in sizes)
        assert [d["config"].pop("threads") for d in docs] == [1, 10**9]
        assert docs[0] == docs[1]

    def test_platform_without_cpu_affinity(self, monkeypatch):
        # without sched_getaffinity and sched_setaffinity the workers are
        # neither counted against nor placed on an affinity set
        n = 4 * CHUNK + 7
        dist = InitialDistribution.shifted_gamma()
        want = convergence_experiment(3, dist, n, 2, 6)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.delattr(os, "sched_setaffinity")
        assert convergence_experiment(3, dist, n, 2, 6, threads=2) == want

    def test_threads_below_one_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            convergence_experiment(2, InitialDistribution.uniform(), 100, 1, 0, threads=0)

    def test_sampling_chunks_on_an_executor(self):
        n = 4 * CHUNK + 7
        for dist in self.DISTS:
            want, want_rejections = sample_initial(dist, n, 8)
            with ThreadPoolExecutor(3) as pool:
                got, rejections = sample_initial(dist, n, 8, executor=pool)
            assert np.array_equal(got, want) and rejections == want_rejections


class TestConvergenceExperiment:
    def test_deterministic_and_thread_invariant(self):
        # the experiment keeps no state between calls: repeated runs and
        # concurrent runs in worker threads agree bit for bit
        dist = InitialDistribution.shifted_gamma()

        def run(_=None):
            return convergence_experiment(2, dist, 50_000, 4, seed=123)

        a = run()
        b = run()
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(run, range(3)))
        for c in (b, *threaded):
            assert c.distances == a.distances
            assert c.fitted_slope == a.fitted_slope

    def test_threaded_map_matches_serial_and_draw_order_formula(self):
        # several CHUNK blocks, so the blocked map meets block boundaries
        n, m, iters, seed = 300_000, 3, 3, 123
        assert n >= 4 * CHUNK
        dist = InitialDistribution.shifted_gamma()

        def run(_=None):
            return convergence_experiment(m, dist, n, iters, seed)

        serial = run()
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, range(2)))
        for rep in threaded:
            assert rep.distances == serial.distances
        # the same distances from the recurrence on the whole ensemble in
        # draw order, a sorted copy per iteration and the quantile grid
        # written out
        x, _ = sample_initial(dist, n, seed)
        q = -2.0 * np.cos(math.pi * ((np.arange(n) + 0.5) / n))
        want = [float(np.mean(np.abs(np.sort(x) - q)))]
        for _ in range(iters):
            x = np.clip(trace_poly(m, x), -2.0, 2.0)
            want.append(float(np.mean(np.abs(np.sort(x) - q))))
        assert serial.distances == tuple(want)

    def test_m2_distances_pinned(self):
        # f_2(x) = x*x - 2 from the recurrence and from Horner on the monomial
        # coefficients alike: these are the monomial form's distances and
        # slope, bit for bit
        rep = convergence_experiment(
            2, InitialDistribution.shifted_gamma(), 50_000, 4, seed=123
        )
        assert rep.distances == tuple(map(float.fromhex, PINNED_M2_DISTANCES))
        assert rep.fitted_slope == float.fromhex("-0x1.a5a6929fd5369p-2")
        assert rep.fit_range == (1, 3)

    def test_zero_iterations(self):
        rep = convergence_experiment(3, InitialDistribution.shifted_gamma(), 10_000, 0, seed=5)
        assert len(rep.distances) == 1
        assert rep.fitted_slope is None
        assert rep.fit_range is None

    def test_distances_decay_to_floor(self):
        rep = convergence_experiment(
            2, InitialDistribution.shifted_gamma(), 200_000, 8, seed=42
        )
        assert rep.distances[0] > 1.0  # gamma start is far from invariant
        assert min(rep.distances) < 10.0 * rep.noise_floor
        assert rep.rejections > 0

    def test_slope_at_least_bv_rate(self):
        # the fitted decay must be at least as fast as the 1/m guarantee for
        # jump-free data; smooth initial data overshoots it (towards 1/m^2)
        for m in (2, 3):
            rep = convergence_experiment(
                m, InitialDistribution.shifted_gamma(), 10**6, 8, seed=42
            )
            assert rep.fitted_slope < -0.9 * math.log(m)

    def test_pushforward_consistency_with_transfer(self):
        # one iteration from uniform: the empirical CDF must match the exact
        # transfer-operator prediction within Kolmogorov noise 3/sqrt(n)
        n = 100_000
        samples, _ = sample_initial(InitialDistribution.uniform(), n, 17)
        coeffs = np.array([1.0, 0.0, -2.0])
        pushed = np.sort(np.polyval(coeffs, samples))
        prediction = pushforward_genlogistic(
            StepDensity(np.array([-2.0, 2.0]), np.array([0.25])), 2, resolution=2**12
        )
        grid = np.linspace(-2.0, 2.0, 201)
        emp = np.searchsorted(pushed, grid, side="right") / n
        pred = np.array([prediction.integral(-2.0, g) for g in grid])
        assert np.max(np.abs(emp - pred)) < 3.0 / math.sqrt(n)

    def test_report_json(self):
        rep = convergence_experiment(2, InitialDistribution.shifted_gamma(), 5_000, 3, seed=2)
        data = json.loads(json.dumps(asdict(rep)))
        assert data["m"] == 2
        assert data["seed"] == 2
        assert len(data["distances"]) == 4
        assert data["config"]["n_iters"] == 3
