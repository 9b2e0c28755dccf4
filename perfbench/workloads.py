"""Seeded job lists for the three benchmark workloads.

A workload is an endless stream of batches; a batch is the list of CLI jobs
one researcher's script would run.  Every batch covers the same slots, and
within a batch the slots that cost most are paired so that the batch cost
stays level.  The values that set a job's cost (lambda_max, amplitudes, cell
shapes, k-points, sample counts, orders m, orbit lengths) come from a design
keyed by the batch index alone and are then moved by a small seeded jitter,
so that batch b costs about the same under every seed and the runs of two
seeds differ in noise, not in work.  Every other value (ensemble seeds,
starting points, intervals, sweep ranges) is drawn from the seed.  No two
jobs of a run share an input, except where the CLI has fewer admissible
values than a run has jobs (quadrature ``--m``, dealt so that an order
repeats only after all 23 have run; the 2^20 density job after six
batches) or where the workload means it (the two thread counts of an
ensemble).

Only the standard library is used, so generating jobs imports nothing the
program under test imports.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectra", "statistics", "exponents")
JITTER = 0.02  # seeded shift of a design quantile


@dataclass
class Job:
    """One CLI invocation and the facts its oracle needs."""

    id: str
    batch: int
    kind: str  # oracle family, e.g. "bands_json", "ensemble"
    argv: list
    out: str  # output file name, relative to the run's output directory
    meta: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


class _Gen:
    """State of one workload stream: the seeded RNG, the batch design RNG,
    the batch being built and the inputs used so far."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen: set = set()
        self.deck: list = []  # the current cycle of a dealt slot
        self.jobs: list[Job] = []
        self.start_batch(0)

    def start_batch(self, batch: int) -> None:
        self.batch, self.in_batch = batch, 0
        self.design = random.Random(f"{self.workload}:design:{batch}")

    def q(self) -> float:
        """A design quantile in [0, 1], shifted by the seed's jitter."""
        u = self.design.random() + self.rng.uniform(-JITTER, JITTER)
        return min(max(u, 0.0), 1.0)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.q()

    def log_uniform(self, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** self.q()

    def fresh(self, key, draw):
        """Redraw until ``key(value)`` is new; after 64 tries the repeat is
        accepted (the slot has run out of admissible values)."""
        for _ in range(64):
            value = draw()
            if key(value) not in self.seen:
                break
        self.seen.add(key(value))
        return value

    def add(self, kind: str, sub: str, args: list, ext: str, **meta) -> Job:
        jid = f"{self.workload[:2]}{self.batch:03d}.{self.in_batch:02d}"
        self.in_batch += 1
        out = f"{jid}.{ext}"
        job = Job(jid, self.batch, kind, [sub, *args, "--out", out, "--no-timestamp"],
                  out, meta)
        self.jobs.append(job)
        return job


# ------------------------------------------------------------------ spectra

def _piecewise_cell(g: _Gen, pieces: int):
    """A design cell moved by the seed: breakpoints 0 < ... < 1 at least 0.15
    apart and values in [-4, 4] whose cyclic neighbours differ by at least 1,
    so every linear piece has slope of magnitude >= 1 (the Airy reference
    needs a nonzero slope).  The design keeps margins the jitter cannot eat."""
    d = g.design
    while True:
        bps = sorted(d.uniform(0.15, 0.85) for _ in range(pieces - 1))
        pts = [0.0, *bps, 1.0]
        vals = [d.uniform(-3.9, 3.9) for _ in range(pieces)]
        if (min(b - a for a, b in zip(pts, pts[1:])) >= 0.17
                and min(abs(vals[i] - vals[i - 1]) for i in range(pieces)) >= 1.2):
            break
    bps = [round(b + g.rng.uniform(-0.005, 0.005), 3) for b in bps]
    vals = [round(v + g.rng.uniform(-0.05, 0.05), 3) for v in vals]
    return [0.0, *bps], vals


def _bands(g: _Gen, kind: str, potential: str, lam_max: float, ext: str,
           k_points: int | None = None, **extra):
    lam_max = round(lam_max, 3)
    args = ["--potential", potential, "--lambda-max", _fmt(lam_max)]
    meta = {"potential": potential, "lambda_max": lam_max, "l": 1.0}
    if potential == "cosine":
        args += ["--value", _fmt(extra["amplitude"])]
        meta["amplitude"] = extra["amplitude"]
    elif potential == "free":
        args += ["--l", _fmt(extra["l"])]
        meta["l"] = extra["l"]
    else:
        bps, vals = _piecewise_cell(g, extra["pieces"])
        # "--values -0.7,..." would parse as a flag: use the = form
        args += ["--breakpoints=" + ",".join(_fmt(b) for b in bps),
                 "--values=" + ",".join(_fmt(v) for v in vals)]
        meta["breakpoints"], meta["values"] = bps, vals
    if k_points is not None:
        args += ["--k-points", str(k_points)]
        meta["k_points"] = k_points
    g.add(kind, "bands", args, ext, **meta)


def _spectra_batch(g: _Gen) -> None:
    # cosine band lists: one lambda_max from each third of [20, 300], paired
    # with one amplitude from each third of [0.5, 25] (log scale)
    strata = [0, 1, 2]
    g.design.shuffle(strata)
    for i, j in enumerate(strata):
        lam = g.uniform(20.0 + 280.0 * i / 3, 20.0 + 280.0 * (i + 1) / 3)
        amp = round(g.log_uniform(0.5 * 50.0 ** (j / 3), 0.5 * 50.0 ** ((j + 1) / 3)), 4)
        _bands(g, "bands_json", "cosine", lam, "json", amplitude=amp)
    # piecewise band lists: a cheap and a dear lambda_max, paired so their
    # cost (which grows like sqrt(lambda_max)) stays level
    v = g.q()
    _bands(g, "bands_json", "piecewise", 20.0 + 140.0 * v, "json", pieces=3)
    _bands(g, "bands_json", "piecewise", 300.0 - 140.0 * v, "json", pieces=4)
    _bands(g, "bands_json", "free", g.uniform(20.0, 300.0), "json",
           l=round(g.uniform(0.5, 2.0), 4))

    # one dispersion curve of two bands: lambda_max in [20, 34] lies above the
    # second band's start and below the third's for every cell drawn here.  A
    # curve costs one root solve per band and k-point, so the potential takes
    # turns and the k-point count is matched to its cost per root solve.
    kind = ("cosine", "piecewise", "free")[g.batch % 3]
    lam_max = g.uniform(20.0, 34.0)
    if kind == "cosine":
        extra = {"amplitude": round(g.log_uniform(0.5, 25.0), 4)}
    elif kind == "piecewise":
        extra = {"pieces": 3}
    else:  # l sqrt(lam_max) / pi in (1, 2): two bands
        extra = {"l": round(g.uniform(1.1, 1.9) * math.pi / math.sqrt(lam_max), 4)}
    k_lo, k_hi = {"cosine": (15, 21), "piecewise": (9, 15), "free": (27, 33)}[kind]
    k_points = k_lo + round((k_hi - k_lo) * g.q())
    _bands(g, "bands_csv", kind, lam_max, "csv", k_points=k_points, **extra)

    x0 = round(g.rng.uniform(0.02, 0.98), 6)
    n = g.design.randint(2, 8)
    g.add("mathieu", "mathieu", ["--x0", _fmt(x0), "--n", str(n)], "csv", x0=x0, n=n)


# --------------------------------------------------------------- statistics

# Iterations per m: enough for the exact decay to fall well below the noise
# floor at 2e6 samples, so the last step measures the floor.
ENSEMBLE_ITERS = {2: 10, 3: 7, 4: 6, 5: 5}
# Two rungs, each with a fixed cost and the orders m it takes in turn; the
# sample count follows from m through the measured cost of one sample-step
# (a sample through one map step and one W1), which grows with the degree m.
# Below these counts the fit region is shorter than two iterations and the
# CLI exits 1 by contract.
ENSEMBLE_STEP_COST = {2: 1.0, 3: 1.3, 4: 1.3, 5: 1.4}
ENSEMBLE_RUNGS = ((1.16e6, (2, 3)), (1.68e7, (2, 3, 4, 5)))
# log2 resolutions of the density-evolution jobs, from arrays below the L2
# cache to above it
DENSITY_RUNGS = ((14, 15), (16, 17), (18, 19))
DENSITY_STEPS = (4, 5, 6)


def _statistics_batch(g: _Gen) -> None:
    rng = g.rng
    for r, (work, ms) in enumerate(ENSEMBLE_RUNGS):
        m = ms[g.batch % len(ms)]
        iters = ENSEMBLE_ITERS[m]
        samples = int(work * g.uniform(0.97, 1.0) / ((iters + 1) * ENSEMBLE_STEP_COST[m]))
        dist = "uniform" if m == 2 and g.design.random() < 0.5 else "shifted_gamma"
        seed = rng.randrange(2**31)
        pair = [1, 2] if rng.random() < 0.5 else [2, 1]
        for threads in pair:
            g.add("ensemble", "ensemble",
                  ["--m", str(m), "--samples", str(samples), "--iters", str(iters),
                   "--seed", str(seed), "--threads", str(threads), "--dist", dist],
                  "json", m=m, samples=samples, iters=iters, seed=seed,
                  threads=threads, dist=dist, pair=f"{g.batch}:{r}")
    steps = DENSITY_STEPS[g.batch % len(DENSITY_STEPS)]
    configs = []
    for lo, hi in DENSITY_RUNGS:
        configs.append(g.fresh(lambda v: ("density", steps, v),
                               lambda: (g.design.randint(2, 5), 2 ** g.design.randint(lo, hi))))
    # resolution 2^20 with even m: an odd fold leaves the grid unaligned and
    # costs several times more, which the lower rungs cover
    configs.append(((2, 4)[g.batch % 2], 2**20))
    for m, res in configs:
        g.add("density", "density-evolve",
              ["--m", str(m), "--steps", str(steps), "--resolution", str(res)],
              "json", m=m, steps=steps, resolution=res)
    for _ in range(2):
        m = g.design.randint(2, 5)
        # A inside (0, 1): its preimage after n steps is then m^n disjoint
        # intervals, so the job's cost does not depend on the seed.
        a, b = g.fresh(lambda v: ("mixing", m, v),
                       lambda: (_madic_interval(rng, m, interior=True),
                                _madic_interval(rng, m)))
        # m^n_max is ~1e4 for every m, past every digit resolution drawn here
        # (at most 3)
        n_max = int(math.log(1e4) / math.log(m))
        g.add("mixing", "mixing-check",
              ["--m", str(m), "--a-left", a[0], "--a-right", a[1],
               "--b-left", b[0], "--b-right", b[1], "--n-max", str(n_max)],
              "csv", m=m, a=list(a), b=list(b), n_max=n_max)


def _madic_interval(rng: random.Random, m: int, interior: bool = False):
    """A subinterval of [0, 1] with endpoints on the grid m^-d, d in 1..3,
    and digit resolution exactly d; with ``interior``, inside (0, 1)."""
    d = rng.randint(1, 3)
    if interior and m**d < 3:
        d = 2
    den = m**d
    while True:
        i, j = sorted(rng.sample(range(interior, den + 1 - interior), 2))
        if d == 1 or any(x % m for x in (i, j)):
            return f"{i}/{den}", f"{j}/{den}"


# ----------------------------------------------------------------- exponents

README_SWEEP = ["--a-min", "-3", "--a-max", "3", "--count", "61"]
# Every admissible quadrature order, m 2-24, in groups of about equal cost
# (0.18-0.19 s each at the parent): one group per batch, the seven groups
# dealt in a seeded order, so an order repeats only after all 23 have run.
QUADRATURE_GROUPS = ((24,), (2, 9, 23), (7, 13, 22), (3, 10, 14, 21),
                     (5, 12, 15, 20), (6, 8, 16, 19), (4, 11, 17, 18))
QUADRATURE_M = tuple(sorted(m for group in QUADRATURE_GROUPS for m in group))
ORBIT_TERMS = 1.5e6  # n (m + 1) Horner terms per orbit job


def _exponents_batch(g: _Gen) -> None:
    rng = g.rng
    turn = g.batch % len(QUADRATURE_GROUPS)
    if turn == 0:
        g.deck = rng.sample(QUADRATURE_GROUPS, len(QUADRATURE_GROUPS))
    for m in rng.sample(g.deck[turn], len(g.deck[turn])):
        g.add("lyapunov_quadrature", "lyapunov",
              ["--m", str(m), "--method", "quadrature"], "json", m=m)
    # one orbit of a fixed budget of Horner terms, so its cost stays level
    # while m takes turns over 2-5 and n ranges over 2.2e5-5.5e5
    m = 2 + g.batch % 4
    n = int(ORBIT_TERMS * g.uniform(0.9, 1.1) / (m + 1))
    x0 = round(rng.uniform(-1.99, 1.99), 6)
    g.add("lyapunov_orbit", "lyapunov",
          ["--m", str(m), "--method", "orbit", "--x0", _fmt(x0), "--n", str(n)],
          "json", m=m, n=n, x0=x0)
    if g.batch == 0:  # the README's sweep, verbatim, once per run
        g.add("sweep", "integral-sweep", list(README_SWEEP), "csv", a_min=-3.0,
              a_max=3.0, count=61)
    # one sweep inside the band [-2, 2], one outside it, one across an edge
    sign = rng.choice((-1.0, 1.0))
    inner = sorted(rng.uniform(-2.0, 2.0) for _ in range(2))
    outer = sorted(sign * rng.uniform(2.05, 6.0) for _ in range(2))
    edge = sorted((sign * rng.uniform(0.5, 2.0), sign * rng.uniform(2.0, 4.0)))
    for lo, hi in (inner, outer, edge):
        lo = round(lo, 3)
        hi = round(max(hi, lo + 0.05), 3)
        count = rng.randint(5, 61)
        g.add("sweep", "integral-sweep",
              [f"--a-min={_fmt(lo)}", f"--a-max={_fmt(hi)}", "--count", str(count)],
              "csv", a_min=lo, a_max=hi, count=count)


_BATCH = {
    "spectra": _spectra_batch,
    "statistics": _statistics_batch,
    "exponents": _exponents_batch,
}


def batches(workload: str, seed: int):
    """The workload's endless stream of batches, each a list of jobs.  The
    stream is a pure function of (workload, seed)."""
    if workload not in _BATCH:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    g = _Gen(workload, seed)
    while True:
        start = len(g.jobs)
        _BATCH[workload](g)
        yield g.jobs[start:]
        g.start_batch(g.batch + 1)


def generate(workload: str, seed: int, count: int) -> list[Job]:
    """The jobs of the first ``count`` batches."""
    stream = batches(workload, seed)
    return [job for _ in range(count) for job in next(stream)]
