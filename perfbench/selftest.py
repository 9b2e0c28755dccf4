"""Self-test of the benchmark harness; it does not run the program.

    python3 perfbench/selftest.py

Checks that job generation is a pure function of the seed, that another seed
gives other inputs, that the band-edge references agree with independent
computations, that every oracle accepts an output built from its own
reference and rejects the same output with one value perturbed, and that a
failure counts as known only within the parent's defects.  Exits 1 on the
first failed check.
"""
from __future__ import annotations

import json
import math
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

import oracles
import workloads

BATCHES = 3
RESULTS = Path(__file__).resolve().parent / "results"


def write_csv(path: Path, header, rows):
    lines = ["# synthetic", ",".join(header)]
    lines += [",".join(f"{v:.16e}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps({"config": {}, **payload}))


# A writer puts a correct output for the job in place and returns a function that
# perturbs that output in place.

def write_out_bands_json(job, path):
    lam_max = job.meta["lambda_max"]
    full = oracles._reference_bands(oracles._cell(job.meta), lam_max)
    ref = [[a, min(b, lam_max)] for a, b in full if a <= lam_max]
    write_json(path, {"bands": ref, "warnings": []})

    def perturb():
        bad = [list(b) for b in ref]
        bad[0][1] += 10 * oracles.EDGE_TOL
        write_json(path, {"bands": bad, "warnings": []})
    return perturb


def write_out_bands_csv(job, path):
    meta = job.meta
    cell = oracles._cell(meta)
    full = oracles._reference_bands(cell, meta["lambda_max"])
    n_bands = sum(1 for a, _ in full if a <= meta["lambda_max"])
    l, n_k = meta["l"], meta["k_points"]
    rows = []
    for band in range(1, n_bands + 1):
        for i in range(n_k):
            k = math.pi / l * i / (n_k - 1)
            rows.append((band, k, oracles.dispersion_reference(cell, full, band, k, l)))
    header = ["band_index", "k", "lambda"]
    write_csv(path, header, rows)

    def perturb():
        bad = list(rows)
        b, k, lam = bad[len(bad) // 2]
        bad[len(bad) // 2] = (b, k, lam + 10 * oracles.EDGE_TOL)
        write_csv(path, header, bad)
    return perturb


def write_out_mathieu(job, path):
    x0, n = job.meta["x0"], job.meta["n"]
    exact = [float(x) for x in oracles.exact_logistic(x0, n)]
    header = ["n", "formula", "direct", "abs_diff"]
    write_csv(path, header, [(i, x, x, 0.0) for i, x in enumerate(exact)])
    job.meta["_stdout"] = f"lambda0 = {oracles.mathieu_lambda0_reference():.8f}\n"

    def perturb():
        bad = list(exact)
        bad[1] += 1e-6  # far beyond DISC_TOL / 4 times any step-1 gain (<= 4)
        write_csv(path, header, [(i, x, x, 0.0) for i, x in enumerate(bad)])
    return perturb


def write_out_ensemble(job, path):
    n, iters = job.meta["samples"], job.meta["iters"]
    floor = 1.0 / math.sqrt(n)
    d = [oracles.w1_initial(job.meta["dist"])] + [floor] * iters
    report = {"m": job.meta["m"], "n_samples": n, "distances": d, "noise_floor": floor,
              "config": {"threads": job.meta["threads"]}}
    write_json(path, {"report": report})

    def perturb():
        bad = dict(report, distances=d[:-1] + [4.0 * floor])
        write_json(path, {"report": bad})
    return perturb


def write_out_density(job, path):
    m, steps = job.meta["m"], job.meta["steps"]
    records = [{"step": s, "l1_to_invariant": oracles.l1_exact(m, s), "mass": 1.0,
                "resolution": job.meta["resolution"]} for s in range(steps + 1)]
    write_json(path, {"report": records})

    def perturb():
        bad = [dict(r) for r in records]
        bad[-1]["l1_to_invariant"] += 2.0 * oracles.projection_error(job.meta["resolution"])
        write_json(path, {"report": bad})
    return perturb


def write_out_mixing(job, path):
    meta = job.meta
    A = tuple(Fraction(x) for x in meta["a"])
    B = tuple(Fraction(x) for x in meta["b"])
    exact = [oracles.mixing_exact(meta["m"], n, A, B) for n in range(1, meta["n_max"] + 1)]
    header = ["n", "correlation", "exact_zero"]
    rows = [(n, float(c), int(c == 0)) for n, c in enumerate(exact, 1)]
    write_csv(path, header, rows)

    def perturb():
        bad = list(rows)
        n, c, z = bad[0]
        bad[0] = (n, math.nextafter(c, math.inf), 0)  # one ulp off
        write_csv(path, header, bad)
    return perturb


def write_out_quadrature(job, path):
    res = {"m": job.meta["m"], "value": math.log(job.meta["m"]), "error_estimate": 1e-10}
    write_json(path, {"result": res})

    def perturb():
        write_json(path, {"result": dict(res, value=res["value"] + 1e-8)})
    return perturb


def write_out_orbit(job, path):
    res = {"m": job.meta["m"], "value": math.log(job.meta["m"]) + 1e-3, "error_estimate": 1e-3}
    write_json(path, {"result": res})

    def perturb():
        write_json(path, {"result": dict(res, value=math.log(job.meta["m"]) + 5e-3)})
    return perturb


def write_out_sweep(job, path):
    lo, hi, count = job.meta["a_min"], job.meta["a_max"], job.meta["count"]
    grid = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    rows = [(a, oracles.log_potential(a)) for a in grid]
    write_csv(path, ["a", "I"], rows)

    def perturb():
        bad = list(rows)
        a, v = bad[-1]
        bad[-1] = (a, v + 1e-8)
        write_csv(path, ["a", "I"], bad)
    return perturb


WRITERS = {
    "bands_json": write_out_bands_json, "bands_csv": write_out_bands_csv,
    "mathieu": write_out_mathieu, "ensemble": write_out_ensemble, "density": write_out_density,
    "mixing": write_out_mixing, "lyapunov_quadrature": write_out_quadrature,
    "lyapunov_orbit": write_out_orbit, "sweep": write_out_sweep,
}


def ivp_discriminant(cell, lam: float) -> float:
    """Trace of the monodromy of -u'' + V u = lam u by a tight ODE solve, one
    linear piece at a time: independent of the Airy transfer matrices."""
    y = np.eye(2)
    for x0, x1, v0, v1 in cell.pieces:
        s = (v1 - v0) / (x1 - x0)

        def rhs(x, u, x0=x0, v0=v0, s=s):
            q = v0 + s * (x - x0) - lam
            return [u[1], q * u[0], u[3], q * u[2]]

        sol = solve_ivp(rhs, (x0, x1), [y[0, 0], y[1, 0], y[0, 1], y[1, 1]],
                        method="DOP853", rtol=1e-13, atol=1e-15)
        f = sol.y[:, -1]
        y = np.array([[f[0], f[2]], [f[1], f[3]]])
    return float(y[0, 0] + y[1, 1])


def cross_check_references() -> None:
    """The band-edge references against independent computations."""
    for amp in (0.5, 5.0, 25.0):
        cell = oracles.CosineCell(amp)
        edges = cell.edges(400.0)[:12]
        # band edges are the periodic (k = 0) and antiperiodic (k = pi) eigenvalues
        bloch = sorted([*cell.bloch(0.0, 7), *cell.bloch(math.pi, 6)])[:12]
        err = max(abs(a - b) for a, b in zip(edges, bloch))
        check(err < 1e-10, f"cosine A={amp}: Mathieu edges match the Fourier-Hill "
              f"eigenvalues at k = 0, pi (worst {err:.2g})")
    cell = oracles.PiecewiseCell([0.0, 0.31, 0.62], [-2.5, 3.1, 0.4])
    lams = (-3.0, 0.7, 12.5, 60.0, 150.0, 300.0)
    err = max(abs(float(cell.disc(lam)[0]) - ivp_discriminant(cell, lam)) for lam in lams)
    check(err < 1e-11, f"piecewise: Airy discriminant matches an ODE solve at {lams} "
          f"(worst {err:.2g})")


def check_known_scopes(out: Path) -> None:
    """A failure counts as known only within the parent's defects."""
    rec = {"rc": 2, "exc": None, "stdout": "",
           "stderr": "numerical failure: quadrature error bound 1.3e-10 exceeds the request"}
    for m, known in ((20, True), (5, False)):
        job = workloads.Job("q", 0, "lyapunov_quadrature", [], "q.json", {"m": m})
        check(oracles.check(job, rec, out).known == known,
              f"quadrature exit 2 at m={m} is {'' if known else 'not '}a known defect")
    for lo, hi, count, known in ((-3.0, 3.0, 61, True), (-1.5, 1.9, 11, False),
                                 (4.1, 5.9, 30, False)):
        job = workloads.Job("s", 0, "sweep", [], "s.csv",
                            {"a_min": lo, "a_max": hi, "count": count})
        check(oracles.check(job, rec, out).known == known,
              f"sweep exit 2 on [{lo}, {hi}] x {count} is {'' if known else 'not '}known")
    meta = {"potential": "cosine", "lambda_max": 60.0, "l": 1.0, "amplitude": 20.0}
    job = workloads.Job("b", 0, "bands_json", [], "b.json", meta)
    full = oracles._reference_bands(oracles._cell(meta), 60.0)
    ref = [[a, min(b, 60.0)] for a, b in full if a <= 60.0]
    for shift, known in ((1e-8, True), (1e-3, False)):
        bad = [list(b) for b in ref]
        bad[0][1] += shift  # the first gap of A = 20 is about 20 wide
        write_json(out / job.out, {"bands": bad, "warnings": []})
        got = oracles.check(job, {"rc": 0, "exc": None}, out)
        check(not got.ok and got.known == known,
              f"an edge {shift:g} off beside a wide gap is {'' if known else 'not '}known")


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    for wl in workloads.WORKLOADS:
        a = [j.argv for j in workloads.generate(wl, 7, BATCHES)]
        b = [j.argv for j in workloads.generate(wl, 7, BATCHES)]
        c = [j.argv for j in workloads.generate(wl, 8, BATCHES)]
        check(a == b, f"{wl}: seed 7 gives the same {len(a)} argv lists twice")
        # identical argv lists may only come from slots with few admissible
        # values (quadrature m, density-evolve) or a fixed input (README sweep)
        def fixed(x):
            return ("quadrature" in x or x[0] == "density-evolve"
                    or x[1:7] == workloads.README_SWEEP)

        same = [x for x, y in zip(a, c) if x == y]
        check(len(same) < len(a) and all(fixed(x) for x in same),
              f"{wl}: seed 8 changes every continuous input "
              f"({len(same)} of {len(a)} argv lists repeat)")
        dupes = Counter(tuple(x) for x in a if x[0] in ("bands", "mathieu", "mixing-check"))
        check(max(dupes.values(), default=1) == 1, f"{wl}: no bands, mathieu or mixing "
              "input repeats within a run")
    check(workloads.QUADRATURE_M == tuple(range(2, 25)),
          "the quadrature groups hold every m in 2-24 once")
    quad = [int(j.argv[2]) for j in workloads.generate("exponents", 7, 7)
            if j.kind == "lyapunov_quadrature"]
    check(sorted(quad) == list(range(2, 25)), "seven exponents batches run each m once")
    cross_check_references()

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        out = Path(tmp)
        seen = set()
        for wl in workloads.WORKLOADS:
            for job in workloads.generate(wl, 3, 1):
                key = (job.kind, job.meta.get("potential"))
                if key in seen:
                    continue
                seen.add(key)
                job = replace(job, meta=dict(job.meta))
                perturb = WRITERS[job.kind](job, out / job.out)
                rec = {"rc": 0, "exc": None, "stdout": job.meta.get("_stdout", ""),
                       "stderr": ""}
                good = oracles.check(job, rec, out)
                check(good.ok, f"{job.kind} ({job.id}) accepts its reference output "
                      f"(err {good.err:.2g}, tol {good.tol:.2g}) {good.reason} {good.detail}")
                perturb()
                bad = oracles.check(job, rec, out)
                check(not bad.ok, f"{job.kind} ({job.id}) rejects a perturbed output: "
                      f"{bad.reason}")
        check({kind for kind, _ in seen} == set(WRITERS),
              f"every oracle was exercised: {sorted(seen, key=str)}")

        job = workloads.generate("exponents", 3, 1)[0]
        check(oracles.check(job, {"rc": 2, "exc": None, "stdout": "", "stderr": "x"}, out).reason
              == "exit2", "a non-zero exit fails its job")
        check(oracles.check(job, {"rc": None, "exc": "RuntimeError: x", "stdout": "",
                                  "stderr": ""}, out).reason == "raised",
              "a raising job fails")
        check_known_scopes(out)

        p1, p2 = out / "t1.json", out / "t2.json"
        rep = {"distances": [1.0, 0.5], "config": {"threads": 1, "n_iters": 1}}
        write_json(p1, {"report": rep})
        write_json(p2, {"report": dict(rep, config={"threads": 2, "n_iters": 1})})
        check(oracles.ensemble_fingerprint(p1) == oracles.ensemble_fingerprint(p2),
              "thread count alone does not change the ensemble fingerprint")
        write_json(p2, {"report": dict(rep, distances=[1.0, 0.5000000001])})
        check(oracles.ensemble_fingerprint(p1) != oracles.ensemble_fingerprint(p2),
              "a changed distance changes the ensemble fingerprint")
    return 0


if __name__ == "__main__":
    sys.exit(main())
