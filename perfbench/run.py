"""hillmap benchmark: seeded CLI batches checked against independent oracles.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
Reports and spans go to ``perfbench/results/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PAIRS = 3  # before the worker, and again after it
# Nominal seconds of job time per batch on the machine the benchmark was
# written on.  A run judges a fixed number of batches, --seconds over this
# (halved when traced: each traced batch also runs an untraced shadow batch),
# so the jobs it runs, and which of them fail, depend on the seed alone and
# never on the host's speed.
BATCH_S = {"spectra": 3.4, "statistics": 2.9, "exponents": 0.72}
_TIMED_IMPORT = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
PROBE = _TIMED_IMPORT.format("hillmap.cli")
# What hillmap.cli imports from outside the standard library.  Each probe of
# hillmap.cli is paired with one of these, and the import time is reported
# as their ratio times DEPS_IMPORT_S: the median time of this import on the
# machine the benchmark was written on (2 vCPUs, Python 3.11.7, scipy 1.17.1).
DEPS_PROBE = _TIMED_IMPORT.format("numpy, scipy.integrate, scipy.optimize")
DEPS_IMPORT_S = 0.575
SUBCOMMANDS = ("bands", "mathieu", "ensemble", "density-evolve", "mixing-check",
               "lyapunov", "integral-sweep")
# Only the ensemble's own threads may run in parallel: at most nproc of them.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads in this process too

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe(env, code: str = PROBE) -> float:
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"{code} failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def setup_pair(env) -> tuple[float, float]:
    """One import of hillmap.cli and one of its dependencies, each in a fresh
    interpreter: the host's speed drifts by tens of percent over minutes,
    and the ratio of the two is steady where either time is not."""
    return setup_probe(env), setup_probe(env, DEPS_PROBE)


def batch_count(workload: str, seconds: float, trace: int) -> int:
    return max(1, round(seconds / (BATCH_S[workload] * (1 + trace))))


def run_worker(env, work: Path, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    out_dir = work / "out"
    out_dir.mkdir()
    result = work / "run.json"
    with open(work / "run.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             str(batch_count(workload, seconds, trace)), str(trace), str(out_dir), str(result)],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
            timeout=2 * seconds + 100)
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         + (work / "run.log").read_text()[-3000:])
    data = json.loads(result.read_text())
    if not Path(data["hillmap_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"hillmap was imported from {data['hillmap_file']}, not {SRC}")
    data["out_dir"] = out_dir
    return data


def machine() -> dict:
    import numpy as np
    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip() or 0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
        "max_job_threads": 2,
    }


# ----------------------------------------------------------------- judging

def judge_jobs(workload: str, seed: int, data: dict) -> list[dict]:
    import oracles

    jobs = {j.id: j for j in workloads.generate(workload, seed, data["batches"])}
    out_dir = data["out_dir"]
    rows = []
    for rec in data["jobs"]:
        job = jobs[rec["id"]]
        outcome = oracles.check(job, rec, out_dir)
        path = out_dir / job.out
        rows.append({
            "id": job.id, "batch": job.batch, "kind": job.kind, "argv": job.argv,
            "meta": job.meta, "time_s": rec["t_end"] - rec["t_start"], "rc": rec["rc"],
            "ok": outcome.ok, "err": outcome.err, "tol": outcome.tol,
            "reason": outcome.reason, "detail": outcome.detail,
            "edges_missed": outcome.edges_missed, "known": outcome.ok or outcome.known,
            "bytes": path.stat().st_size if path.is_file() else 0,
            "t_start": rec["t_start"], "t_end": rec["t_end"],
        })
    # the thread count must not change an ensemble report
    pairs: dict = {}
    for row in rows:
        if row["kind"] == "ensemble" and row["rc"] == 0:
            pairs.setdefault(row["meta"]["pair"], []).append(row)
    for pair in pairs.values():
        prints = {oracles.ensemble_fingerprint(out_dir / f"{r['id']}.json") for r in pair}
        if len(prints) > 1:
            for r in pair:
                r.update(ok=False, known=False, reason="threads_differ",
                         detail="reports differ between --threads 1 and 2")
    return rows


def batch_walls(rows) -> list[float]:
    """Per batch, in batch order: the summed time of its jobs (the harness's
    own work between jobs is left out)."""
    walls: dict = {}
    for r in rows:
        walls[r["batch"]] = walls.get(r["batch"], 0.0) + r["time_s"]
    return list(walls.values())


def _finite_max(values) -> float:
    vals = [v for v in values if v != float("inf")]
    return max(vals, default=0.0)


def end_to_end(rows, data, setup) -> dict:
    walls = batch_walls(rows)
    refs = [statistics.median(r) for r in data["reference_s"]]
    return {
        "wall_ref": (statistics.mean(w / r for w, r in zip(walls, refs)), "ref"),
        "setup_s": (statistics.median(h / d for h, d in setup) * DEPS_IMPORT_S, "s"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
    }


def per_layer(rows, traced) -> dict:
    tr = traced["trace"]
    nb = traced["batches"]
    calls, own, total, counts = tr["calls"], tr["self_s"], tr["total_s"], tr["counts"]
    m: dict = {}

    def span(name, *fields):
        for f in fields:
            if f == "calls":
                m[f"{name}.calls"] = (calls.get(name, 0) / nb, "count/batch")
            elif f == "self_s":
                m[f"{name}.self_s"] = (own.get(name, 0.0) / nb, "s/batch")
            else:  # a counter kept under the span's name
                m[f"{name}.{f}"] = (counts.get(f"{name}.{f}", 0) / nb, "count/batch")

    span("numerics.integrate_ivp", "calls", "self_s", "rhs_evals")
    span("numerics.find_root", "calls", "self_s", "f_evals")
    span("numerics.quad_singular", "calls", "self_s", "f_evals", "raised")
    for f in ("spectrum_bands", "band_function", "monodromy"):
        span(f"hill.{f}", "calls", "self_s")
    span("maps.mathieu_formula", "calls", "self_s")
    span("maps.mathieu_lambda0", "calls", "self_s", "computed")
    span("maps._mathieu_lambda_top", "calls", "computed")
    span("transfer.pushforward_tent", "calls", "self_s")
    span("transfer.evolve_genlogistic", "self_s")
    span("transfer.mixing_correlation", "self_s")
    span("transfer.preimage_intervals", "calls", "intervals_out")
    m["transfer.cells_in"] = (counts.get("transfer.cells_in", 0) / nb, "count/batch")
    span("ensemble.sample_initial", "self_s")
    m["ensemble.rejections"] = (counts.get("ensemble.rejections", 0) / nb, "count/batch")
    span("ensemble.wasserstein1", "calls", "self_s")
    span("ensemble.convergence_experiment", "self_s")
    t_ens = total.get("ensemble.convergence_experiment", 0.0)
    m["ensemble.samples_per_s"] = (
        counts.get("ensemble.sample_steps", 0) / t_ens if t_ens else 0.0, "1/s")
    by_threads = {1: 0.0, 2: 0.0}
    for r in rows:
        if r["kind"] == "ensemble":
            by_threads[r["meta"]["threads"]] += r["time_s"]
    m["ensemble.speedup_2t"] = (
        by_threads[1] / by_threads[2] if by_threads[2] else 0.0, "ratio")
    span("lyapunov.average_lyapunov_quadrature", "calls", "self_s")
    # quadrature has 23 admissible orders: the share of its jobs that repeat one
    quad = [r["meta"]["m"] for r in rows if r["kind"] == "lyapunov_quadrature"]
    m["lyapunov.quadrature_repeat_frac"] = (
        (len(quad) - len(set(quad))) / len(quad) if quad else 0.0, "ratio")
    span("lyapunov.average_lyapunov_orbit", "self_s")
    t_orb = total.get("lyapunov.average_lyapunov_orbit", 0.0)
    m["lyapunov.orbit_steps_per_s"] = (
        counts.get("lyapunov.orbit_steps", 0) / t_orb if t_orb else 0.0, "1/s")
    span("lyapunov.I_integral", "calls", "self_s")

    kinds = lambda *ks: [r for r in rows if r["kind"] in ks]
    m["hill.edge_err_max"] = (_finite_max(r["err"] for r in kinds("bands_json")), "abs_err")
    m["hill.edges_missed"] = (sum(r["edges_missed"] for r in kinds("bands_json")) / nb,
                              "count/batch")
    m["maps.mathieu_err_max"] = (_finite_max(r["err"] for r in kinds("mathieu")), "abs_err")
    m["lyapunov.err_max"] = (
        _finite_max(r["err"] for r in kinds("lyapunov_quadrature", "lyapunov_orbit")),
        "abs_err")

    for sub in SUBCOMMANDS:
        t = sum(r["time_s"] for r in rows if r["argv"][0] == sub)
        m[f"cli.{sub}.s"] = (t / nb, "s/batch")
    m["cli.self_s"] = (own.get("cli.run", 0.0) / nb, "s/batch")
    m["cli.bytes_written"] = (sum(r["bytes"] for r in rows) / nb, "B/batch")

    m["fail_frac"] = (sum(not r["ok"] for r in rows) / len(rows), "ratio")
    m["proc.cpu_s"] = (traced["cpu_s"] / nb, "s/batch")
    m["proc.cpu_per_wall"] = (traced["cpu_s"] / traced["busy_s"], "ratio")
    t_traced = sum(r["t_end"] - r["t_start"] for r in traced["jobs"])
    t_plain = sum(r["t_end"] - r["t_start"] for r in traced["shadow_jobs"])
    m["trace.overhead_frac"] = ((t_traced - t_plain) / t_plain, "ratio")
    return m


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hillmap" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'hillmap' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2

    env = child_env()
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    try:
        setup_probe(env)  # warm-up: compiles bytecode on a fresh checkout
        setup = []
        if not args.trace:
            setup = [setup_pair(env) for _ in range(SETUP_PAIRS)]
        run = run_worker(env, work, args.workload, args.seed, args.seconds, args.trace)
        if not args.trace:
            setup += [setup_pair(env) for _ in range(SETUP_PAIRS)]
        rows = judge_jobs(args.workload, args.seed, run)
        if args.trace:
            metrics = per_layer(rows, run)
            shutil.move(run["spans_file"], RESULTS / f"spans-{args.workload}.jsonl")
        else:
            metrics = end_to_end(rows, run, setup)
        failed = [r for r in rows if not r["ok"]]
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "batches": run["batches"],
            "setup_pairs_s": setup, "worker_import_s": run["import_s"],
            "batch_wall_s": batch_walls(rows),
            "reference_s": run.get("reference_s"),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "failures_by_reason": _by_reason(failed),
            "jobs": rows,
        }
        (RESULTS / f"report-{args.workload}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1, default=str) + "\n")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in failed:
        print(f"failed {r['id']} {r['kind']} {r['reason']}: {r['detail']}  "
              f"[{' '.join(r['argv'])}]")
    if not args.trace:
        print(f"(unscaled) median batch wall = {statistics.median(batch_walls(rows)):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    unknown = [r for r in failed if not r["known"]]
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _by_reason(failed) -> dict:
    out: dict = {}
    for r in failed:
        out.setdefault(f"{r['kind']}:{r['reason']}", []).append(r["id"])
    return out


if __name__ == "__main__":
    sys.exit(main())
