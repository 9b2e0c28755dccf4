"""One measured run: a fresh interpreter that imports ``hillmap.cli`` once and
then calls ``hillmap.cli.run(argv)`` for each job of the workload's first
BATCHES batches, batch after batch.

    python3 perfbench/worker.py WORKLOAD SEED BATCHES TRACE OUT_DIR RESULT

The job list is a pure function of (WORKLOAD, SEED, BATCHES), never of the
clock, so two runs of the same code and seed judge the same jobs.

Job output goes to OUT_DIR through ``HILLMAP_OUT_DIR``; each job's stdout and
stderr are captured.  Only the standard library is imported before
``import hillmap.cli`` is timed.

Untraced runs also time a fixed reference computation (``reference``) three
times at the start of each batch and once before each job, outside the jobs'
timed regions: the host's speed drifts by tens of percent within a minute,
and a batch's time divided by the reference time it saw is steady where the
raw time is not (``run.py`` reports the mean of that ratio over the batches).

With TRACE = 1 every batch runs twice, traced and untraced, in alternating
order: the traced pass runs the workload's batch with the program's public
functions wrapped (see ``tracing.py``), the untraced pass runs the same
batch of a shadow stream (same design, other seed, so no input repeats and
no cache carries over).  Comparing the two passes gives the tracing overhead
free of the drift between two separate runs.  The spans go next to RESULT.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time


_ARRAY = []  # the memory part's 8 MiB operand, built once outside any timing


def reference(memory: bool = False) -> float:
    """Seconds for a fixed mix of the work the jobs do: interpreted float
    arithmetic, many small NumPy calls, and one large array sort.  With
    ``memory``, also seven passes over an array of 2^20 doubles, four times
    the per-core L2, as the ``statistics`` jobs make: the speed of that work
    drifts apart from the interpreter's on a shared host."""
    import numpy as np

    if memory and not _ARRAY:
        _ARRAY.append(np.cos(np.arange(2**20) * 1e-3))
    t0 = time.perf_counter()
    x = 0.3
    for _ in range(20000):
        x = 4.0 * x * (1.0 - x)
    a = np.zeros(4)
    for _ in range(2000):
        a = a * 0.5 + 1.0
    np.sort(np.cos(np.arange(200_000) * 1e-3))
    if memory:
        y = _ARRAY[0] * 0.5
        for _ in range(6):
            y = y * (1.0 - y) + 0.25
    return time.perf_counter() - t0


def run_batch(cli, batch, start, tracer=None, refs=None, memory=False) -> list:
    records = []
    if refs is not None:
        refs += [reference(memory) for _ in range(3)]
    for job in batch:
        if refs is not None:
            refs.append(reference(memory))
        out, err = io.StringIO(), io.StringIO()
        exc = None
        if tracer:
            tracer.job = job.id
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t_start = time.perf_counter()
            try:
                rc = cli.run(list(job.argv))
            except Exception as e:  # a raising job is a failed job
                rc, exc = None, f"{type(e).__name__}: {e}"
            t_end = time.perf_counter()
        records.append({
            "id": job.id, "batch": job.batch, "t_start": t_start - start,
            "t_end": t_end - start, "rc": rc, "exc": exc,
            "stdout": out.getvalue()[-4000:], "stderr": err.getvalue()[-2000:],
        })
    return records


def main(argv):
    workload, seed, count, trace_on, out_dir, result_path = argv
    seed, count = int(seed), int(count)
    os.environ["HILLMAP_OUT_DIR"] = out_dir

    t0 = time.perf_counter()
    import hillmap.cli as cli
    import_s = time.perf_counter() - t0

    import workloads  # the script's directory is first on sys.path

    tracer = shadow = None
    shadow_dir = out_dir + "-shadow"
    if trace_on == "1":
        import tracing

        tracer = tracing.Tracer()
        shadow = workloads.batches(workload, -1 - seed)

    records, shadow_records, refs = [], [], []
    done = 0
    busy_s = cpu_s = 0.0
    start = time.perf_counter()
    for batch in workloads.batches(workload, seed):
        if done == count:
            break
        passes = [(True, batch)]
        if tracer:
            passes.append((False, next(shadow)))
            if done % 2:
                passes.reverse()
        for measured, jobs in passes:
            os.environ["HILLMAP_OUT_DIR"] = out_dir if measured else shadow_dir
            if not measured:
                shadow_records += run_batch(cli, jobs, start)
                continue
            if tracer:
                tracer.install()
            t1, c1 = time.perf_counter(), time.process_time()
            batch_refs = None if tracer else []
            records += run_batch(cli, jobs, start, tracer, batch_refs,
                                 memory=workload == "statistics")
            if batch_refs:
                refs.append(batch_refs)
            busy_s += time.perf_counter() - t1
            cpu_s += time.process_time() - c1
            if tracer:
                tracer.uninstall()
        done += 1

    result = {
        "import_s": import_s,
        "hillmap_file": cli.__file__,
        "batches": done,
        "jobs": records,
        "busy_s": busy_s,
        "reference_s": refs,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        spans_path = os.path.splitext(result_path)[0] + "-spans.jsonl"
        tracer.write_spans(spans_path)
        result.update(trace=tracer.summary(), spans_file=spans_path,
                      shadow_jobs=shadow_records)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
