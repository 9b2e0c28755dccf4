"""Spans and counters around the program's public functions, installed from
outside: nothing under ``src/`` changes.

Each function is wrapped at the name its caller looks up -- ``hill.find_root``
and ``maps.find_root`` as well as ``numerics.find_root`` -- so calls made
inside the package are seen too.  The callables handed to the numerical
kernels (``rhs`` and ``f``) are wrapped to count their evaluations.

A span is ``(name, start, end, parent, job)``; spans stay in memory and are
written once, at the end of the run.  Only the main thread calls wrapped
functions (the ensemble's worker threads run ``numpy.polyval`` only), so one
span stack suffices.
"""
from __future__ import annotations

import json
import time
from collections import Counter

from hillmap import cli, ensemble, hill, lyapunov, maps, numerics, transfer

# (module, attribute, span name, index of a callable argument to count or None)
_KERNELS = [
    (mod, attr, f"numerics.{attr}", 0)
    for attr, mods in (
        ("integrate_ivp", (numerics, hill)),
        ("find_root", (numerics, hill, maps)),
        ("quad_singular", (numerics, lyapunov, transfer)),
    )
    for mod in mods
]
_LAYERS = [
    (hill, "spectrum_bands"), (hill, "band_function"), (hill, "monodromy"),
    (maps, "mathieu_formula"), (maps, "mathieu_lambda0"), (maps, "_mathieu_lambda_top"),
    (transfer, "pushforward_tent"), (transfer, "evolve_genlogistic"),
    (transfer, "mixing_correlation"), (transfer, "preimage_intervals"),
    (ensemble, "sample_initial"), (ensemble, "wasserstein1"),
    (ensemble, "convergence_experiment"),
    (lyapunov, "average_lyapunov_quadrature"), (lyapunov, "average_lyapunov_orbit"),
    (lyapunov, "I_integral"),
    (cli, "run"),
]
EVALS = {"numerics.integrate_ivp": "rhs_evals", "numerics.find_root": "f_evals",
         "numerics.quad_singular": "f_evals"}


def _module_name(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


class Tracer:
    """``install`` wraps the functions above, ``uninstall`` restores them;
    spans and counts accumulate across installs."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None
        self._saved: list = []

    # ------------------------------------------------------------ wrapping
    def _observe(self, name: str, args, result) -> None:
        """Work counters read off arguments and results."""
        c = self.counts
        if name == "transfer.pushforward_tent":
            c["transfer.cells_in"] += int(args[0].values.size)
        elif name == "transfer.preimage_intervals":
            c["transfer.preimage_intervals.intervals_out"] += len(result)
        elif name == "ensemble.sample_initial" and isinstance(result, tuple):
            c["ensemble.rejections"] += int(result[1])
        elif name == "ensemble.convergence_experiment":
            c["ensemble.sample_steps"] += int(args[2]) * (int(args[3]) + 1)
        elif name == "lyapunov.average_lyapunov_orbit":
            c["lyapunov.orbit_steps"] += int(args[2]) + lyapunov.BURN_IN

    def _wrap(self, name: str, fn, count_arg):
        tracer = self
        spans, stack, counts = self.spans, self.stack, self.counts
        evals_key = f"{name}.{EVALS[name]}" if count_arg is not None else None
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            if count_arg is not None and len(args) > count_arg:
                inner = args[count_arg]

                def counted(*a):
                    counts[evals_key] += 1
                    return inner(*a)

                args = (*args[:count_arg], counted, *args[count_arg + 1:])
            misses = cache_info().misses if cache_info else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.job)
            if cache_info:
                counts[f"{name}.computed"] += cache_info().misses - misses
            tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        targets = _KERNELS + [(mod, attr, f"{_module_name(mod)}.{attr}", None)
                              for mod, attr in _LAYERS]
        for mod, attr, name, count_arg in targets:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, count_arg))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -------------------------------------------------------------- output
    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because one thread records them.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, total, own = Counter(), Counter(), Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(own),
                "counts": dict(self.counts), "spans": len(self.spans)}
