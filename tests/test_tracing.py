"""The benchmark's tracer wraps package functions by module and name; a
function it names that is renamed or removed fails here, not in a traced
benchmark run."""
import importlib.util
import threading
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall():
    tracing = _load_tracing()
    names = [(mod, attr) for mod, attr, *_ in tracing._KERNELS] + tracing._LAYERS
    originals = [getattr(mod, attr) for mod, attr in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in zip(names, originals):
            assert getattr(mod, attr).__wrapped__ is fn
    finally:
        tracer.uninstall()
    for (mod, attr), fn in zip(names, originals):
        assert getattr(mod, attr) is fn


def test_threaded_ensemble_spans_nest_on_the_main_thread(tmp_path):
    # the ensemble's worker threads call no traced function: every span is
    # recorded by the main thread, and the spans nest strictly
    from hillmap import cli

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    recorders = set()

    class Spans(list):
        def append(self, item):
            recorders.add(threading.current_thread())
            super().append(item)

    tracer.spans = Spans()
    tracer.install()
    try:
        assert cli.run(["ensemble", "--m", "3", "--samples", "300000", "--iters", "3",
                        "--threads", "2", "--out", str(tmp_path / "e.json"),
                        "--no-timestamp"]) == 0
    finally:
        tracer.uninstall()
    assert recorders == {threading.main_thread()}
    names = [span[0] for span in tracer.spans]
    assert "ensemble.convergence_experiment" in names
    assert "ensemble.sample_initial" in names
    for name, t0, t1, parent, _ in tracer.spans:
        assert t0 <= t1
        if parent >= 0:
            _, p0, p1, _, _ = tracer.spans[parent]
            assert p0 <= t0 and t1 <= p1
