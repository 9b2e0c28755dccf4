"""The benchmark's tracer wraps package functions by module and name; a
function it names that is renamed or removed fails here, not in a traced
benchmark run."""
import importlib.util
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
