"""Every hillmap submodule imports when it is the first one imported, so an
import cycle fails here and not only in the order some caller happens to use.
"""
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import hillmap

SCRIPT = """
import importlib, sys
sys.path.insert(0, {root!r})
for name in {names!r}:
    for key in [k for k in sys.modules if k.split(".")[0] == "hillmap"]:
        del sys.modules[key]
    importlib.import_module("hillmap." + name)
"""


def test_every_submodule_imports_first():
    names = sorted(m.name for m in pkgutil.iter_modules(hillmap.__path__))
    assert {"cli", "hill", "maps", "transfer"} <= set(names)
    root = str(Path(hillmap.__file__).resolve().parents[1])
    # one interpreter for all modules: only the hillmap entries are dropped
    # between imports, so numpy and scipy load once
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(root=root, names=names)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_maps_re_exports_the_trace_polynomial():
    # trace_poly lives in numerics, below both maps and hill
    from hillmap import hill, maps, numerics

    assert maps.trace_poly is numerics.trace_poly is hill.trace_poly


def test_cli_import_loads_no_scipy_integrate_or_optimize():
    # the quadrature and the trace polynomials are in-package, and the two
    # kernels that still use SciPy (integrate_ivp, find_root) import it when
    # called
    root = str(Path(hillmap.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {root!r}); import hillmap.cli\n"
        "loaded = [m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.optimize'))]\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_no_module_calls_quadpack():
    quadpack = re.compile(r"integrate\.quad\b|from scipy\.integrate import[^\n]*\bquad\b")
    for path in Path(hillmap.__file__).resolve().parent.glob("*.py"):
        assert not quadpack.search(path.read_text()), path.name
