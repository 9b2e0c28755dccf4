"""Every hillmap submodule imports when it is the first one imported, so an
import cycle fails here and not only in the order some caller happens to use.
"""
import ast
import importlib.util
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
    # the quadrature, the root finder and the trace polynomials are
    # in-package, and the one kernel that still uses SciPy (integrate_ivp)
    # imports it when called
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


def test_no_module_imports_mpmath():
    # mpmath is in the test extra only: the tests' oracles use it
    mpmath = re.compile(r"^\s*(import|from)\s+mpmath\b|import_module\(\s*['\"]mpmath", re.M)
    for path in Path(hillmap.__file__).resolve().parent.glob("*.py"):
        assert not mpmath.search(path.read_text()), path.name


def test_lyapunov_loads_neither_ensemble_nor_transfer():
    # the orbit's block size is lyapunov's own: the exponents need no
    # sampling and no density evolution
    root = str(Path(hillmap.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {root!r}); import hillmap.lyapunov\n"
        "loaded = {'hillmap.ensemble', 'hillmap.transfer'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_tracer_only_imports_are_wrapped_by_the_tracer():
    # a name imported under "noqa: F401" is used in its module or wrapped
    # there by the benchmark's tracer, so no other dead import slips in
    tracing_file = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_file)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {(mod.__name__, attr) for mod, attr, *_ in tracing._KERNELS}
    wrapped |= {(mod.__name__, attr) for mod, attr in tracing._LAYERS}
    for path in sorted(Path(hillmap.__file__).resolve().parent.glob("*.py")):
        module = f"hillmap.{path.stem}".removesuffix(".__init__")
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                assert name in used or (module, name) in wrapped, f"{path.name}: {name}"
